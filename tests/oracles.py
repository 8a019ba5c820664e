"""Slow, independent reference routes that the tests check the library against.

The library answers Newton-polyhedron questions from a half-space
description, divisibility from the dividend's facets and vertices,
minimal generators by a sweep in degree order, colon ideals by a staircase
walk and 2D Minkowski sums by merging edge cycles; these oracles answer
the same questions by rational LP feasibility, by exhaustive search or
by a colon and a star product, by comparing all pairs, by intersecting
shifted ideals and by hulling all pairwise sums instead, and check a
claimed facet by the rank of its tight directions.  The searches
test every candidate divisor in full, with no facet or variable shortcut,
except divisors_by_points, which reads the divisors' support vectors off
the dividend's facets by trying lattice points below its vertices, where
the library walks the edges of its Newton polyhedron.
"""

from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import inf

from icm.errors import DimensionMismatchError
from icm.feasibility import feasible_nonneg
from icm.ideals import MonomialIdeal, box_points, ord_valuation
from icm.monoid import closed_supersets, star


def minimal_by_pairs(points, dim):
    """Ideal of the <=-minimal points, each point checked against all others."""
    pts = set(map(tuple, points))
    minimal = [p for p in pts
               if not any(q != p and all(a >= b for a, b in zip(p, q))
                          for q in pts)]
    return MonomialIdeal(dim, tuple(sorted(minimal)))


def colon_by_intersection(I, J):
    """I : J as the intersection over g in J of the shifted ideals
    (max(h - g, 0) : h in I), each intersection by pairwise lcms."""
    result = None
    for g in J.gens:
        part = {tuple(max(a - b, 0) for a, b in zip(h, g)) for h in I.gens}
        result = part if result is None else {
            tuple(map(max, p, q)) for p in result for q in part}
        result = minimal_by_pairs(result, I.dim).gens
    return MonomialIdeal(I.dim, result)


def member_lp(points, q):
    """Exists lambda >= 0 with sum(lambda) = 1 and sum(lambda_i p_i) <= q?

    This is exact membership of q in conv(points) + R^d_+.
    """
    points = list(points)
    d = len(q)
    n = len(points)
    rows = []
    # sum lambda_i p_ij + s_j = q_j
    for j in range(d):
        rows.append([p[j] for p in points] + [1 if k == j else 0 for k in range(d)])
    rows.append([1] * n + [0] * d)
    rhs = list(q) + [1]
    return feasible_nonneg(rows, rhs)


def _rank(vectors):
    """Rank of a list of integer vectors, by Fraction Gaussian elimination."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def is_facet(points, c, m):
    """Is c.x >= m a facet of conv(points) + R^d_+?

    It must be valid (c >= 0 and c.p >= m on every point) and tight on some
    point, and the directions it contains, differences of tight points and
    the coordinate rays with c_k = 0, must span rank d - 1.
    """
    d = len(c)
    if any(v < 0 for v in c):
        return False
    values = [sum(a * b for a, b in zip(c, p)) for p in points]
    if min(values) != m:
        return False
    tight = [p for p, v in zip(points, values) if v == m]
    directions = [[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]
    directions += [[int(i == k) for i in range(d)]
                   for k in range(d) if c[k] == 0]
    return _rank(directions) == d - 1


def vertices_lp(points):
    """Points of the list that are not in NP of the others, by LP."""
    pts = sorted(set(points))
    return {p for i, p in enumerate(pts)
            if len(pts) == 1 or not member_lp(pts[:i] + pts[i + 1:], p)}


def hull_vertices_lp(points):
    """Points of the list that are not a convex combination of the others,
    by LP: the vertex set of their bounded convex hull."""
    pts = sorted(set(map(tuple, points)))
    verts = set()
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        rows = [[o[j] for o in others] for j in range(len(p))]
        rows.append([1] * len(others))
        if not others or not feasible_nonneg(rows, list(p) + [1]):
            verts.add(p)
    return verts


def mink_sum_lp(P, Q):
    """Vertex set of conv(P) + conv(Q): every pairwise sum of the points,
    reduced by the LP hull test."""
    return hull_vertices_lp({tuple(a + b for a, b in zip(p, q))
                             for p in P for q in Q})


def closure_lp(I):
    """Integral closure: minimal box points that are LP members of NP(I).

    Membership is monotone up each column of the box along the last axis,
    so bisection finds a column's lowest member with O(log M) tests, and
    only such lowest points can be minimal.  A box point that dominates a
    generator lies in I, hence in NP(I), so it needs no LP.
    """
    box = tuple(max(g[k] for g in I.gens) for k in range(I.dim))

    def inside(p):
        return (any(all(a >= b for a, b in zip(p, g)) for g in I.gens)
                or member_lp(I.gens, p))

    lowest = []
    for u in iproduct(*(range(b + 1) for b in box[:-1])):
        lo, hi = 0, box[-1] + 1  # the column's lowest member, or past the box
        while lo < hi:
            mid = (lo + hi) // 2
            if inside(u + (mid,)):
                hi = mid
            else:
                lo = mid + 1
        if lo <= box[-1]:
            lowest.append(u + (lo,))
    return minimal_by_pairs(lowest, I.dim)


def divides_by_colon(I, J):
    """The K with star(I, K) == J, or None, by cancellation: if I divides
    J at all, closure(HK) : K = closure(H) makes the colon J : I the
    cofactor.  The colon is the pairwise-lcm intersection, and star checks
    the answer; nothing is read off a facet description of J."""
    if I.dim != J.dim:
        raise DimensionMismatchError(f"dimensions differ: {I.dim} vs {J.dim}")
    K = colon_by_intersection(J, I)
    return K if star(I, K) == J else None


def divisors_by_points(dividend, budget):
    """The support vectors h_J of the closed divisors J of a monoid._Dividend
    I, by trying every lattice point q_v <= v below each vertex v of NP(I),
    each point charged to the budget.  Per facet c, lo is the least c.q_v
    and hi the largest c.q_v - slack_v(c) so far; a choice goes on while hi
    <= lo, and a full one yields h = lo.  Nothing is read of NP(I)'s edges.

    Exact by the dividend's support test alone: at a full choice each q_v
    exceeds h by at most v's slacks, so minimalize({q_v}), whose least
    values are h, divides I.  A closed divisor's witnesses in that test
    make a choice with hi <= h_J <= lo at every prefix, and lo = h_J in
    full.  The facets tight at v have rank d and c.q_v = h(c) on them, so h
    fixes q_v: no divisor comes twice."""
    normals = [c for c, _ in dividend.facets]

    def rec(i, lo, hi):
        if i == len(dividend.vertex_slacks):
            yield lo
            return
        v, slack = dividend.vertex_slacks[i]
        for q in box_points(v):
            budget.spend()
            a = [sum(x * y for x, y in zip(c, q)) for c in normals]
            lo_q = tuple(map(min, lo, a))
            hi_q = tuple(max(x, y - s) for x, y, s in zip(hi, a, slack))
            if all(x <= y for x, y in zip(hi_q, lo_q)):
                yield from rec(i + 1, lo_q, hi_q)

    yield from rec(0, (inf,) * len(normals), (-inf,) * len(normals))


def divides_by_search(I, J):
    """A closed K with star(I, K) == J, found by exhaustive search, or None.

    Every such K contains J and has its generators in J's box, so the closed
    supersets of J are all the candidates.
    """
    for K in closed_supersets(J, budget=None):
        if star(I, K) == J:
            return K
    return None


def irreducible_by_search(I):
    """No closed J >= I with 1 <= ord(J) < ord(I) star-divides I.

    Every star factor of I is among its closed supersets, and ord is
    additive, so a proper split exists iff such a J divides I.
    """
    o = ord_valuation(I)
    return not any(divides_by_search(J, I) is not None
                   for J in closed_supersets(I, budget=None)
                   if 1 <= ord_valuation(J) < o)


@cache
def factorizations_by_search(I):
    """Every multiset of atoms whose star product is I, by exhaustive search.

    A split of I is a closed J >= I, neither I nor the unit, that divides
    I; every star factor has its generators in I's box, so the closed
    supersets of I are all the candidates.  An atom is an ideal with no
    split, and each factorization is an atom A dividing I times one of
    I / A.  No facet prune, variable split or two-variable theorem is used.
    """
    found = set()
    for J in closed_supersets(I, budget=None):
        K = None if J == I or J.is_unit else divides_by_colon(J, I)
        if K is not None and factorizations_by_search(J) == {(J,)}:
            found |= {tuple(sorted((J,) + fz, key=lambda a: a.gens))
                      for fz in factorizations_by_search(K)}
    return found or {(I,)}
