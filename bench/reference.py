"""Reference answers that share no code with the package under test.

Everything here works on plain tuples of ints (or Fractions) and is exact.
2D ideals are handled through their staircase: for an ideal I in k[x, y],
f_I(a) is the least b with x^a y^b in I.  Closure, colon, star and the
Zariski factorization of a closed 2D ideal all read off that function and
the lower convex chain of the generators, which is a different route from
the package's facet enumeration, LP and divisor searches.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


def minimal(points):
    """The <=-minimal elements of a point set, sorted (an antichain)."""
    pts = sorted(set(map(tuple, points)))
    return tuple(p for p in pts
                 if not any(q != p and dominates(p, q) for q in pts))


def contains(gens, p):
    return any(dominates(p, g) for g in gens)


def product(gens_a, gens_b):
    return minimal(tuple(x + y for x, y in zip(g, h))
                   for g in gens_a for h in gens_b)


def translate(gens, m):
    return tuple(sorted(tuple(x + y for x, y in zip(g, m)) for g in gens))


def normalize(gens):
    """Shift so the componentwise minimum is zero; returns (gens, shift)."""
    m = tuple(min(g[k] for g in gens) for k in range(len(gens[0])))
    return translate(gens, tuple(-v for v in m)), m


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# ---------------------------------------------------------------------------
# 2D ideals


def newton_chain_2d(gens):
    """Vertices of the compact boundary of conv(gens) + R^2_+, by
    increasing x (and so decreasing y)."""
    chain = []
    for p in minimal(gens):
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _height(chain, a):
    """Lower boundary of the Newton polygon over x = a, as a Fraction
    (a >= chain[0][0])."""
    if a >= chain[-1][0]:
        return Fraction(chain[-1][1])
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        if x1 <= a <= x2:
            return y1 + Fraction((y2 - y1) * (a - x1), x2 - x1)
    raise ValueError("abscissa left of the Newton polygon")


def member_2d(gens, q):
    """Is the rational point q in conv(gens) + R^2_+?"""
    chain = newton_chain_2d(gens)
    qx, qy = Fraction(q[0]), Fraction(q[1])
    return qx >= chain[0][0] and qy >= _height(chain, qx)


def _corners(f, width):
    """Generators of the ideal whose staircase is f on 0..width."""
    gens, prev = [], None
    for a in range(width + 1):
        b = f(a)
        if b is not None and (prev is None or b < prev):
            gens.append((a, b))
            prev = b
    return tuple(gens)


def closure_2d(gens):
    """Integral closure: the lattice points on or above the Newton polygon."""
    chain = newton_chain_2d(gens)
    x0 = chain[0][0]

    def f(a):
        if a < x0:
            return None
        h = _height(chain, a)
        return -((-h.numerator) // h.denominator)

    return _corners(f, chain[-1][0])


def staircase_2d(gens):
    """f_I(a) = least b with (a, b) in I, or None."""
    gens = minimal(gens)

    def f(a):
        ys = [g[1] for g in gens if g[0] <= a]
        return min(ys) if ys else None

    return f


def colon_2d(gens_i, gens_j):
    """I : J = {p : p + h in I for every generator h of J}."""
    f = staircase_2d(gens_i)
    width = max(g[0] for g in gens_i)

    def fk(a):
        best = 0
        for hx, hy in gens_j:
            b = f(a + hx)
            if b is None:
                return None
            best = max(best, b - hy)
        return best

    return _corners(fk, width)


def star_2d(gens_a, gens_b):
    return closure_2d(product(gens_a, gens_b))


def axis_atom(a, b):
    """closure(x^a, y^b); an atom of the 2D monoid when gcd(a, b) = 1."""
    return closure_2d(((a, 0), (0, b)))


def zariski_atoms(gens):
    """Atoms of a closed 2D ideal, sorted: (x) and (y) for the monomial
    factor, and one closure(x^a, y^b) per unit of lattice length of each
    compact Newton-polygon edge of primitive direction (a, -b)."""
    chain = newton_chain_2d(gens)
    atoms = [((1, 0),)] * chain[0][0] + [((0, 1),)] * chain[-1][1]
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        dx, dy = x2 - x1, y1 - y2
        g = gcd(dx, dy)
        atoms.extend([axis_atom(dx // g, dy // g)] * g)
    return sorted(atoms)


def star_fold_2d(atoms):
    result = ((0, 0),)
    for a in atoms:
        result = star_2d(result, a)
    return result


def all_closed_2d(b):
    """Every closed ideal with minimal generators in [0, b]^2 except the
    unit: the closures of all antichains of the box, which are exactly the
    monotone lattice paths, enumerated by choosing the generators' x's and
    y's."""
    coords = range(b + 1)
    out = set()
    for k in range(1, b + 2):
        for xs in combinations(coords, k):
            for ys in combinations(coords, k):
                gens = tuple(zip(xs, reversed(ys)))
                c = closure_2d(gens)
                if c == gens and c != ((0, 0),):
                    out.add(c)
    return sorted(out)


def search_size(gens):
    """Number of down-sets of the box complement of a 2D ideal: the count of
    candidates an exhaustive closed-superset search over its generator box
    examines.  The complement is a Young diagram with non-increasing column
    heights, and its down-sets are the non-increasing sequences bounded by
    those heights."""
    bx = max(g[0] for g in gens)
    by = max(g[1] for g in gens)
    f = staircase_2d(gens)
    heights = [min(by + 1, f(a)) if f(a) is not None else by + 1
               for a in range(bx + 1)]
    counts = [1] * (by + 2)  # counts[c]: sequences so far ending at <= c
    for h in reversed(heights):
        row, total = [], 0
        for c in range(by + 2):
            if c <= h:
                total += counts[c]
            row.append(total)
        counts = row
    return counts[-1]


# ---------------------------------------------------------------------------
# 2D polygons


def hull_2d(points):
    """Vertex set of conv(points), sorted, collinear points dropped."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return tuple(pts)
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(sorted(set(lower[:-1] + upper[:-1])))


def mink_2d(verts_a, verts_b):
    return hull_2d(tuple(x + y for x, y in zip(p, q))
                   for p in verts_a for q in verts_b)


def scale(verts, c):
    return tuple(tuple(c * v for v in p) for p in verts)


def shadow_2d(verts):
    h = min(v[1] for v in verts)
    return hull_2d(list(verts) + [(v[0], h) for v in verts])


def basis_polytope(kind, v):
    """Segment conv{0, v}, or its shadow triangle, translation-normalized."""
    if kind == "segment":
        return normalize(((0, 0), tuple(v)))[0]
    return normalize(hull_2d(((0, 0), tuple(v), (v[0], 0))))[0]


def phi_num_2d(verts):
    """Numerator of phi(P): the closure of the ideal spanned by the
    normalized vertices, with its monomial factor removed."""
    shifted = normalize(verts)[0]
    return normalize(closure_2d(minimal(shifted)))[0]


# ---------------------------------------------------------------------------
# Any dimension


def in_simplex_hull(points, q):
    """Is q a convex combination of some affinely independent subset of
    `points`?  By Caratheodory this decides q in conv(points); each subset
    is solved exactly by Gaussian elimination over the rationals."""
    d = len(q)
    for k in range(1, min(len(points), d + 1) + 1):
        for subset in combinations(points, k):
            lam = _barycentric(subset, q)
            if lam is not None and all(v >= 0 for v in lam):
                return True
    return False


def _barycentric(subset, q):
    """lambda with sum lambda = 1 and sum lambda_i p_i = q, if unique."""
    k = len(subset)
    rows = [[Fraction(p[j]) for p in subset] + [Fraction(q[j])]
            for j in range(len(q))]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(r)
        r += 1
    if any(row[k] != 0 for row in rows[r:]):
        return None
    return [rows[i][k] / rows[i][i] for i in pivots]

