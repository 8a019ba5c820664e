"""The integral polytope group, its 2D basis, and the map onto ideal classes.

Polytopes are stored by their exact vertex sets.  Group elements are formal
differences of translation classes; ideal classes are formal fractions of
integrally closed monomial ideals modulo monomial factors.  The 2D basis
consists of primitive segments and their shadows (right triangles), and
decomposition works on the counterclockwise edge-vector multiset, which is
additive under Minkowski sums; a 2D Minkowski sum is computed that way, by
merging the two edge cycles in angle order.
"""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key
from math import gcd

from .errors import DimensionMismatchError
from .ideals import (_Record, _check_dims, _check_points, minimalize,
                     normalize_translation, unit_ideal)
from .monoid import _as_budget, _require_closed, star
from .newton import (NewtonPolyhedron, _closure_of_points, convex_chain,
                     integral_closure, vertices)


class IntegralPolytope(_Record):
    # verts: a sorted tuple of integer points, exactly the vertex set
    __slots__ = ("dim", "verts")

    def __init__(self, dim, verts):
        _check_points(verts, dim, "vertex")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "verts", verts)


def hull(points, dim):
    """Vertex set of conv(points), exactly.

    In 2D the monotone chain gives it directly.  In any other d, p is a vertex
    iff it uniquely minimizes some c over the points, iff the lifted point
    (p, -sum(p)) uniquely minimizes (c + b, b) > 0 for a large b, iff that
    lifted point is a vertex of the Newton polyhedron of the lifted points.
    """
    pts = sorted(set(map(tuple, points)))
    _check_points(pts, dim, "point")
    if dim == 2:
        verts = set(convex_chain(pts)) | set(convex_chain(pts[::-1]))
    else:
        lifted = NewtonPolyhedron(dim + 1, tuple(p + (-sum(p),) for p in pts))
        verts = {v[:dim] for v in vertices(lifted)}
    return IntegralPolytope(dim, tuple(sorted(verts)))


def _ccw_edges(points):
    """The lex-least vertex of conv(points) and its ccw boundary edges from
    there, in two runs: the lower chain's edges, which point lex-upward,
    then the upper chain's, which point lex-downward.  The directions of a
    run lie in one half-open half-plane, so a cross product orders them by
    angle.  A segment has one edge in each run, a point none.
    """
    pts = sorted(set(points))
    return pts[0], [[(q[0] - p[0], q[1] - p[1]) for p, q in zip(c, c[1:])]
                    for c in (convex_chain(pts), convex_chain(pts[::-1]))]


def _merge_run(a, b):
    """Two angle-sorted edge runs of one half-plane, merged in angle order
    with parallel edges joined."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (ax, ay), (bx, by) = a[i], b[j]
        turn = ax * by - ay * bx
        if turn > 0:
            out.append(a[i])
            i += 1
        elif turn < 0:
            out.append(b[j])
            j += 1
        else:
            out.append((ax + bx, ay + by))
            i += 1
            j += 1
    return out + a[i:] + b[j:]


def p_mink_sum(P, Q):
    """Minkowski sum of bounded polytopes.

    In 2D the edge cycle of P + Q from the sum of the lex-least vertices
    is the angle-order merge of the edge cycles of P and Q, run by run
    (see _ccw_edges).  Other dimensions hull the pairwise vertex sums.
    """
    _check_dims(P, Q)
    if P.dim != 2:
        return hull({tuple(a + b for a, b in zip(p, q))
                     for p in P.verts for q in Q.verts}, P.dim)
    (x, y), runs_p = _ccw_edges(P.verts)
    (qx, qy), runs_q = _ccw_edges(Q.verts)
    x, y = x + qx, y + qy
    verts = [(x, y)]
    for a, b in zip(runs_p, runs_q):
        for dx, dy in _merge_run(a, b):
            x, y = x + dx, y + dy
            verts.append((x, y))
    return IntegralPolytope(2, tuple(sorted(verts[:-1] or verts)))


def translate_polytope(P, shift):
    return IntegralPolytope(P.dim, tuple(sorted(
        tuple(a + b for a, b in zip(v, shift)) for v in P.verts)))


def normalize_polytope(P):
    """Translate so the componentwise minimum of the vertices is 0."""
    m = tuple(min(v[k] for v in P.verts) for k in range(P.dim))
    return translate_polytope(P, tuple(-x for x in m))


def point_polytope(dim):
    return IntegralPolytope(dim, ((0,) * dim,))


def height(P):
    """Minimum last coordinate over the vertices."""
    return min(v[-1] for v in P.verts)


def shadow(P):
    """conv(P together with P projected down to its own height)."""
    h = height(P)
    proj = {v[:-1] + (h,) for v in P.verts}
    return hull(set(P.verts) | proj, P.dim)


class PolytopeGroupElement(_Record):
    """Formal difference [pos] - [neg] of translation classes."""
    __slots__ = ("pos", "neg")

    def __init__(self, pos, neg):
        _check_dims(pos, neg)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    @property
    def dim(self):
        return self.pos.dim


def group_element(pos, neg=None):
    if neg is None:
        neg = point_polytope(pos.dim)
    return PolytopeGroupElement(normalize_polytope(pos), normalize_polytope(neg))


def group_add(a, b):
    return group_element(p_mink_sum(a.pos, b.pos), p_mink_sum(a.neg, b.neg))


def group_negate(a):
    return group_element(a.neg, a.pos)


def class_equal(a, b):
    """Grothendieck equality: pos_a + neg_b is a translate of pos_b + neg_a."""
    left = normalize_polytope(p_mink_sum(a.pos, b.neg))
    right = normalize_polytope(p_mink_sum(b.pos, a.neg))
    return left.verts == right.verts


# ---------------------------------------------------------------------------
# 2D basis: primitive segments and their shadow triangles


def _primitive(v):
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g), g


def _upper_half(v):
    """Canonical representative of {v, -v}: second coordinate positive, or
    zero second coordinate with positive first."""
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return v
    return (-v[0], -v[1])


class BasisElement(_Record):
    # kind: "segment" or "triangle"; v: a primitive direction, upper-half
    # normalized
    __slots__ = ("kind", "v")

    def __init__(self, kind, v):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "v", v)

    def polytope(self):
        if self.kind == "segment":
            return basis_segment(self.v)
        return basis_triangle(self.v)

    def __repr__(self):
        return f"{self.kind.capitalize()}({self.v[0]},{self.v[1]})"


def _check_primitive_upper(v):
    v = tuple(v)
    if len(v) != 2:
        raise DimensionMismatchError("basis directions live in Z^2")
    if v == (0, 0):
        raise ValueError("the zero vector is not a basis direction")
    if gcd(abs(v[0]), abs(v[1])) != 1:
        raise ValueError(f"direction {v} is not primitive")
    if _upper_half(v) != v:
        raise ValueError(f"direction {v} is not upper-half normalized")
    return v


def basis_segment(v):
    """conv{0, v} for a primitive upper-half direction v."""
    v = _check_primitive_upper(v)
    return IntegralPolytope(2, tuple(sorted({(0, 0), v})))


def basis_triangle(v):
    """The shadow of conv{0, v}, translation-normalized; needs both
    coordinates nonzero, otherwise the shadow stays 1-dimensional.  As
    v[1] > 0 the shadow is conv{0, v, (v[0], 0)}, and all three are
    vertices."""
    v = _check_primitive_upper(v)
    if v[0] == 0 or v[1] == 0:
        raise ValueError(f"shadow of segment {v} is degenerate, not a triangle")
    return normalize_polytope(IntegralPolytope(2, tuple(sorted(
        {(0, 0), v, (v[0], 0)}))))


def edge_vector_counts(P):
    """Lattice lengths of the ccw boundary edges, keyed by primitive
    direction.  Additive under Minkowski sums; a segment counts in both
    directions, a point not at all."""
    if P.dim != 2:
        raise DimensionMismatchError("edge counts are a 2D notion")
    counts = {}
    for run in _ccw_edges(P.verts)[1]:
        for w in run:
            u, length = _primitive(w)
            counts[u] = counts.get(u, 0) + length
    return counts


def decompose_2d(e, budget=None):
    """Integer coefficients over the segment/triangle basis, read off the
    signed edge counts n = edges(pos) - edges(neg).

    Each non-axis pair {p, -p}, written with p[0] > 0, is covered by one
    segment and one triangle, both of direction v = ±p in the upper half.
    The segment has the edges p and -p once each; the triangle has -p
    once, (1, 0) p[0] times and (0, ±1) |p[1]| times, the sign that of
    p[1].  So Segment(v) takes n(p), Triangle(v) takes n(-p) - n(p), and
    once the triangles' axis edges are taken off, the two axis segments
    take what is left.  The reconstruction identity is re-checked before
    returning; it adds one basis copy per unit of coefficient, and those
    copies are charged to budget (a count, a SearchBudget or None for no
    bound) before it starts, so BudgetExceededError comes before the work.
    """
    if e.dim != 2:
        raise DimensionMismatchError("basis decomposition is implemented in 2D")
    n = Counter(edge_vector_counts(e.pos))
    n.subtract(edge_vector_counts(e.neg))
    coeffs = {}
    for a, b in sorted({(a, b) if a > 0 else (-a, -b)
                        for a, b in n if a and b}):
        v = _upper_half((a, b))
        seg, tri = n[(a, b)], n[(-a, -b)] - n[(a, b)]
        if seg:
            coeffs[BasisElement("segment", v)] = seg
        if tri:
            coeffs[BasisElement("triangle", v)] = tri
            n[(1, 0)] -= tri * a
            n[(0, 1) if b > 0 else (0, -1)] -= tri * abs(b)

    if n[(1, 0)] != n[(-1, 0)] or n[(0, 1)] != n[(0, -1)]:
        raise AssertionError("edge multiset does not close up; invalid input")
    for u in (1, 0), (0, 1):
        if n[u]:
            coeffs[BasisElement("segment", u)] = n[u]

    _as_budget(budget).spend(sum(map(abs, coeffs.values())))
    if not _reconstructs(e, coeffs):
        raise AssertionError("basis decomposition failed its reconstruction check")
    return coeffs


def _reconstructs(e, coeffs):
    """left = sum of positive parts + e.neg, right = negative parts + e.pos.

    Copies are added one at a time through p_mink_sum, the group's own
    addition, rather than as c times the basis vertices, so the check
    does not rest on c * B being B + ... + B.  Its cost grows with the
    sum of |c|, which the benchmark's oversized-decompose probe uses as
    its deliberately slow op; decompose_2d's budget bounds it instead.
    """
    origin = point_polytope(2)  # adding it reduces a side to its vertices
    left = p_mink_sum(e.neg, origin)
    right = p_mink_sum(e.pos, origin)
    for B, c in coeffs.items():
        P = B.polytope()
        for _ in range(abs(c)):
            if c > 0:
                left = p_mink_sum(left, P)
            else:
                right = p_mink_sum(right, P)
    return normalize_polytope(left).verts == normalize_polytope(right).verts


# ---------------------------------------------------------------------------
# The surjection onto ideal classes


class IdealClassElement(_Record):
    """Formal fraction [num, den] modulo monomial (principal) classes."""
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        _check_dims(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def dim(self):
        return self.num.dim

    @property
    def is_identity(self):
        return self.num == self.den


def ideal_class(num, den=None):
    """Build a class element: close both ideals and drop monomial factors."""
    if den is None:
        den = unit_ideal(num.dim)
    num = normalize_translation(integral_closure(num))[0]
    den = normalize_translation(integral_closure(den))[0]
    return IdealClassElement(num, den)


def class_equal_ideal(a, b):
    """Equality in the quotient group: cross star-products agree up to a
    monomial factor."""
    left = normalize_translation(star(a.num, b.den))[0]
    right = normalize_translation(star(b.num, a.den))[0]
    return left == right


def phi(P):
    """Class of the ideal spanned by the lattice points of P + R^d_+, after
    translating P into the nonnegative orthant."""
    Pn = normalize_polytope(P)
    generated = minimalize(Pn.verts, P.dim)
    return ideal_class(generated)


def phi_group(e):
    """phi extended to formal differences of polytopes.  phi's parts are
    closed and translation-normalized already, so none is closed again."""
    return IdealClassElement(phi(e.pos).num, phi(e.neg).num)


def ideal_to_polytope(I):
    """Bounded hull of the generators; phi of it recovers the class of I."""
    return hull(I.gens, I.dim)


# ---------------------------------------------------------------------------
# Colon-ideal factorization over the 2D basis


class ColonFactorization(_Record):
    """I as x^num_monomial * closure(prod (x^a, y^b)), one (a, b) per copy.

    No denominator is needed: by Zariski's theorem a closed 2D ideal is a
    monomial times a star product of closures of (x^a, y^b), so the colon
    by a trivial denominator is the numerator itself.
    """
    __slots__ = ("base", "num_monomial", "num_factors")

    def __init__(self, base, num_monomial, num_factors):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "num_monomial", num_monomial)
        object.__setattr__(self, "num_factors", num_factors)

    def evaluate(self):
        """NP of a product is the Minkowski sum of the factors' NPs,
        whatever their closures, and NP of c copies of (x^a, y^b) is that
        of (x^(c*a), y^(c*b)), the segment (c*a, -c*b) plus R^2_+.  A sum
        of such polygons has the segments for edges, steepest first, so
        its lower chain runs from x^num_monomial * y^(sum of c*b) through
        one corner per distinct factor, and one closure of those corners
        is the answer: no product is formed."""
        x, y = self.num_monomial
        edges = sorted(((c * a, c * b) for (a, b), c
                        in Counter(self.num_factors).items()),
                       key=cmp_to_key(lambda e, f: e[0] * f[1] - f[0] * e[1]))
        y += sum(b for _, b in edges)
        corners = [(x, y)]
        for a, b in edges:
            x, y = x + a, y - b
            corners.append((x, y))
        return _closure_of_points(corners, 2)


def colon_factorization_2d(I):
    """Express a closed 2D ideal as a monomial times a star product of
    closures of (x^a, y^b), read off the edges of its generator polygon.

    phi sends Segment(-a, b) with a, b > 0 to the class of
    closure(x^a, y^b) and every other basis element to the identity
    (tests/test_polytopes.py::TestPhi checks it for |v_1|, v_2 <= 6).
    Segment(-a, b)'s coefficient in decompose_2d is the lattice length c
    of the polygon's edges in direction (a, -b), its lower chain's, so
    each such direction gives c copies of (a, b).  The returned expression
    is checked, once, to evaluate back to I exactly.
    """
    if I.dim != 2:
        raise DimensionMismatchError("colon factorization is implemented in 2D")
    _require_closed(I, "input")
    counts = edge_vector_counts(hull(I.gens, 2)).items()
    f = ColonFactorization(I, normalize_translation(I)[1], tuple(sorted(
        (a, -b) for (a, b), c in counts if a > 0 > b for _ in range(c))))
    if f.evaluate() != I:
        raise AssertionError("edge counts do not recombine to the input")
    return f
