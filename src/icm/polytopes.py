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

from dataclasses import dataclass
from math import gcd

from .errors import BudgetExceededError, DimensionMismatchError
from .ideals import (MonomialIdeal, colon, minimalize, normalize_translation,
                     translate, unit_ideal)
from .monoid import _require_closed, star
from .newton import NewtonPolyhedron, convex_chain, integral_closure, vertices


@dataclass(frozen=True)
class IntegralPolytope:
    dim: int
    verts: tuple  # sorted tuple of integer points; exactly the vertex set

    def __post_init__(self):
        if not self.verts:
            raise ValueError("a polytope needs at least one vertex")
        for v in self.verts:
            if len(v) != self.dim:
                raise DimensionMismatchError(
                    f"vertex {v} has length {len(v)}, expected {self.dim}")


def hull(points, dim):
    """Vertex set of conv(points), exactly.

    In 2D the monotone chain gives it directly.  In any other d, p is a vertex
    iff it uniquely minimizes some c over the points, iff the lifted point
    (p, -sum(p)) uniquely minimizes (c + b, b) > 0 for a large b, iff that
    lifted point is a vertex of the Newton polyhedron of the lifted points.
    """
    pts = sorted(set(map(tuple, points)))
    if not pts:
        raise ValueError("cannot take the hull of an empty point set")
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatchError(
                f"point {p} has length {len(p)}, expected {dim}")
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
    if P.dim != Q.dim:
        raise DimensionMismatchError(f"dimensions differ: {P.dim} vs {Q.dim}")
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


@dataclass(frozen=True)
class PolytopeGroupElement:
    """Formal difference [pos] - [neg] of translation classes."""
    pos: IntegralPolytope
    neg: IntegralPolytope

    def __post_init__(self):
        if self.pos.dim != self.neg.dim:
            raise DimensionMismatchError("pos and neg must share a dimension")

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


@dataclass(frozen=True)
class BasisElement:
    kind: str  # "segment" | "triangle"
    v: tuple   # primitive direction, upper-half normalized

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


def _triangle_axis_edges(v):
    """Axis-direction edge counts contributed by Triangle(v), v = (a, b)."""
    a, b = v
    if a > 0:
        return {(1, 0): a, (0, 1): b}
    return {(1, 0): -a, (0, -1): b}


def decompose_2d(e, budget=None):
    """Integer coefficients over the segment/triangle basis.

    Every non-axis direction pair is covered by exactly one segment and one
    triangle hypotenuse, so those coefficients read off directly; axis
    directions are settled afterwards by the two axis segments.  The
    reconstruction identity is re-checked before returning; it adds one
    basis copy per unit of coefficient, and BudgetExceededError is raised
    before it starts if those copies number more than budget (None: no
    bound).
    """
    if e.dim != 2:
        raise DimensionMismatchError("basis decomposition is implemented in 2D")
    n = dict(edge_vector_counts(e.pos))
    for u, c in edge_vector_counts(e.neg).items():
        n[u] = n.get(u, 0) - c

    coeffs = {}
    axis_residual = {(1, 0): n.get((1, 0), 0), (-1, 0): n.get((-1, 0), 0),
                     (0, 1): n.get((0, 1), 0), (0, -1): n.get((0, -1), 0)}
    non_axis = {_upper_half(u) for u in n if u[0] != 0 and u[1] != 0}
    for v in sorted(non_axis):
        fwd = n.get(v, 0)
        bwd = n.get((-v[0], -v[1]), 0)
        # Triangle(v) has hypotenuse direction v when v[0] < 0 and -v when
        # v[0] > 0; Segment(v) contributes to both directions equally.
        if v[0] > 0:
            c_seg, c_tri = fwd, bwd - fwd
        else:
            c_seg, c_tri = bwd, fwd - bwd
        if c_seg:
            coeffs[BasisElement("segment", v)] = c_seg
        if c_tri:
            coeffs[BasisElement("triangle", v)] = c_tri
            for u, k in _triangle_axis_edges(v).items():
                axis_residual[u] = axis_residual.get(u, 0) - c_tri * k

    if (axis_residual[(1, 0)] != axis_residual[(-1, 0)]
            or axis_residual[(0, 1)] != axis_residual[(0, -1)]):
        raise AssertionError("edge multiset does not close up; invalid input")
    if axis_residual[(1, 0)]:
        coeffs[BasisElement("segment", (1, 0))] = axis_residual[(1, 0)]
    if axis_residual[(0, 1)]:
        coeffs[BasisElement("segment", (0, 1))] = axis_residual[(0, 1)]

    copies = sum(map(abs, coeffs.values()))
    if budget is not None and copies > budget:
        raise BudgetExceededError(
            f"reconstruction budget of {budget} basis copies exceeded",
            examined=copies)
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


@dataclass(frozen=True)
class IdealClassElement:
    """Formal fraction [num, den] modulo monomial (principal) classes."""
    num: MonomialIdeal
    den: MonomialIdeal

    def __post_init__(self):
        if self.num.dim != self.den.dim:
            raise DimensionMismatchError("num and den must share a dimension")

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
    """phi extended to formal differences of polytopes."""
    return ideal_class(phi(e.pos).num, phi(e.neg).num)


def ideal_to_polytope(I):
    """Bounded hull of the generators; phi of it recovers the class of I."""
    return hull(I.gens, I.dim)


# ---------------------------------------------------------------------------
# Colon-ideal factorization over the 2D basis


@dataclass(frozen=True)
class ColonFactorization:
    """I as closure(x^num_monomial * prod (x^a, y^b)) colon the same shape.

    Factors are (a, b) exponent pairs, one entry per copy.  For a closed 2D
    ideal the denominator is always trivial, den_monomial (0, 0) and no
    den_factors: by Zariski's theorem the ideal is a monomial times a star
    product of closures of (x^a, y^b).  The fields stay so the shape of an
    answer does not depend on that theorem.
    """
    base: MonomialIdeal
    num_monomial: tuple
    num_factors: tuple
    den_monomial: tuple
    den_factors: tuple

    def evaluate(self):
        num = _evaluate_product(self.num_monomial, self.num_factors)
        den = _evaluate_product(self.den_monomial, self.den_factors)
        return colon(num, den)


def _axis_factor_ideal(a, b):
    return integral_closure(minimalize({(a, 0), (0, b)}, 2))


def _evaluate_product(monomial, factors):
    result = unit_ideal(2)
    for a, b in factors:
        result = star(result, _axis_factor_ideal(a, b))
    return translate(result, monomial)


def colon_factorization_2d(I):
    """Express a closed 2D ideal as a colon of star products of
    closures of (x^a, y^b), by decomposing its generator polygon over the
    basis and pushing each basis element through phi.

    Only segments with direction (-a, b), a, b > 0 have a nontrivial
    phi-image; every other basis element lands on the identity class (this
    is computed per element, not assumed).  Such a segment's coefficient
    is its edge's lattice length, never negative, so the factors all go to
    the numerator.  The returned expression evaluates back to I exactly.
    """
    if I.dim != 2:
        raise DimensionMismatchError("colon factorization is implemented in 2D")
    _require_closed(I, "input")
    coeffs = decompose_2d(group_element(hull(I.gens, 2)))
    num_factors = []
    for B, c in coeffs.items():
        if not phi(B.polytope()).is_identity:
            num_factors.extend([(-B.v[0], B.v[1])] * c)
    base, monomial = normalize_translation(I)
    if _evaluate_product((0, 0), num_factors) != base:
        raise AssertionError("phi images do not recombine to the input class")
    return ColonFactorization(I, monomial, tuple(sorted(num_factors)),
                              (0, 0), ())
