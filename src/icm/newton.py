"""Newton polyhedra NP(I) = conv(points) + R^d_+ and integral closure.

Every question about a polyhedron (membership of rational points, vertices,
equality, lattice points for integral closure) is answered from one exact,
cached half-space description that holds only the facets, with primitive
integer normals.  2D facets are read off the lower convex chain, and a
coordinate constant over the points splits off as one facet.  Integral
closure walks the generator box column by column and reads each column's
lowest point of NP(I) off the facets.  The tests check the description
against an independent rational LP and a rank test of each facet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd

from .errors import DimensionMismatchError
from .ideals import box_points, generator_box, minimalize


@dataclass(frozen=True)
class NewtonPolyhedron:
    dim: int
    points: tuple  # sorted tuple of exponent tuples; conv(points) + R^d_+

    def __post_init__(self):
        if not self.points:
            raise ValueError("a Newton polyhedron needs at least one point")
        for p in self.points:
            if len(p) != self.dim:
                raise DimensionMismatchError(
                    f"point {p} has length {len(p)}, expected {self.dim}")


def np_of(I):
    """Newton polyhedron of a monomial ideal; the generators support it."""
    return NewtonPolyhedron(I.dim, I.gens)


def member(P, q):
    """Exact test: q in conv(points) + R^d_+ (rational q allowed)."""
    q = tuple(q)
    if len(q) != P.dim:
        raise DimensionMismatchError(f"point has length {len(q)}, expected {P.dim}")
    return _facet_member(P.points, P.dim, q)


def vertices(P):
    """The unique minimal generating set of the polyhedron."""
    pts = sorted(set(P.points))
    if len(pts) == 1:
        return set(pts)
    return {p for i, p in enumerate(pts)
            if not _facet_member(tuple(pts[:i] + pts[i + 1:]), P.dim, p)}


def reduce_points(P):
    """Same polyhedron supported only by its vertices."""
    return NewtonPolyhedron(P.dim, tuple(sorted(vertices(P))))


def mink_sum(P, Q):
    """Minkowski sum, supported by the minimal pairwise point sums."""
    if P.dim != Q.dim:
        raise DimensionMismatchError(f"dimensions differ: {P.dim} vs {Q.dim}")
    sums = {tuple(a + b for a, b in zip(p, q)) for p in P.points for q in Q.points}
    return NewtonPolyhedron(P.dim, minimalize(sums, P.dim).gens)


def np_equal(P, Q):
    """Equality as point sets: each polyhedron contains the other's points."""
    if P.dim != Q.dim:
        raise DimensionMismatchError(f"dimensions differ: {P.dim} vs {Q.dim}")
    return (all(_facet_member(Q.points, Q.dim, p) for p in P.points)
            and all(_facet_member(P.points, P.dim, q) for q in Q.points))


def facet_normals(I):
    """The set of primitive facet normals of NP(I)."""
    return frozenset(c for c, _ in _facet_inequalities(I.gens, I.dim))


def _int_det(mat):
    """Determinant of a small square integer matrix, by cofactor expansion."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    for j, v in enumerate(mat[0]):
        if v:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * v * _int_det(minor)
    return total


def _orthogonal_vector(vectors, dim):
    """Integer vector orthogonal to dim-1 given integer vectors (or zero)."""
    c = []
    for k in range(dim):
        minor = [row[:k] + row[k + 1:] for row in vectors]
        c.append((-1) ** k * _int_det(minor))
    return tuple(c)


def convex_chain(points):
    """Andrew's monotone chain over points given in sorted order: the lower
    convex chain from the first point to the last, with strict turns only,
    so collinear points are dropped.  Reversed input gives the upper chain.
    """
    chain = []
    for p in points:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (p[1] - oy) > (ay - oy) * (p[0] - ox):
                break  # a strict left turn at chain[-1]
            chain.pop()
        chain.append(p)
    return chain


def _chain_facets_2d(points):
    """Facets of a 2D polyhedron with no constant coordinate, from its
    sorted points: the two axis facets and one per descending edge of the
    lower convex chain.

    A point that is not lowest among those up to it dominates an earlier
    point, so it never lies on a descending edge; collinear points are
    dropped, so no two edges share a normal.
    """
    chain = convex_chain(points)
    facets = [((1, 0), points[0][0]), ((0, 1), min(p[1] for p in points))]
    for p, q in zip(chain, chain[1:]):
        if q[1] < p[1]:
            a, b = p[1] - q[1], q[0] - p[0]
            g = gcd(a, b)
            facets.append(((a // g, b // g), (a * p[0] + b * p[1]) // g))
    return tuple(facets)


@lru_cache(maxsize=65536)
def _facet_inequalities(points, dim):
    """The facets c.x >= m (c >= 0 primitive, m = min of c over the points)
    of conv(points) + R^d_+.  The polyhedron is full-dimensional, so its
    facets alone cut it out, and distinct facets have distinct normals.

    A coordinate k that is constant over the points gives the facet
    x_k >= a, and the other facets are those of the projection without k,
    lifted with c_k = 0.  2D facets come from the lower convex chain in
    O(n log n); the loop below finds the same ones from O(n^2) candidate
    normals, each checked in O(n).  Otherwise a facet's first tight point,
    with d-1 independent directions among differences to later points and
    the coordinate rays, spans it; a candidate normal is kept only when it
    supports at that base point.
    """
    pts = sorted(set(points))
    for k in range(dim):
        if dim > 1 and all(p[k] == pts[0][k] for p in pts):
            rest = _facet_inequalities(
                tuple(p[:k] + p[k + 1:] for p in pts), dim - 1)
            axis = tuple(int(i == k) for i in range(dim))
            return ((axis, pts[0][k]),) + tuple(
                (c[:k] + (0,) + c[k:], m) for c, m in rest)
    if dim == 2:
        return _chain_facets_2d(pts)
    axes = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    facets = {}
    for i, base in enumerate(pts):
        pool = [tuple(a - b for a, b in zip(p, base)) for p in pts[i + 1:]]
        pool.extend(axes)
        for combo in combinations(pool, dim - 1):
            c = _orthogonal_vector(list(combo), dim)
            if all(v <= 0 for v in c):
                c = tuple(-v for v in c)
            if not any(c) or any(v < 0 for v in c):
                continue
            g = gcd(*c)
            c = tuple(v // g for v in c)
            m = sum(a * b for a, b in zip(c, base))
            if c not in facets and all(
                    sum(a * b for a, b in zip(c, p)) >= m for p in pts):
                facets[c] = m
    return tuple(facets.items())


def _facet_member(points, dim, q):
    """Exact test: q in conv(points) + R^d_+, for integer or rational q."""
    for c, m in _facet_inequalities(points, dim):
        if sum(a * b for a, b in zip(c, q)) < m:
            return False
    return True


def _closure_gaps(I):
    """The lowest point of NP(I) outside I in each column of the box.

    Minimal generators of the closure lie in the box bounded by the
    componentwise maxima of the generators.  The box is walked column by
    column along its longest axis k: in the column over u, the points of I
    are those with x_k >= top, the least x_k of a generator below u, and
    the points of NP(I) those with x_k >= lo, read off the facets.  Every
    other gap in the column lies above (u, lo), so only it can be minimal.
    """
    box = generator_box(I)
    k = max(range(I.dim), key=box.__getitem__)
    facets = _facet_inequalities(I.gens, I.dim)
    for u in box_points(box[:k] + box[k + 1:]):
        top = min((g[k] for g in I.gens
                   if all(a <= b for a, b in zip(g[:k] + g[k + 1:], u))),
                  default=box[k] + 1)
        p = u[:k] + (0,) + u[k:]
        lo = 0
        for c, m in facets:
            rest = m - sum(a * b for a, b in zip(c, p))
            if c[k]:
                lo = max(lo, -(-rest // c[k]))
            elif rest > 0:
                break
        else:
            if lo < top:
                yield u[:k] + (lo,) + u[k:]


def integral_closure(I):
    """Closure of a monomial ideal: minimal lattice points of NP(I)."""
    added = list(_closure_gaps(I))
    if not added:
        return I
    return minimalize(I.gens + tuple(added), I.dim)


def is_integrally_closed(I):
    return next(_closure_gaps(I), None) is None
