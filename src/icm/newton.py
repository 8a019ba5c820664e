"""Newton polyhedra NP(I) = conv(points) + R^d_+ and integral closure.

Every question about a polyhedron (membership of rational points, vertices,
equality, lattice points for integral closure) is answered from one exact,
cached half-space description with integer normals.  The tests check it
against an independent rational LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd

from .errors import DimensionMismatchError
from .ideals import box_points, contains, generator_box, minimalize


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


def _int_det(mat):
    """Determinant of a small square integer matrix, by cofactor expansion."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
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


@lru_cache(maxsize=65536)
def _facet_inequalities(points, dim):
    """Valid half-spaces c.x >= m (c >= 0 componentwise) whose intersection
    is exactly conv(points) + R^d_+.

    Candidates come from every base point together with dim-1 spanning
    directions chosen among differences to other points and coordinate rays;
    every facet arises this way, and extra valid inequalities are harmless.
    """
    axes = [tuple(1 if i == k else 0 for i in range(dim)) for k in range(dim)]
    seen = set()
    facets = []
    for base in points:
        pool = [tuple(a - b for a, b in zip(p, base)) for p in points if p != base]
        pool.extend(axes)
        for combo in combinations(pool, dim - 1):
            c = _orthogonal_vector(list(combo), dim)
            if all(v == 0 for v in c):
                continue
            if all(v <= 0 for v in c):
                c = tuple(-v for v in c)
            if any(v < 0 for v in c):
                continue
            g = gcd(*c)
            c = tuple(v // g for v in c)
            if c in seen:
                continue
            seen.add(c)
            m = min(sum(a * b for a, b in zip(c, p)) for p in points)
            facets.append((c, m))
    return tuple(facets)


def _facet_member(points, dim, q):
    """Exact test: q in conv(points) + R^d_+, for integer or rational q."""
    for c, m in _facet_inequalities(points, dim):
        if sum(a * b for a, b in zip(c, q)) < m:
            return False
    return True


def _closure_gaps(I):
    """Box points outside I that lie in NP(I).

    Minimal generators of the closure lie in the box bounded by the
    componentwise maxima of the generators, so only that box is searched.
    """
    return (p for p in box_points(generator_box(I))
            if not contains(I, p) and _facet_member(I.gens, I.dim, p))


def integral_closure(I):
    """Closure of a monomial ideal: minimal lattice points of NP(I)."""
    added = list(_closure_gaps(I))
    if not added:
        return I
    return minimalize(I.gens + tuple(added), I.dim)


def is_integrally_closed(I):
    return next(_closure_gaps(I), None) is None
