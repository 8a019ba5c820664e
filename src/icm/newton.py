"""Newton polyhedra NP(I) = conv(points) + R^d_+ and integral closure.

Every question about a polyhedron (membership of rational points, tested
in integers, vertices, equality, lattice points for integral closure) is
answered from one exact half-space description that holds only the
facets, with primitive integer normals, built once per point set by
_facet_inequalities, whose cache holds a bounded number of descriptions.
2D facets are read off the lower convex chain; in every other dimension
they come from the double description method, fed the points extreme
first.  Vertices and equality are read off the facets, so no LP runs.  A
2D polygon is also its corner and its descending edges counted by
lattice length (_descending_edges), and every 2D closure (of an ideal or
of a raw point set, such as a star power's n-th powers) is built from
that reading alone by _closed_from_edges.  A Minkowski sum adds corners
and edge Counters, so a 2D star or colon factorization's product is
built from its summed reading, sorted steepest first by
_closed_from_counts, with no point sum formed; the generators, one per
column or row of an edge, are a sorted antichain by proof, and no facet
is built and no box is walked.  In other dimensions integral closure is a staircase walk of a
box, one line of columns at a time, that reads the line's lowest points
of NP off the facets with m > 0 and yields the minimal generators alone;
they are a sorted antichain by the walk's proof, so every such closure
(of an ideal, of a raw point set such as a d >= 3 star's pairwise sums,
of a divisor's facets) is built by _lattice_ideal and skips
MonomialIdeal's checks.  Closedness walks the box only for d != 2:
a 2D ideal is closed iff its box complement's inner corners lie outside
NP, a test of each on the facets.  The edge reading gives those facets
too, so a closed 2D ideal's corner, edges and closedness are one reading
(_closed_reading), which monoid's divides and 2D factorization take.  The
tests check the description against an independent rational LP and a
rank test of each facet.
"""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key, lru_cache
from itertools import product as iter_product
from math import gcd, inf, lcm
from operator import mul

from .ideals import (_Record, _check_dims, _check_integral, _check_points,
                     _minimal, _sorted_antichain, generator_box, staircase)


class NewtonPolyhedron(_Record):
    # points: a tuple of integer tuples, negative coordinates allowed (a
    # d >= 3 hull lifts p to (p, -sum(p))); the polyhedron is
    # conv(points) + R^d_+
    __slots__ = ("dim", "points")

    def __init__(self, dim, points):
        # a tuple of tuples is kept as given: np_of(I) then holds I.gens
        # itself, the key of the facet entry I's own queries filed
        if {type(points), *map(type, points)} != {tuple}:
            points = tuple(map(tuple, points))
        _check_integral(points, dim, "point")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", points)


def np_of(I):
    """Newton polyhedron of a monomial ideal; the generators support it."""
    return NewtonPolyhedron(I.dim, I.gens)


def member(P, q):
    """Exact test: q in conv(points) + R^d_+.  Each coordinate (an int,
    Fraction, float or Decimal) is read exactly by its as_integer_ratio,
    and q is scaled by the lcm of the denominators, so the facets are
    tested in integers."""
    q = tuple(q)
    _check_points((q,), P.dim, "point")
    ratios = [x.as_integer_ratio() for x in q]
    d = lcm(*(b for _, b in ratios))
    q = [a * (d // b) for a, b in ratios]
    return all(sum(map(mul, c, q)) >= m * d
               for c, m in _facet_inequalities(P.points, P.dim))


def vertices(P):
    """The unique minimal generating set of the polyhedron."""
    return set(_vertex_slacks(P.points, _facet_inequalities(P.points, P.dim)))


def _vertex_slacks(points, facets):
    """Each vertex v of conv(points) + R^d_+, mapped to its slacks c.v - m
    on the facets c.x >= m.

    The facets tight at a vertex meet in that vertex alone; at any other
    point they meet in a face that holds a vertex too, one tight on more
    facets.  So the points are grouped by their mask of tight facets and
    the masks compared group by group, not point by point: a group whose
    mask no other group's contains holds one point, a vertex.
    """
    groups = {}
    for p in set(points):
        slack = tuple(sum(map(mul, c, p)) - m for c, m in facets)
        tight = sum(1 << i for i, s in enumerate(slack) if s == 0)
        groups.setdefault(tight, (p, slack))
    return dict(vs for t, vs in groups.items()
                if not any(s & t == t for s in groups if s != t))


def reduce_points(P):
    """Same polyhedron supported only by its vertices."""
    return NewtonPolyhedron(P.dim, tuple(sorted(vertices(P))))


def mink_sum(P, Q):
    """Minkowski sum, supported by the minimal pairwise point sums, sorted.
    They are minimalized as points (ideals._minimal), not as an ideal's
    generators, since a polyhedron's points may be negative."""
    _check_dims(P, Q)
    sums = {tuple(a + b for a, b in zip(p, q)) for p in P.points for q in Q.points}
    return NewtonPolyhedron(P.dim, tuple(sorted(_minimal(sums))))


def np_equal(P, Q):
    """Equality as point sets.  A full-dimensional polyhedron has exactly
    one description by facets with primitive normals, so compare those."""
    _check_dims(P, Q)
    return (set(_facet_inequalities(P.points, P.dim))
            == set(_facet_inequalities(Q.points, Q.dim)))


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


def _descending_edges(points):
    """NP's corner (least x, least y) and the descending edges of its lower
    convex chain, from the sorted points: a Counter of each edge's
    primitive step (a, b), a, b > 0, to its lattice length, steepest
    first.  The chain starts at the first point.

    A point that is not lowest among those up to it dominates an earlier
    point, so it never lies on a descending edge, and the points need not
    be an antichain; collinear points are dropped, so no two edges share
    a step.  A constant coordinate needs no care: the chain then has no
    descending edge.  Two polygons' edges merge by slope in their
    Minkowski sum, so the Counters add, and the corners too.
    """
    chain = convex_chain(points)
    edges = Counter()
    for (x, y), (u, v) in zip(chain, chain[1:]):
        if v < y:
            g = gcd(u - x, y - v)
            edges[(u - x) // g, (y - v) // g] = g
    return (points[0][0], min(p[1] for p in points)), edges


def _edge_facets(corner, edges):
    """Facets of the 2D polyhedron with the corner (x, y) and the
    descending edges edges, a Counter of steps (a, b) to lengths c,
    steepest first, as _descending_edges reads them: the two axis facets
    and one per edge, with the normal (b, a), read off where the edge
    starts, at height y plus the b*c of it and the edges after it."""
    x, low = corner
    y = low + sum(b * c for (_, b), c in edges.items())
    facets = [((1, 0), x), ((0, 1), low)]
    for (a, b), c in edges.items():
        facets.append(((b, a), b * x + a * y))
        x, y = x + a * c, y - b * c
    return tuple(facets)


def _double_description(pts, dim):
    """Facets c.x >= m of conv(pts) + R^d_+, by the double description
    method (Motzkin et al. 1953; Fukuda and Prodon 1996).

    The valid inequalities form the cone {(c, t): c >= 0, c.p + t >= 0 for
    every point}, with t = -m; its extreme rays are the facets and the
    trivial ray (0, 1).  The axes and the first point cut out a simplicial
    cone; each further point cuts it by one half-space, and one pass sorts
    the rays by the sign of their value (c, t).(p, 1) there.  Rays on the
    nonnegative side stay, those on the cut taking its bit, and each
    adjacent pair across the cut gives a new ray on it; a point that makes
    no ray negative cuts nothing, so it pairs none.  A ray's zero set, a
    bitmask over the constraints so far, decides adjacency: two rays are
    adjacent when their common zero set has at least d - 1 bits and no
    third ray's zero set contains it.  Distinct extreme rays have distinct
    zero sets, so the two rays' own are the only ones that contain it iff
    the count of those that do stops at two.
    """
    axes = (1 << dim) - 1
    rays = [(tuple(int(i == j) for i in range(dim)) + (-pts[0][j],),
             axes & ~(1 << j) | 1 << dim) for j in range(dim)]
    rays.append(((0,) * dim + (1,), axes))
    for i, p in enumerate(pts[1:], dim + 1):
        bit = 1 << i
        q = p + (1,)
        pos, neg, kept = [], [], []
        for r, z in rays:
            v = sum(map(mul, r, q))
            if v > 0:
                pos.append((r, z, v))
                kept.append((r, z))
            elif v < 0:
                neg.append((r, z, v))
            else:
                kept.append((r, z | bit))
        if not neg:
            rays = kept
            continue
        zeros = [z for _, z in rays]
        rays = kept
        for r1, z1, v1 in pos:
            for r2, z2, v2 in neg:
                common = z1 & z2
                if common.bit_count() < dim - 1:
                    continue
                n = 0  # z1 and z2 hold common; a third means not adjacent
                for z in zeros:
                    if z & common == common:
                        n += 1
                        if n > 2:
                            break
                else:
                    r = tuple(v1 * b - v2 * a for a, b in zip(r1, r2))
                    g = gcd(*r)
                    rays.append((tuple(x // g for x in r), common | bit))
    return tuple((r[:dim], -r[dim]) for r, _ in rays if any(r[:dim]))


@lru_cache(maxsize=1024)
def _facet_inequalities(points, dim):
    """The facets c.x >= m (c >= 0 primitive, m = min of c over the points)
    of conv(points) + R^d_+, as a sorted tuple.  The polyhedron is
    full-dimensional, so its facets alone cut it out, and distinct facets
    have distinct normals.

    Cached by the points as given, so an ideal or polyhedron asked again
    (a dividend, a member test's polyhedron) builds its facets once; the
    bound on entries keeps a long-lived process's memory bounded.  2D
    facets come from the lower convex chain in O(n log n), which is many
    times faster than the general routine on the small polygons that
    dominate closure work; every other dimension, 1 included, takes the
    double description, fed the points with the largest coordinate first.
    Those lie far out along an axis, mostly vertices whose cuts shape the
    cone early, so the points after them cut few rays; the facets are the
    same in any order, and sorting them makes the tuple so too.
    """
    if dim == 2:
        return _edge_facets(*_descending_edges(sorted(set(points))))
    pts = sorted(set(points), key=lambda p: (-max(p), p))
    return tuple(sorted(_double_description(pts, dim)))


def lattice_generators(facets, box):
    """The minimal lattice points of {x >= 0 : c.x >= m for each (c, m) in
    facets} whose coordinates other than the walked one lie in box, by a
    staircase walk along the box's longest axis k.  A column u's lowest
    point is the largest ceil((m - c.u) / c_k) over the facets with
    c_k > 0, unless one with c_k = 0 excludes the whole column.  A facet
    with m <= 0, such as a coordinate facet x_j >= 0, holds on every
    point x >= 0 (c >= 0), so it is not read.  Each facet's steps c.u
    along a line are taken once; a line then costs one dot product of its
    prefix per facet and one pass over the steps."""
    k = max(range(len(box)), key=box.__getitem__)
    axes = [range(b + 1) for b in box]
    cols = axes[:k] + axes[k + 1:]
    along = list(map(sum, iter_product(*cols[-1:])))  # [0] if d = 1
    rows = [(u[:-1], c[k], m, [c_last * x for x in along])
            for c, m in facets if m > 0 for u in [c[:k] + c[k + 1:]]
            for c_last in [sum(u[-1:])]]

    def line(prefix):
        low = [0] * len(along)
        for c, ck, m, steps in rows:
            rest = m - sum(map(mul, c, prefix))
            low = ([v if v >= (w := -((s - rest) // ck)) else w
                    for v, s in zip(low, steps)] if ck
                   else [inf if rest > s else v for v, s in zip(low, steps)])
        return low

    return staircase(axes, k, line)


def _lattice_ideal(facets, box):
    """The ideal of lattice_generators(facets, box).  The walk yields a
    sorted antichain by its proof, so no check runs."""
    return _sorted_antichain(
        len(box), tuple(sorted(lattice_generators(facets, box))))


def integral_closure(I):
    """Closure of a monomial ideal: minimal lattice points of NP(I), which
    all lie in the generator box (_closure_of_points)."""
    return _closure_of_points(I.gens, I.dim)


def _closure_of_points(points, dim):
    """Closure of the ideal that the points generate, such as a d >= 3
    star's pairwise sums or a star power's n-th powers: NP reads only
    their hull, so no minimalizing pass runs.
    In 2D it is built from the polygon's corner and descending edges, with
    no facets and no walk.  Other dimensions walk the points' box, which
    holds the box of their minimal points, so the walk misses no
    generator."""
    if dim == 2:
        corner, edges = _descending_edges(sorted(set(points)))
        return _closed_from_edges(corner, edges.items())
    pts = tuple(points)
    return _lattice_ideal(_facet_inequalities(pts, dim),
                          tuple(map(max, zip(*pts))))


def _closed_from_edges(corner, edges):
    """The closed 2D ideal whose Newton polygon has the corner (x, y) and
    the descending edges edges, ((a, b), c) pairs with a, b > 0 steepest
    first: c steps (a, -b) each, from (x, y + sum of the b*c).  On an edge
    from (x, y), column x + s (0 < s <= a*c) has its lowest point at
    y - floor(b*s/a), a generator iff that floor rose at s.  The loop
    steps along the shorter side, so its cost is the number of generators:
    with a <= b the floor rises at every column; with a > b it rises by one
    at a time, so each row y - j (0 < j <= b*c) has one generator, in the
    first column that reaches it, x + ceil(j*a/b).  The points come out a
    sorted antichain."""
    x, y = corner[0], corner[1] + sum(b * c for (_, b), c in edges)
    gens = [(x, y)]
    for (a, b), c in edges:
        if a <= b:
            gens += [(x + s, y - b * s // a) for s in range(1, a * c + 1)]
        else:
            gens += [(x - (-j * a // b), y - j) for j in range(1, b * c + 1)]
        x, y = x + a * c, y - b * c
    return _sorted_antichain(2, tuple(gens))


# orders descending edges ((a, b), c) steepest first: b/a > b'/a' iff
# a*b' < a'*b; a Counter's distinct primitive steps never compare equal
_STEEPEST_FIRST = cmp_to_key(
    lambda e, f: e[0][0] * f[0][1] - f[0][0] * e[0][1])


def _closed_from_counts(corner, edges):
    """_closed_from_edges of the corner and a Counter (or any mapping) of
    descending edges, primitive steps (a, b) to lattice lengths in any
    order, such as a Minkowski sum's, whose Counter is the sum of its
    summands': the steps are sorted steepest first."""
    return _closed_from_edges(corner,
                              sorted(edges.items(), key=_STEEPEST_FIRST))


def _closed_2d(gens, facets):
    """Is the 2D ideal of the sorted generators, with NP's facets, closed?
    No inner corner (x_(i+1) - 1, y_i - 1) of its box complement lies in
    NP, each tested on the facets in integers (is_integrally_closed)."""
    return not any(all(a * (x - 1) + b * (y - 1) >= m for (a, b), m in facets)
                   for (_, y), (x, _) in zip(gens, gens[1:]))


def _closed_reading(gens):
    """The corner and descending edges of a closed 2D ideal's sorted
    generators (_descending_edges), or None if the ideal is not closed: its
    closedness test (_closed_2d) takes its facets from the same reading
    (_edge_facets), so the polygon is read once."""
    reading = _descending_edges(gens)
    return reading if _closed_2d(gens, _edge_facets(*reading)) else None


def is_integrally_closed(I):
    """Each generator of the closure is one of I.

    The closure's generators lie in I's box, the box's points outside I
    form a down-set and NP(I) is an up-set, so I is closed iff no maximal
    point of the box outside I lies in NP(I).  In 2D, with the generators
    sorted (x_0 < ... < x_n, y_0 > ... > y_n), those are the inner corners
    (x_(i+1) - 1, y_i - 1), each tested on the facets in integers, and
    (x_0 - 1, y_0) and (x_n, y_n - 1), which the axis facets x >= x_0 and
    y >= y_n exclude: no walk runs.  Other dimensions walk the box and stop
    at the first line with a generator of the closure that I lacks."""
    facets = _facet_inequalities(I.gens, I.dim)
    if I.dim == 2:
        return _closed_2d(I.gens, facets)
    gens = set(I.gens)
    return all(p in gens for p in lattice_generators(facets, generator_box(I)))
