"""Monomial ideals in d variables with exact integer arithmetic.

An exponent vector is a plain tuple of d nonnegative ints.  A monomial ideal
is stored by its minimal generators, which always form an antichain under
componentwise <=.  The unit ideal is generated by the zero vector; the zero
ideal is not representable (constructors reject empty generator sets).

Validation happens once, at the boundary: MonomialIdeal(...) checks every
generator it is given, the antichain property included, which costs
quadratic time in the worst case.  Domination has one owner, the degree
sweep _minimal, which MonomialIdeal's antichain check and minimalize
share.  Outputs that are sorted antichains by proof skip the checks
through _sorted_antichain: minimalize's sweep (its input points are
checked once, before it), the staircase walk's (colon here, integral
closure and the divisor ideals downstream) and normalize_translation's
shift of an ideal already checked.  The walk goes one line of columns at
a time, so its callers answer for a whole line at once: colon's shifted
copies of I cost |I|*|J| per line, not per column.
"""

from __future__ import annotations

from itertools import groupby
from itertools import product as iter_product
from math import inf, prod
from operator import attrgetter, ge

from .errors import DimensionMismatchError

# The largest ambient dimension.  Every ideal, Newton polyhedron and
# polytope is checked against it where it is built, and so is every
# dimension the parser infers or the command line reads, before anything
# of that length is allocated.  A d >= 3 facet description starts from d
# rays of d + 1 entries, so its memory grows as d^2 and its time faster.
# Through the command line (2-core VM, Python 3.11), the slowest short
# command measured, `divides "x,y" "x^2,y"`, took 0.63 s and 38 MB at
# --dim 1000 and 3.3 s and 108 MB at 2000; `closure "x,y"` at 20000 ran
# out of a 1.5 GB address space.
MAX_DIM = 1000


def dominates(a, b):
    """True iff a >= b componentwise."""
    return all(map(ge, a, b))


class _Record:
    """An immutable record whose fields a subclass names in __slots__ (two
    or more, so _fields returns a tuple) and sets in its own __init__ with
    object.__setattr__.  Records are equal when their classes and fields
    are, hash as the tuple of their fields, print as Class(field=value,
    ...) and pickle by their constructor, as frozen dataclasses do,
    without the import and class-building cost of dataclasses."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MonomialIdeal(_Record):
    # gens: a sorted tuple of exponent tuples, an antichain
    __slots__ = ("dim", "gens")

    def __init__(self, dim, gens):
        gens = tuple(map(tuple, gens))
        _check_generators(gens, dim)
        if any(g >= h for g, h in zip(gens, gens[1:])):
            raise ValueError("generators must be stored sorted, without repeats")
        dropped = set(gens).difference(_minimal(gens))
        if dropped:
            g = min(dropped)
            h = next(h for h in gens if dominates(g, h))
            raise ValueError(
                f"generators are not an antichain: {g} dominates {h}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gens", gens)

    @property
    def is_unit(self):
        return self.gens == ((0,) * self.dim,)

    def __repr__(self):
        return f"MonomialIdeal(dim={self.dim}, gens={list(self.gens)})"


def _sorted_antichain(dim, gens):
    """The ideal whose minimal generators are gens, with no check run.

    Only for gens that the caller has proved to be a nonempty, sorted
    antichain of nonnegative points of length dim; every other caller
    goes through MonomialIdeal's checks."""
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "dim", dim)
    object.__setattr__(ideal, "gens", gens)
    return ideal


def _minimal(points):
    """The <=-minimal ones of distinct points, swept by total degree.

    A point strictly above another has a larger degree, so each degree's
    points are compared only with the minimal points of lower degree."""
    minimal = []
    for _, same in groupby(sorted(points, key=sum), key=sum):
        minimal += [p for p in same
                    if not any(dominates(p, q) for q in minimal)]
    return minimal


def minimalize(points, dim):
    """Ideal generated by the given exponent vectors: keep the <=-minimal
    ones.  The points are checked once, as MonomialIdeal checks its
    generators, and the sweep's output is an antichain by proof."""
    pts = set(map(tuple, points))
    _check_generators(pts, dim)
    return _sorted_antichain(dim, tuple(sorted(_minimal(pts))))


def unit_ideal(dim):
    return MonomialIdeal(dim, ((0,) * dim,))


def principal_ideal(exponent):
    """Ideal generated by a single monomial."""
    return MonomialIdeal(len(exponent), (tuple(exponent),))


def _check_dims(I, J):
    if I.dim != J.dim:
        raise DimensionMismatchError(f"dimensions differ: {I.dim} vs {J.dim}")


def _check_generators(gens, dim):
    """MonomialIdeal's checks of dim and of each generator's length, type
    and signs, the antichain property aside."""
    if dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    _check_integral(gens, dim, "generator")
    for g in gens:
        if any(e < 0 for e in g):
            raise ValueError(f"negative exponent in generator {g}")


def _check_dim(dim):
    """ValueError if dim is above MAX_DIM."""
    if dim > MAX_DIM:
        raise ValueError(
            f"ambient dimension must be <= {MAX_DIM}, got {dim}")


def _check_points(points, dim, what):
    """ValueError if there are no points, DimensionMismatchError if one
    has a length other than dim; what names a point in the message."""
    if not points:
        raise ValueError(f"at least one {what} is needed")
    for p in points:
        if len(p) != dim:
            raise DimensionMismatchError(
                f"{what} {p} has length {len(p)}, expected {dim}")


def _check_integral(points, dim, what):
    """_check_dim, _check_points, and a ValueError naming the first point
    with a coordinate whose type is not int, so a float and a bool are
    rejected (as an IdealDocument rejects them).  Every constructor runs
    it; member's query point needs only _check_points."""
    _check_dim(dim)
    _check_points(points, dim, what)
    for p in points:  # plain loops: a generator per point cost 3x more
        for e in p:
            if type(e) is not int:
                raise ValueError(f"non-integer coordinate in {what} {p}")


def product(I, J):
    """Ideal product: pairwise generator sums, minimalized."""
    _check_dims(I, J)
    sums = {tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens}
    return minimalize(sums, I.dim)


def intersection(I, J):
    """Monomial-ideal intersection: componentwise max of generator pairs."""
    _check_dims(I, J)
    lcms = {tuple(max(a, b) for a, b in zip(g, h)) for g in I.gens for h in J.gens}
    return minimalize(lcms, I.dim)


def staircase(axes, k, line):
    """Minimal points of an up-set, walked along axis k; the coordinates
    of its minimal points lie on the given sorted axes.  The columns u
    (all axes but k) go in lines along the last of them, the lines in lex
    order of their prefix (the columns' other coordinates), and
    line(prefix) must list own(u), the least x_k of a point of the
    up-set in column u or inf, for each u on the line.  The set is an
    up-set, so own(u) <= own(u - e_j) for every j, u - e_j one axis value
    back: a line is non-increasing along itself and at most each line one
    step back on a prefix axis.  So own(u) is also the least x_k over all
    columns at or below u, which a running min would compute, and (u,
    own(u)) is minimal iff own(u) < own(u - e_j) for every j: below the
    least of the lines one step back at u, and below u's predecessor on
    its line.  Those lines lie at most one slab (one first coordinate)
    back, so only a ring of one slab of lines is held.  A line's minimal
    points are yielded together, so a caller that stops at one stops
    asking for lines.  With d = 1 there is one line, of the one column
    ()."""
    cols = axes[:k] + axes[k + 1:]
    outer, ends = cols[:-1], list(iter_product(*cols[-1:]))
    strides = [prod(map(len, outer[j + 1:])) for j in range(len(outer))]
    size = prod(map(len, outer[1:]))
    ring = [[inf] * len(ends)] * size
    for n, cell in enumerate(iter_product(*map(enumerate, outer))):
        below = [inf] * len(ends)
        for (i, _), s in zip(cell, strides):
            if i:
                below = [a if a < b else b
                         for a, b in zip(below, ring[(n - s) % size])]
        prefix = tuple(x for _, x in cell)
        own = line(prefix)
        yield from [u[:k] + (t,) + u[k:] for end, t, b, p
                    in zip(ends, own, below, [inf] + own)
                    if t < b and t < p for u in [prefix + end]]
        ring[n % size] = own


def colon(I, J):
    """Colon ideal I : J, the intersection over g in J of the ideals
    generated by the max(h - g, 0), h in I.  A coordinate of a minimal
    generator is one of those values, so the staircase walks only their
    grid.  On a line, a shifted ideal's least x_k is the running min of
    its points whose prefix lies below the line's, each placed at its
    last coordinate; the intersection takes the max over the shifted
    ideals.  A line costs |I|*|J| plus |J| passes over it, not the
    generator box."""
    _check_dims(I, J)
    shifted = [[tuple([a - b if a > b else 0 for a, b in zip(h, g)])
                for h in I.gens] for g in J.gens]
    axes = [sorted({s[j] for part in shifted for s in part})
            for j in range(I.dim)]
    k = max(range(I.dim), key=lambda j: len(axes[j]))
    cols = axes[:k] + axes[k + 1:]
    at = {end: i for i, end in enumerate(iter_product(*cols[-1:]))}
    parts = [[(u[:-1], at[u[-1:]], s[k]) for s in part
              for u in [s[:k] + s[k + 1:]]] for part in shifted]

    def line(prefix):
        """Least x_k on each column of the line, in every shifted ideal."""
        low = [0] * len(at)
        for part in parts:
            own = [inf] * len(at)
            for q, i, t in part:
                if t < own[i] and all(map(ge, prefix, q)):
                    own[i] = t
            top = inf
            low = [v if v >= (top := t if t < top else top) else top
                   for v, t in zip(low, own)]
        return low

    return _sorted_antichain(I.dim, tuple(sorted(staircase(axes, k, line))))


def contains(I, a):
    """True iff the monomial with exponent a lies in I."""
    a = tuple(a)
    _check_points((a,), I.dim, "point")
    return any(dominates(a, g) for g in I.gens)


def ord_valuation(I):
    """max{n : I is inside the n-th power of the maximal ideal}.

    For a monomial ideal this is the minimum total degree of a generator.
    """
    return min(sum(g) for g in I.gens)


def normalize_translation(I):
    """Canonical representative of the translation class of I.

    Returns (I', m) where m is the componentwise minimum over generators and
    I' has generators gens(I) - m.  I' is the monomial gcd-free form of I.
    Subtracting m <= every generator keeps them nonnegative, sorted and an
    antichain, so the shift skips the checks.
    """
    m = tuple(min(g[k] for g in I.gens) for k in range(I.dim))
    shifted = tuple(tuple(a - b for a, b in zip(g, m)) for g in I.gens)
    return _sorted_antichain(I.dim, shifted), m


def translate(I, m):
    """Multiply I by the monomial with exponent m (shift all generators)."""
    _check_points((m,), I.dim, "shift")
    shifted = tuple(sorted(tuple(a + b for a, b in zip(g, m)) for g in I.gens))
    return MonomialIdeal(I.dim, shifted)


def generator_box(I):
    """Componentwise maximum over generators; minimal generators of the
    integral closure always lie in the box [0, M]."""
    return tuple(max(g[k] for g in I.gens) for k in range(I.dim))


def box_points(bound):
    """All lattice points p with 0 <= p <= bound componentwise."""
    return iter_product(*(range(b + 1) for b in bound))
