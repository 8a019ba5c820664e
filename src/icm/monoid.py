"""The monoid of integrally closed monomial ideals under I*J = closure(IJ).

Everything here rests on NP(J*K) = NP(J) + NP(K), and three answers are
read off it with no search.  Each (x_i) is prime and least values add,
so I = x^m·R splits once into m_i copies of each (x_i) and an R with no
monomial factor, whose divisors have none either (_split_monomial).  An
NP(R) with one facet off the coordinate hyperplanes is a dilated simplex,
whose only lattice summands are its own dilates, so R is an atom when
its intercepts have gcd 1: Zariski's one-edge rule, in any dimension
(_proper_split).  NP(I^n) = n·NP(I), so a star power is one closure
(star_power).  In two variables factorization is unique (Zariski), so
one split sequence finds it.  In two variables, too, a Newton polygon
is its corner and its descending edges counted by lattice length, and a
Minkowski sum adds both, so divisibility and the cofactor are a
comparison and a difference of the two readings (divides).  In other
dimensions a divisor J of I has only I's facet normals, and each vertex
of NP(I) is a vertex of NP(J) plus one of the cofactor's: divisibility
and the cofactor are read off I's one facet description (_Dividend).  A
closed divisor J is fixed by its support vector h_J, its
least values on I's facet normals c, since NP(J) = {x >= 0 : c.x >=
h_J(c)} =: P(h_J); and h_{J*K} = h_J + h_K, since least values add under
Minkowski sums.  The vectors lie in NP(I)'s type cone (McMullen 1973),
where P(g) + P(h) = P(g + h), so for divisors J and K of I, J
star-divides K iff h_K - h_J is a divisor's vector.  The vectors are
read off one lattice point below each vertex of NP(I)
(_Dividend.divisors), so d >= 3 factorization is one finite search plus
vector arithmetic.  Searches carry an explicit budget; running out raises
BudgetExceededError, never a wrong negative.

Inputs are checked where they enter, by MonomialIdeal.  The ideals built
here skip those checks where they are sorted antichains by proof: star
and star_power close their raw points (pairwise sums, dilated
generators; the closure reads only the points' hull, so none is
minimalized), _Dividend's divisors and cofactors are walks of I's
facets, all built by newton._lattice_ideal, a 2D cofactor is read off
its polygon's columns by newton._closed_from_edges, and
_split_monomial's R is normalize_translation's shift.  The primes (x_i)
and closed_supersets' candidates keep the checks.
"""

from __future__ import annotations

from math import gcd, inf
from operator import add, le, mul, sub

from .errors import (BudgetExceededError, NotIntegrallyClosedError,
                     NotStarMultipleError)
from .ideals import (_Record, _check_dims, box_points, contains,
                     dominates, generator_box, minimalize,
                     normalize_translation, ord_valuation, principal_ideal)
from .newton import (_closed_from_edges, _closure_of_points,
                     _descending_edges, _facet_inequalities, _lattice_ideal,
                     _vertex_slacks, is_integrally_closed)

DEFAULT_BUDGET = 500_000


class SearchBudget:
    """One unit per lattice point tried (closed_supersets: per candidate;
    decompose_2d: one unit per basis copy)."""

    def __init__(self, limit):
        self.limit = limit
        self.examined = 0

    def spend(self, n=1):
        self.examined += n
        if self.limit is not None and self.examined > self.limit:
            raise BudgetExceededError(
                f"search budget of {self.limit} exceeded",
                examined=self.examined)


def _as_budget(budget):
    return budget if isinstance(budget, SearchBudget) else SearchBudget(budget)


def star(I, J):
    """The monoid operation: integral closure of the product.  The
    closure reads only NP(IJ) = NP(I) + NP(J), which the pairwise sums of
    the generators support, so the sums are closed as they are: no
    product is formed and none is minimalized."""
    _check_dims(I, J)
    return _closure_of_points(
        {tuple(map(add, g, h)) for g in I.gens for h in J.gens}, I.dim)


def star_power(I, n):
    """I star-multiplied by itself n times; the monoid has no inverses.

    NP(J*K) = NP(J) + NP(K), and P + ... + P = n·P for a convex P, so
    NP(I^n) = n·NP(I) = conv(n·g for g in I's generators) + R^d_+: the
    closure of the n-th powers of the generators, the unit at n = 0."""
    if n < 0:
        raise ValueError("the monoid has no inverses, so n must be >= 0")
    return _closure_of_points(
        {tuple(n * a for a in g) for g in I.gens}, I.dim)


def quotient_cancel(S, K):
    """Recover H from S = star(H, K), read off S's facets by divides."""
    H = divides(K, S)
    if H is None:
        raise NotStarMultipleError("ideal is not a star multiple of the divisor")
    return H


def closed_supersets(I, budget=None):
    """All integrally closed J >= I with minimal generators in box(I), each
    candidate charged to the budget; no library query walks them.  Such J
    are up-sets of the box containing I's exponents; the excluded region,
    a down-set of I's box complement, is enumerated by its antichain of
    maximal elements."""
    budget = _as_budget(budget)
    complement = sorted((p for p in box_points(generator_box(I))
                         if not contains(I, p)), key=lambda p: (sum(p), p))

    def rec(start, chosen, down):
        budget.spend()
        # a minimal point of box - down inside I is a generator of I
        J = minimalize(I.gens + tuple(p for p in complement
                                      if p not in down), I.dim)
        if is_integrally_closed(J):
            yield J
        for i in range(start, len(complement)):
            p = complement[i]
            # p follows each chosen c in (degree, p) order, so p <= c fails
            if not any(dominates(p, c) for c in chosen):
                yield from rec(i + 1, chosen + [p], down | {
                    q for q in complement if dominates(p, q)})

    yield from rec(0, [], set())


class _Dividend:
    """What a divisibility test reads of a closed ideal I: its facets
    c.x >= m, each vertex v of NP(I) with its slacks c.v - m, and its box.
    divides reads it for d != 2 (a 2D divides compares Newton polygon
    edges instead); the divisor search reads it in every dimension.

    For any J, let h_J(c) be the least value of c on J and K the lattice
    points of {x >= 0 : c.x >= m - h_J(c)}.  Then J·K lies in NP(I), hence
    in I, so star(J, K) == I iff every vertex of NP(I) lies in J·K; K is
    then the cofactor, J's facet normals are I's, and P(h_J) = {x >= 0 :
    c.x >= h_J(c)} is NP(J).  One facet description, I's, decides every J.
    """

    def __init__(self, I):
        self.facets = _facet_inequalities(I.gens, I.dim)
        self.box = generator_box(I)
        self.vertex_slacks = sorted(_vertex_slacks(I.gens, self.facets).items())

    def support(self, J):
        """h_J on I's facet normals if J star-divides I, else None.

        A vertex v of NP(I) lies in J·K iff some generator g <= v of J
        exceeds h_J on each facet by at most v's slack there.  The slack is
        0 on the facets tight at v, so g attains h_J on all of them: the
        normal fan of NP(J) is coarser than that of NP(I).
        """
        values = [[sum(map(mul, c, g)) for c, _ in self.facets]
                  for g in J.gens]
        h = tuple(map(min, zip(*values)))
        excess = [(g, [a - b for a, b in zip(row, h)])
                  for g, row in zip(J.gens, values)]
        if all(any(dominates(v, g) and all(map(le, e, slack))
                   for g, e in excess) for v, slack in self.vertex_slacks):
            return h
        return None

    def ideal(self, h):
        """The lattice points of P(h); a divisor's lie in I's box."""
        return _lattice_ideal([(c, t) for (c, _), t in zip(self.facets, h)],
                              self.box)

    def cofactor(self, h):
        """The K with star(J, K) == I for a J with h = support(J)."""
        return self.ideal([m - t for (_, m), t in zip(self.facets, h)])

    def divisors(self, budget):
        """h_J for each closed divisor J = ideal(h_J) of I, the unit and I
        included, each once.  A point q_v <= v is chosen per vertex v of
        NP(I), each point tried charged to the budget; per facet c, lo is
        the least c.q_v and hi the largest c.q_v - slack_v(c) so far, and a
        choice goes on while hi <= lo.  A full one yields h = lo.

        Exact by support's test alone: at a full choice each q_v exceeds h
        by at most v's slacks, so minimalize({q_v}), whose least values are
        h, divides I, and its closure is ideal(h).  A closed divisor J's
        witnesses in support make a choice with hi <= h_J <= lo at every
        prefix, and lo = h_J in full, as each facet is tight at a vertex,
        where the witness attains h_J.  The facets tight at v have rank d
        and c.q_v = h(c) on them, so h fixes q_v: no divisor comes twice.
        Unbounded faces need no condition, since support's test has none."""
        normals = [c for c, _ in self.facets]

        def rec(i, lo, hi):
            if i == len(self.vertex_slacks):
                yield lo
                return
            v, slack = self.vertex_slacks[i]
            for q in box_points(v):
                budget.spend()
                a = [sum(map(mul, c, q)) for c in normals]
                lo_q = tuple(map(min, lo, a))
                hi_q = tuple(map(max, hi, map(sub, a, slack)))
                if all(map(le, hi_q, lo_q)):
                    yield from rec(i + 1, lo_q, hi_q)

        yield from rec(0, (inf,) * len(normals), (-inf,) * len(normals))


def _require_closed(I, name="ideal"):
    """The monoid's elements are the closed ideals; a search over anything
    else would answer silently for an ideal outside it."""
    if not is_integrally_closed(I):
        raise NotIntegrallyClosedError(f"{name} must be integrally closed")


def _split_monomial(I):
    """I = x^m·R as the m_i copies of each prime (x_i), and R.

    An atom other than (x_i) has no monomial factor, which (x_i) would
    split off, and the least value of each x_i on NP adds under star; so
    every factorization of I is these copies plus one of R, and no divisor
    of R has a monomial factor."""
    R, m = normalize_translation(I)
    return [principal_ideal(tuple(int(k == i) for k in range(I.dim)))
            for i, e in enumerate(m) for _ in range(e)], R


def _proper_split(R, budget):
    """A split (J, K) of a non-unit R with no monomial factor into
    non-units, or None.  ord is additive and only the unit has ord 0, so
    ord(R) <= 1 is an atom.  So is an R whose NP has exactly one facet
    c.x >= m with m > 0, when its intercepts a_i = m / c_i (c_i > 0) have
    gcd 1.  The other facets are the coordinate ones, so NP(R) = {x >= 0 :
    c.x >= m}, with vertices a_i·e_i.  A closed divisor J has R's normals
    and no monomial factor (see _Dividend, _split_monomial), so NP(J) =
    {x >= 0 : c.x >= t} = (t/m)·NP(R) for some t <= m, and its vertices
    (t/m)·a_i·e_i are lattice points.  An integer combination of the a_i
    is 1, so t/m is an integer: J is the unit or R.  In two variables this
    is Zariski's one-edge rule.  A simplex with gcd > 1, x^2,xy,y^2 among
    them, and every other R take the first proper divisor the search
    finds."""
    if ord_valuation(R) <= 1:
        return None
    (c, m), *rest = [f for f in _facet_inequalities(R.gens, R.dim) if f[1]]
    if not rest and gcd(*(m // a for a in c if a)) == 1:
        return None
    dividend = _Dividend(R)
    whole = tuple(m for _, m in dividend.facets)
    for h in dividend.divisors(budget):
        if any(h) and h != whole:
            return dividend.ideal(h), dividend.cofactor(h)
    return None


def divides(I, J, budget=DEFAULT_BUDGET):
    """The unique K with star(I, K) == J, or None.

    Every star product is closed, so a J that is not has no divisor.  In
    two variables a Newton polygon is its corner plus its descending
    edges, and a Minkowski sum merges edges by slope, so NP(I) + NP(K) =
    NP(J) iff the corners add and edges(I) + edges(K) = edges(J) as
    multisets: K's corner and edges are J's less I's, and K is built from
    them (newton._descending_edges, newton._closed_from_edges).  Other
    dimensions read K off J's facets and vertices (see _Dividend).  By
    cancellation K is J : I either way, and no colon, product or search
    runs.  I need not be closed.  The budget keyword is kept because
    callers pass one to every monoid query; it is never spent.
    """
    _check_dims(I, J)
    if not is_integrally_closed(J):
        return None
    if I.dim == 2:
        (ix, iy), have = _descending_edges(I.gens)
        (jx, jy), edges = _descending_edges(J.gens)
        if ix > jx or iy > jy or not have <= edges:
            return None
        return _closed_from_edges((jx - ix, jy - iy), [
            (e, c - have[e]) for e, c in edges.items() if c > have[e]])
    dividend = _Dividend(J)
    h = dividend.support(I)
    return None if h is None else dividend.cofactor(h)


def is_star_irreducible(I, budget=DEFAULT_BUDGET):
    """No pair of non-unit closed ideals star-multiplies to I.  An I with a
    monomial factor is an atom iff it is some (x_i); else the answer is
    _proper_split's, exhaustive over the finite divisor search unless the
    ord or simplex rule needs none."""
    if I.is_unit:
        raise ValueError("the unit ideal is neither an atom nor composite")
    _require_closed(I)
    variables, R = _split_monomial(I)
    if variables:
        return variables == [I]
    return _proper_split(R, _as_budget(budget)) is None


class Factorization(_Record):
    # atoms: a tuple of ideals, canonically sorted by generator list
    __slots__ = ("base", "atoms")

    def __init__(self, base, atoms):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "atoms", atoms)

    def __len__(self):
        return len(self.atoms)


def factor_atoms(I, budget=DEFAULT_BUDGET):
    """One factorization of I into star-irreducible ideals.

    Deterministic: the copies of each (x_i) that _split_monomial splits
    off once, then _proper_split's splits of the rest from a work list,
    each the first proper divisor that _Dividend.divisors yields.  A
    divisor of a monomial-free ideal is monomial-free, and ord is additive,
    so every split leads to atoms.
    """
    if I.is_unit:
        raise ValueError("the unit ideal has no atomic factorization")
    _require_closed(I)
    budget = _as_budget(budget)
    atoms, R = _split_monomial(I)
    pending = [] if R.is_unit else [R]
    while pending:
        current = pending.pop()
        split = _proper_split(current, budget)  # None for an atom
        if split is None:
            atoms.append(current)
        else:
            pending += reversed(split)  # the first factor splits next
    atoms.sort(key=lambda a: a.gens)
    return Factorization(base=I, atoms=tuple(atoms))


def all_factorizations(I, budget=DEFAULT_BUDGET):
    """Every multiset of atoms whose star product is I, up to reordering.
    In d <= 2 it is unique (Zariski), and it is when I is a monomial:
    factor_atoms' answer.  Else I = x^m·R (_split_monomial), one divisor
    search runs on R and its answers are factored as support vectors
    (module docstring), the zero vector being the unit's: an atom's
    vector is no sum of two nonzero divisors' vectors, and a factorization
    of R is a multiset of atom vectors summing to h_R, each partial sum of
    which is a divisor's vector."""
    variables, R = _split_monomial(I)
    if I.dim <= 2 or R.is_unit:
        return {factor_atoms(I, budget).atoms}
    _require_closed(I)
    dividend = _Dividend(R)
    found = set(dividend.divisors(_as_budget(budget)))
    unit = (0,) * len(dividend.facets)

    def minus(h, g):
        return tuple(map(sub, h, g))

    atoms = sorted(((dividend.ideal(h), h) for h in found if h != unit and not
                    any(minus(h, g) in found for g in found - {unit, h})),
                   key=lambda atom: atom[0].gens)
    results = set()

    def rec(rest, start, chosen):
        if rest == unit:
            results.add(tuple(sorted(variables + chosen,
                                     key=lambda a: a.gens)))
        for i, (A, h) in enumerate(atoms[start:], start):
            if minus(rest, h) in found:
                rec(minus(rest, h), i, chosen + [A])

    rec(tuple(m for _, m in dividend.facets), 0, [])
    return results
