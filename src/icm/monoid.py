"""The monoid of integrally closed monomial ideals under I*J = closure(IJ).

In two variables factorization is unique and the atoms are (x), (y) and
closure(x^a, y^b), gcd(a, b) = 1 (Zariski), so neither needs a search.
NP(J*K) = NP(J) + NP(K), so J's facet normals are I's and each vertex of
NP(I) is a vertex of NP(J) plus one of the cofactor's: divisibility and
the cofactor are read off I's one facet description (_Dividend).  A
closed divisor J is fixed by its support vector h_J, its least values on
I's facet normals c, since NP(J) = {x >= 0 : c.x >= h_J(c)} =: P(h_J);
and h_{J*K} = h_J + h_K, since least values add under Minkowski sums.  The
vectors lie in NP(I)'s type cone (McMullen 1973), where P(g) + P(h) =
P(g + h), so for divisors J and K of I, J star-divides K iff h_K - h_J is
a divisor's vector.  The vectors are read off one lattice point below
each vertex of NP(I) (_Dividend.divisors), so d >= 3 factorization is one
finite search plus vector arithmetic.  Searches carry an explicit budget;
running out raises BudgetExceededError, never a wrong negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf
from operator import le, mul, sub

from .errors import (BudgetExceededError, NotIntegrallyClosedError,
                     NotStarMultipleError)
from .ideals import (MonomialIdeal, _check_dims, box_points, contains,
                     dominates, generator_box, minimalize, ord_valuation,
                     principal_ideal, product, translate, unit_ideal)
from .newton import (_facet_inequalities, convex_chain, integral_closure,
                     is_integrally_closed, lattice_generators, np_of,
                     vertices)

DEFAULT_BUDGET = 500_000


class SearchBudget:
    """One unit per lattice point tried (closed_supersets: per candidate)."""

    def __init__(self, limit):
        self.limit = limit
        self.examined = 0

    def spend(self):
        self.examined += 1
        if self.limit is not None and self.examined > self.limit:
            raise BudgetExceededError(
                f"search budget of {self.limit} exceeded",
                examined=self.examined)


def _as_budget(budget):
    return budget if isinstance(budget, SearchBudget) else SearchBudget(budget)


def star(I, J):
    """The monoid operation: integral closure of the product."""
    return integral_closure(product(I, J))


def star_power(I, n):
    """I star-multiplied by itself n times; the monoid has no inverses."""
    if n < 0:
        raise ValueError("the monoid has no inverses, so n must be >= 0")
    result = unit_ideal(I.dim)
    for _ in range(n):
        result = star(result, I)
    return result


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

    For any J, let h_J(c) be the least value of c on J and K the lattice
    points of {x >= 0 : c.x >= m - h_J(c)}.  Then J·K lies in NP(I), hence
    in I, so star(J, K) == I iff every vertex of NP(I) lies in J·K; K is
    then the cofactor, J's facet normals are I's, and P(h_J) = {x >= 0 :
    c.x >= h_J(c)} is NP(J).  One facet description, I's, decides every J.
    """

    def __init__(self, I):
        self.facets = _facet_inequalities(I.gens, I.dim)
        self.box = generator_box(I)
        self.vertex_slacks = [
            (v, [sum(map(mul, c, v)) - m for c, m in self.facets])
            for v in sorted(vertices(np_of(I)))]

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
        return MonomialIdeal(len(self.box), tuple(sorted(lattice_generators(
            [(c, t) for (c, _), t in zip(self.facets, h)], self.box))))

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


def _proper_split(I, budget):
    """A split (J, K) of I into non-units, or None.  A variable x_i dividing
    I gives ((x_i), I / x_i) with no search.  Past that, a 2D I with one
    Newton polygon edge, from (0, b) to (a, 0), is closure(x^a, y^b): an
    atom iff gcd(a, b) = 1 (Zariski).  Else the first proper divisor's."""
    o = ord_valuation(I)
    for e in (tuple(int(k == i) for k in range(I.dim)) for i in range(I.dim)):
        if o > 1 and all(dominates(g, e) for g in I.gens):
            return principal_ideal(e), translate(I, tuple(-x for x in e))
    if (o <= 1 or I.dim == 2 and len(convex_chain(I.gens)) == 2
            and gcd(I.gens[-1][0], I.gens[0][1]) == 1):
        return None
    dividend = _Dividend(I)
    whole = tuple(m for _, m in dividend.facets)
    for h in dividend.divisors(budget):
        if any(h) and h != whole:
            return dividend.ideal(h), dividend.cofactor(h)
    return None


def divides(I, J, budget=DEFAULT_BUDGET):
    """The unique K with star(I, K) == J, or None.

    Every star product is closed, so a J that is not has no divisor.  For
    a closed J, K is read off J's facets (see _Dividend): by cancellation
    it is J : I, and no colon, product or closure runs.  I need not be
    closed.  The budget keyword is kept because callers pass one to every
    monoid query; it is never spent.
    """
    _check_dims(I, J)
    if not is_integrally_closed(J):
        return None
    dividend = _Dividend(J)
    h = dividend.support(I)
    return None if h is None else dividend.cofactor(h)


def is_star_irreducible(I, budget=DEFAULT_BUDGET):
    """No pair of non-unit closed ideals star-multiplies to I: exhaustive
    over the finite divisor search unless _proper_split needs none; ord(I)
    == 1 is an immediate yes since ord is additive and only the unit has
    ord 0."""
    if I.is_unit:
        raise ValueError("the unit ideal is neither an atom nor composite")
    _require_closed(I)
    return _proper_split(I, _as_budget(budget)) is None


@dataclass(frozen=True)
class Factorization:
    base: MonomialIdeal
    atoms: tuple  # canonically sorted by generator list

    def __len__(self):
        return len(self.atoms)


def factor_atoms(I, budget=DEFAULT_BUDGET):
    """One factorization of I into star-irreducible ideals.

    Deterministic: each split is _proper_split's, a variable dividing I or
    the first proper divisor that _Dividend.divisors yields; ord is additive.
    """
    if I.is_unit:
        raise ValueError("the unit ideal has no atomic factorization")
    _require_closed(I)
    budget = _as_budget(budget)
    atoms, pending = [], [I]
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
    In d <= 2 it is unique (Zariski): factor_atoms' answer.  Else one
    divisor search runs and its answers are factored as support vectors
    (module docstring), the zero vector being the unit's: an atom's
    vector is no sum of two nonzero divisors' vectors, and a factorization
    is a multiset of atom vectors summing to h_I, each partial sum of which
    is a divisor's vector."""
    if I.dim <= 2:
        return {factor_atoms(I, budget).atoms}
    if I.is_unit:
        raise ValueError("the unit ideal has no atomic factorization")
    _require_closed(I)
    dividend = _Dividend(I)
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
            results.add(chosen)
        for i, (A, h) in enumerate(atoms[start:], start):
            if minus(rest, h) in found:
                rec(minus(rest, h), i, chosen + (A,))

    rec(tuple(m for _, m in dividend.facets), 0, ())
    return results
