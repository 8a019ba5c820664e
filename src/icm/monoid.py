"""The monoid of integrally closed monomial ideals under I*J = closure(IJ).

In two variables factorization is unique and the atoms are (x), (y) and
closure(x^a, y^b), gcd(a, b) = 1 (Zariski), so neither needs a search.
Divisor searches, which still find each split, exploit three facts: any
star factor J of I satisfies J >= I (as ideals) with minimal generators
inside the generator box of I; ord is additive, so factor searches are
finite; and NP(I) is the Minkowski sum of its factors' Newton polyhedra,
so a star factor's facet normals are the product's, and each vertex of
NP(I) is a vertex of NP(J) plus one of NP(K).  Divisibility and the
cofactor are therefore both read off NP(I)'s one facet description
(_Dividend), and only divisors are walked for closedness; divides runs
the same test on its dividend.
All searches carry an explicit budget; running out raises
BudgetExceededError rather than returning a wrong negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd
from operator import le, mul

from .errors import (BudgetExceededError, DimensionMismatchError,
                     NotIntegrallyClosedError, NotStarMultipleError)
from .ideals import (MonomialIdeal, box_points, contains, dominates,
                     generator_box, minimalize, ord_valuation,
                     principal_ideal, product, translate, unit_ideal)
from .newton import (_facet_inequalities, convex_chain, integral_closure,
                     is_integrally_closed, lattice_generators, np_of,
                     vertices)

DEFAULT_BUDGET = 500_000


class SearchBudget:
    """Counts candidate ideals examined across one search."""

    def __init__(self, limit):
        self.limit = limit
        self.examined = 0

    def spend(self):
        self.examined += 1
        if self.limit is not None and self.examined > self.limit:
            raise BudgetExceededError(
                f"search budget of {self.limit} candidates exceeded",
                examined=self.examined)


def _as_budget(budget):
    return budget if isinstance(budget, SearchBudget) else SearchBudget(budget)


def star(I, J):
    """The monoid operation: integral closure of the product."""
    return integral_closure(product(I, J))


def star_power(I, n):
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


def _supersets(I, budget):
    """All J >= I with minimal generators in box(I), closed or not, each
    charged to the budget before it is yielded.

    Such J correspond to up-sets of the box containing the exponent set of
    I; the excluded region is a down-set of the box complement of I, which
    is enumerated by its antichain of maximal elements.
    """
    complement = sorted((p for p in box_points(generator_box(I))
                         if not contains(I, p)), key=lambda p: (sum(p), p))

    def rec(start, chosen, down):
        budget.spend()
        # a minimal point of box - down inside I is a generator of I
        yield minimalize(I.gens + tuple(p for p in complement
                                        if p not in down), I.dim)
        for i in range(start, len(complement)):
            p = complement[i]
            # p follows each chosen c in (degree, p) order, so p <= c fails
            if not any(dominates(p, c) for c in chosen):
                yield from rec(i + 1, chosen + [p], down | {
                    q for q in complement if dominates(p, q)})

    yield from rec(0, [], set())


def closed_supersets(I, budget=None):
    """All integrally closed J >= I with minimal generators in box(I)."""
    for J in _supersets(I, _as_budget(budget)):
        if is_integrally_closed(J):
            yield J


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
        h = list(map(min, zip(*values)))
        excess = [(g, [a - b for a, b in zip(row, h)])
                  for g, row in zip(J.gens, values)]
        if all(any(dominates(v, g) and all(map(le, e, slack))
                   for g, e in excess) for v, slack in self.vertex_slacks):
            return h
        return None

    def cofactor(self, h):
        """The K with star(J, K) == I for a J with h = support(J); its
        vertices are summands of vertices of NP(I), so it lies in I's box."""
        return MonomialIdeal(len(self.box), tuple(sorted(lattice_generators(
            [(c, m - t) for (c, m), t in zip(self.facets, h)], self.box))))


def _divisor_pairs(I, budget, ord_lo, ord_hi):
    """(J, K) with star(J, K) == I and ord_lo <= ord(J) <= ord_hi.

    Each candidate meets the ord test, then divisibility, read off I's
    facets and vertices (_Dividend), so only divisors of I reach the
    closedness walk; the cofactor is read off I's facets too, and no
    candidate gets a colon, product or closure.
    """
    dividend = _Dividend(I)
    for J in _supersets(I, budget):
        if ord_lo <= ord_valuation(J) <= ord_hi:
            h = dividend.support(J)
            if h is not None and is_integrally_closed(J):
                yield J, dividend.cofactor(h)


def _require_closed(I, name="ideal"):
    """The monoid's elements are the closed ideals; a search over anything
    else would answer silently for an ideal outside it."""
    if not is_integrally_closed(I):
        raise NotIntegrallyClosedError(f"{name} must be integrally closed")


def _proper_split(I, budget):
    """A split (J, K) of I into non-units, or None.  A variable x_i dividing
    I gives ((x_i), I / x_i) with no search.  Past that, a 2D I with one
    Newton polygon edge, from (0, b) to (a, 0), is closure(x^a, y^b): an
    atom iff gcd(a, b) = 1 (Zariski).  Else the first _divisor_pairs."""
    o = ord_valuation(I)
    for e in (tuple(int(k == i) for k in range(I.dim)) for i in range(I.dim)):
        if o > 1 and all(dominates(g, e) for g in I.gens):
            return principal_ideal(e), translate(I, tuple(-x for x in e))
    if (I.dim == 2 and len(convex_chain(I.gens)) == 2
            and gcd(I.gens[-1][0], I.gens[0][1]) == 1):
        return None
    return next(_divisor_pairs(I, budget, 1, o - 1), None) if o > 1 else None


def divides(I, J, budget=DEFAULT_BUDGET):
    """The unique K with star(I, K) == J, or None.

    Every star product is closed, so a J that is not has no divisor.  For
    a closed J, K is read off J's facets (see _Dividend): by cancellation
    it is J : I, and no colon, product or closure runs.  I need not be
    closed.  The budget keyword is kept because callers pass one to every
    monoid query; it is never spent.
    """
    if I.dim != J.dim:
        raise DimensionMismatchError(f"dimensions differ: {I.dim} vs {J.dim}")
    if not is_integrally_closed(J):
        return None
    dividend = _Dividend(J)
    h = dividend.support(I)
    return None if h is None else dividend.cofactor(h)


def is_star_irreducible(I, budget=DEFAULT_BUDGET):
    """No pair of non-unit closed ideals star-multiplies to I.

    Exhaustive over the finite divisor search space unless _proper_split
    needs none; ord(I) == 1 is an immediate yes since ord is additive and
    only the unit has ord 0.
    """
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
    the first proper divisor in closed_supersets' order; ord is additive.
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
    In d <= 2 it is unique (Zariski): factor_atoms' answer; else a search."""
    if I.dim <= 2:
        return {factor_atoms(I, budget).atoms}
    if I.is_unit:
        raise ValueError("the unit ideal has no atomic factorization")
    _require_closed(I)
    budget = _as_budget(budget)
    results = set()

    # Memos live for this call only, so the outcome under a given budget
    # does not depend on what earlier calls searched.  Every candidate is
    # closed by construction, so it needs no closedness test.
    @cache
    def irreducible(J):
        return _proper_split(J, budget) is None

    @cache
    def atom_divisors(current):
        """All (atom A, cofactor K) with star(A, K) == current."""
        return [(J, K) for J, K in _divisor_pairs(
                    current, budget, 1, ord_valuation(current))
                if irreducible(J)]

    def rec(current, chosen, min_key):
        if current.is_unit:
            results.add(tuple(chosen))
            return
        for A, K in atom_divisors(current):
            if A.gens >= min_key:
                rec(K, chosen + [A], A.gens)

    rec(I, [], ((),))
    return results
