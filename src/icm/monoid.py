"""The monoid of integrally closed monomial ideals under I*J = closure(IJ).

In two variables factorization is unique and the atoms are (x), (y) and
closure(x^a, y^b), gcd(a, b) = 1 (Zariski), so neither needs a search.
Divisor searches, which still find each split, exploit three facts: any
star factor J of I satisfies J >= I (as ideals) with minimal generators
inside the generator box of I; ord is additive, so factor searches are
finite; and NP(I) is the Minkowski sum of its factors' Newton polyhedra,
so every facet normal of a star factor is a facet normal of the product.
All searches carry an explicit budget; running out raises
BudgetExceededError rather than returning a wrong negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd

from .errors import (BudgetExceededError, NotIntegrallyClosedError,
                     NotStarMultipleError)
from .ideals import (MonomialIdeal, box_points, colon, contains, dominates,
                     generator_box, minimalize, ord_valuation,
                     principal_ideal, product, translate, unit_ideal)
from .newton import (convex_chain, facet_normals, integral_closure,
                     is_integrally_closed)

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
    """Recover H from S = star(H, K), constructively via the colon ideal."""
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


def _divisor_pairs(I, budget, ord_lo, ord_hi):
    """(J, K) with star(J, K) == I and ord_lo <= ord(J) <= ord_hi.

    The face of NP(J) + NP(K) in direction c is the sum of the faces of
    NP(J) and NP(K), so a facet normal of J is one of I; a J with any
    other facet normal is skipped without a colon or a closure.  The ord
    and facet tests are cheaper than the closedness walk, so they go first.
    """
    normals = facet_normals(I)
    for J in _supersets(I, budget):
        if (ord_lo <= ord_valuation(J) <= ord_hi
                and facet_normals(J) <= normals
                and is_integrally_closed(J)):
            K = divides(J, I)
            if K is not None:
                yield J, K


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

    By cancellation, closure(HK) : K = closure(H), so if I divides J at all,
    the colon J : I is the cofactor; no search runs.  The budget keyword is
    kept because callers pass one to every monoid query; it is never spent.
    """
    K = colon(J, I)
    return K if star(I, K) == J else None


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
