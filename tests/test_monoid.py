import copy
import gc
import pickle
import random
import tracemalloc
from itertools import product as iproduct
from math import gcd
from operator import add, gt, lt

import pytest

from icm import SearchBudget, monoid, newton
from icm.errors import (BudgetExceededError, DimensionMismatchError,
                        NotIntegrallyClosedError, NotStarMultipleError)
from icm.ideals import (MonomialIdeal, minimalize, ord_valuation,
                        principal_ideal, product, staircase, unit_ideal)
from icm.monoid import (_Dividend, all_factorizations, closed_supersets,
                        divides, factor_atoms, is_star_irreducible,
                        quotient_cancel, star, star_power)
from icm.newton import (_descending_edges, _facet_inequalities,
                        convex_chain, integral_closure,
                        is_integrally_closed)
from icm.parsing import parse_ideal
from icm.polytopes import colon_factorization_2d
from icm.properties import random_closed_ideal
from oracles import (closure_lp, divides_by_colon, divides_by_search,
                     divisors_by_points, factorizations_by_search,
                     irreducible_by_search, is_facet, minimal_by_pairs,
                     vertices_lp)


def ideal(*gens):
    gens = [tuple(g) for g in gens]
    return MonomialIdeal(len(gens[0]), tuple(sorted(gens)))


M2 = ideal((1, 0), (0, 1))
M2SQ = ideal((2, 0), (1, 1), (0, 2))
M3 = ideal((1, 0, 0), (0, 1, 0), (0, 0, 1))
J1 = parse_ideal("x^3,y^3,z^3,x*y,x*z,y*z")


class TestStar:
    def test_m_squared(self):
        assert star(M2, M2) == M2SQ

    def test_unit_identity(self):
        I = ideal((2, 0), (1, 2), (0, 3))
        assert star(I, unit_ideal(2)) == I

    def test_product_already_closed(self):
        assert (star(ideal((2, 0), (0, 1)), ideal((1, 0), (0, 1)))
                == ideal((3, 0), (1, 1), (0, 2)))

    def test_power(self):
        assert star_power(M2, 2) == M2SQ
        assert star_power(M2, 0) == unit_ideal(2)

    @pytest.mark.parametrize("corner", [(3, 2), (2, 1, 1)])
    def test_power_is_dilation(self, corner):
        # NP(I^n) = n·NP(I): one closure of the n-th powers of the
        # generators, against the n-fold star
        for I in closed_supersets(principal_ideal(corner), budget=None):
            folded = unit_ideal(I.dim)
            for n in range(5):
                assert star_power(I, n) == folded, (I, n)
                folded = star(folded, I)

    def test_negative_power_rejected(self):
        # the monoid has no inverses, so there is no I^-1 to power
        with pytest.raises(ValueError):
            star_power(M2, -1)

    @pytest.mark.parametrize("dim, top, cases", [(2, 4, 40), (3, 2, 15)])
    def test_against_product_and_lp_oracle(self, dim, top, cases):
        # star closes the raw pairwise sums; the oracles close the
        # minimalized product, by facets and by LP bisection, on inputs
        # that need not be closed
        rng = random.Random(30 + dim)

        def random_ideal():
            return minimal_by_pairs(
                [tuple(rng.randint(0, top) for _ in range(dim))
                 for _ in range(rng.randint(1, 3))], dim)

        for _ in range(cases):
            I, J = random_ideal(), random_ideal()
            S = star(I, J)
            assert S == integral_closure(product(I, J)), (I, J)
            assert S == closure_lp(product(I, J)), (I, J)

    @staticmethod
    def _seeded_2d(rng, top):
        """A 2D ideal of one of five kinds: random generators (often not
        closed), their closure, a closure times a monomial, the unit, or
        the closure of a chain whose steps come from a few shared slopes,
        so that two operands often share an edge's slope."""
        kind = rng.randrange(5)
        if kind == 3:
            return unit_ideal(2)
        if kind == 4:
            x, y, points = 0, 0, [(0, 0)]
            for _ in range(rng.randint(1, 4)):
                a, b = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (3, 2)])
                c = rng.randint(1, 3)
                x, y = x + a * c, y + b * c
                points.append((x, -y))
            shift = y + rng.randint(0, 3), rng.randint(0, 3)
            return integral_closure(minimal_by_pairs(
                [(px + shift[1], py + shift[0]) for px, py in points], 2))
        I = minimal_by_pairs(
            [(rng.randint(0, top), rng.randint(0, top))
             for _ in range(rng.randint(1, 5))], 2)
        if kind == 0:
            return I
        I = integral_closure(I)
        if kind == 2:
            m = rng.randint(1, 5), rng.randint(1, 5)
            I = MonomialIdeal(2, tuple(tuple(map(add, g, m))
                                       for g in I.gens))
        return I

    def test_2d_seeded_against_product_closure(self):
        # a 2D star adds corners and edge Counters; the oracle closes the
        # minimalized product of the generators
        rng = random.Random(3200)
        for _ in range(500):
            I, J = self._seeded_2d(rng, 40), self._seeded_2d(rng, 40)
            assert star(I, J) == integral_closure(product(I, J)), (I, J)

    def test_2d_power_is_the_folded_star_seeded(self):
        # star_power closes the n-th powers of the generators; the oracles
        # fold star and close the n-fold product
        rng = random.Random(3201)
        for _ in range(100):
            I = self._seeded_2d(rng, 12)
            folded, power = unit_ideal(2), unit_ideal(2)
            for n in range(5):
                assert star_power(I, n) == folded, (I, n)
                assert folded == integral_closure(power), (I, n)
                folded, power = star(folded, I), product(power, I)

    def test_2d_forms_no_pairwise_sums(self, monkeypatch):
        # a 2D star never reaches the closure of raw points, so it costs
        # the generators it returns: star(A, B) of the 1,001-generator
        # ideals A = closure(x^3000, y^1000) and
        # B = closure(x^2000, x^700*y^300, y^2500) answers with the point
        # closure patched to raise.  A star power closes its n-th powers, which in 2D reads
        # their polygon's edges: it answers with the facet walk patched to
        # raise
        A0 = parse_ideal("x^3000,y^1000")
        B0 = parse_ideal("x^2000,x^700*y^300,y^2500")
        A, B = integral_closure(A0), integral_closure(B0)
        expected = integral_closure(product(A0, B0))
        I = ideal((4, 0), (1, 1), (0, 3))

        def forbidden(*args):
            raise AssertionError("pairwise sums closed")

        def walked(*args):
            raise AssertionError("columns walked")

        with monkeypatch.context() as patch:
            patch.setattr(monoid, "_closure_of_points", forbidden)
            assert star(A, B) == expected
            assert len(expected.gens) == 2001
            assert star(I, M2) == ideal((5, 0), (2, 1), (1, 2), (0, 4))
        monkeypatch.setattr(newton, "_lattice_ideal", walked)
        assert star_power(I, 3) == star(star(I, I), I)
        assert star_power(A, 0) == unit_ideal(2)
        assert star_power(A, 2) == star(A, A)

    def test_retained_memory_stops_growing(self):
        # 3D closure and star build their facets through one cache,
        # bounded in entries: past the bound, more distinct queries retain
        # no more memory, however long the process runs.  The inputs are
        # the ideals of two incomparable points of [0, 3]^3; each pair
        # enters two keys, its ideal's and its star's sums
        cube = list(iproduct(range(4), repeat=3))
        pairs = [(p, q) for i, p in enumerate(cube) for q in cube[i + 1:]
                 if any(map(gt, p, q)) and any(map(lt, p, q))]
        random.Random(88).shuffle(pairs)

        def retained_after(batch):
            for p, q in batch:
                star(integral_closure(ideal(p, q)), M3)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        _facet_inequalities.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            full = retained_after(pairs[:600])
            last = retained_after(pairs[600:])
        finally:
            tracemalloc.stop()
        assert last - full < (full - start) / 4, (start, full, last)
        assert _facet_inequalities.cache_info().currsize <= 1024

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            star(M2, M3)


class TestQuotientCancel:
    def test_square_by_m(self):
        assert quotient_cancel(M2SQ, M2) == M2

    def test_by_unit(self):
        assert quotient_cancel(M2SQ, unit_ideal(2)) == M2SQ

    def test_3d_round_trip(self):
        I = ideal((2, 0, 0), (0, 1, 0), (0, 0, 1))
        K = ideal((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert quotient_cancel(star(I, K), K) == I

    def test_rejects_non_multiple(self):
        with pytest.raises(NotStarMultipleError):
            quotient_cancel(ideal((1, 0), (0, 1)), ideal((2, 0), (0, 1)))


class TestDivides:
    def test_m_divides_its_square(self):
        assert divides(M2, M2SQ) == M2

    def test_self_division_gives_unit(self):
        I = ideal((2, 0), (1, 2), (0, 3))
        assert divides(I, I) == unit_ideal(2)

    def test_absent_when_ord_would_decrease(self):
        budget = SearchBudget(1)
        assert divides(ideal((2, 0), (0, 1)), M2, budget=budget) is None
        assert budget.examined == 0

    def test_cofactor_validates(self):
        I = ideal((2, 0), (0, 1))
        J = ideal((1, 0), (0, 2))
        S = star(I, J)
        K = divides(I, S)
        assert K is not None and star(I, K) == S

    def test_against_search_oracle(self):
        # every closed ideal with generators in [0,3] x [0,2]
        closed = list(closed_supersets(principal_ideal((3, 2)), budget=None))
        for I in closed:
            for J in closed:
                assert divides(I, J) == divides_by_search(I, J), (I, J)

    def test_against_colon_oracle(self):
        # every pair of closed ideals with generators in [0,3] x [0,2],
        # and every pair of non-unit closed ones in [0,2] x [0,1] x [0,1]
        closed = list(closed_supersets(principal_ideal((3, 2)), budget=None))
        assert len(closed) ** 2 == 961
        closed_3d = [J for J in closed_supersets(principal_ideal((2, 1, 1)),
                                                 budget=None)
                     if not J.is_unit]
        assert len(closed_3d) == 48
        for family in (closed, closed_3d):
            for I in family:
                for J in family:
                    assert divides(I, J) == divides_by_colon(I, J), (I, J)

    def test_non_closed_dividend(self):
        # a star product is closed, so (x^2, y^2) has no divisor at all
        J = ideal((2, 0), (0, 2))
        for I in (unit_ideal(2), M2, J):
            assert divides(I, J) is None
            assert divides_by_colon(I, J) is None

    def test_non_closed_divisor(self):
        # (x^2, y^2) has the Newton polygon of (x, y)^2, so it divides
        # that square and the (x, y)^3 beyond it
        I = ideal((2, 0), (0, 2))
        for J in (M2SQ, star(M2SQ, M2)):
            K = divides(I, J)
            assert K is not None and star(I, K) == J
            assert K == divides_by_colon(I, J)
        assert divides(I, M2) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            divides(M2, ideal((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(DimensionMismatchError):
            divides_by_colon(M2, ideal((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_dimensions_checked_before_closedness(self):
        # a J of another dimension is a mismatch even when it is not
        # closed, which alone would give None
        J = ideal((2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert not is_integrally_closed(J)
        with pytest.raises(DimensionMismatchError):
            divides(M2, J)


def draw_2d(rng):
    """A seeded 2D ideal: the unit, a principal ideal, a thin (x^N, y^k)
    with N up to 3,000, or up to five generators in a box up to 12, closed
    or not."""
    kind = rng.randrange(5)
    if kind == 0:
        return unit_ideal(2)
    if kind == 1:
        return principal_ideal((rng.randint(0, 4), rng.randint(0, 4)))
    if kind == 2:
        return minimalize([(rng.randint(1, 3000), 0),
                           (0, rng.randint(1, 4))], 2)
    top = rng.choice([2, 4, 6, 12])
    I = minimalize([(rng.randint(0, top), rng.randint(0, top))
                    for _ in range(rng.randint(1, 5))], 2)
    return integral_closure(I) if kind == 3 else I


class TestDivides2d:
    """A 2D divides compares Newton polygon corners and edge counts and
    builds the cofactor from the difference."""

    def test_against_colon_oracle_seeded(self):
        rng = random.Random(4242)
        steps = set()
        answers = set()
        for _ in range(500):
            I, J = draw_2d(rng), draw_2d(rng)
            if rng.random() < 0.5:
                J = star(I, J)  # a multiple of I, so a K exists
            K = divides(I, J)
            assert K == divides_by_colon(I, J), (I, J)
            answers.add(K is not None)
            if K is not None:
                steps |= {(a > b) - (a < b)
                          for (a, b) in _descending_edges(K.gens)[1]}
        assert answers == {True, False}
        assert steps == {-1, 0, 1}  # edges with b > a, b = a and b < a

    def test_corner_must_fit(self):
        # (xy) has no edge, so its edge counts are at most any J's: only
        # the corner test rejects these J
        for J in (principal_ideal((0, 3)), principal_ideal((3, 0)),
                  ideal((2, 0), (0, 1)), M2SQ):
            assert divides(principal_ideal((1, 1)), J) is None, J
            assert divides_by_colon(principal_ideal((1, 1)), J) is None
        assert divides(principal_ideal((1, 1)), ideal((2, 1), (1, 2))) == M2

    def test_cofactor_builder_matches_walk(self):
        """newton._closed_from_edges against the walked closure of the
        polygon's corners, read off their facets, and the small ones
        against the LP closure, on seeded corners and edges.  Every fourth
        draw adds an edge whose run far exceeds its rise, or the
        transpose, so both of the builder's stepping branches run long."""
        rng = random.Random(77)
        for n in range(400):
            steps = {(a // gcd(a, b), b // gcd(a, b))
                     for _ in range(rng.randint(0, 4))
                     for a, b in [(rng.randint(1, 9), rng.randint(1, 9))]}
            if n % 4 == 0:
                a, b = rng.randint(10, 1000), rng.randint(1, 3)
                g = gcd(a, b)
                steps.add((a // g, b // g) if n % 8 else (b // g, a // g))
            edges = sorted(((e, rng.randint(1, 3)) for e in steps),
                           key=lambda e: -e[0][1] / e[0][0])
            x, y = rng.randint(0, 3), rng.randint(0, 3)
            corner = (x, y)
            y += sum(b * c for (_, b), c in edges)
            points = [(x, y)]
            for (a, b), c in edges:
                x, y = x + a * c, y - b * c
                points.append((x, y))
            built = newton._closed_from_edges(corner, edges)
            walked = newton._lattice_ideal(
                _facet_inequalities(tuple(points), 2),
                tuple(map(max, zip(*points))))
            assert built == walked, (corner, edges)
            if n % 10 == 1 and max(x for x, _ in points) <= 12:
                assert built == closure_lp(minimalize(points, 2)), edges

    def test_walks_no_column(self, monkeypatch):
        """A 2D divides walks no box, whether J is closed or not and
        whether I divides it or not; a 3D one still walks J's facets."""
        rng = random.Random(9)
        pairs = [(I, J) for _ in range(100)
                 for I, J in [(draw_2d(rng), draw_2d(rng))]
                 for J in (J, star(I, J))]
        M3SQ = star(M3, M3)
        walks = []

        def counted(*args):
            walks.append(args)
            return staircase(*args)

        monkeypatch.setattr(newton, "staircase", counted)
        answers = {divides(I, J) is not None for I, J in pairs}
        assert answers == {True, False} and walks == []
        assert divides(M3, M3SQ) == M3
        assert walks


class TestIrreducible:
    def test_3d_prime(self):
        assert is_star_irreducible(
            ideal((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_m_squared_reducible(self):
        assert not is_star_irreducible(M2SQ)

    def test_ord_two_atom_3d(self):
        J = ideal((3, 0, 0), (0, 3, 0), (0, 0, 3),
                  (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert is_star_irreducible(J)

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            is_star_irreducible(unit_ideal(2))

    def test_against_search_oracle_3d(self):
        closed = [J for J in closed_supersets(principal_ideal((2, 1, 1)),
                                              budget=None) if not J.is_unit]
        assert len(closed) == 48
        for I in closed:
            assert is_star_irreducible(I) == irreducible_by_search(I), I

    def test_2d_atom_needs_no_search(self):
        # one Newton polygon edge from (0, b) to (a, 0): an atom iff
        # gcd(a, b) = 1; the gcd-2 ideal is two atoms, one unit each
        assert is_star_irreducible(integral_closure(ideal((5, 0), (0, 4))),
                                   budget=SearchBudget(0))
        with pytest.raises(BudgetExceededError):
            is_star_irreducible(integral_closure(ideal((4, 0), (0, 6))),
                                budget=SearchBudget(0))

    def test_simplex_atoms_need_no_search(self):
        # NP(closure(x^a, y^b, z^c)) has one facet off the coordinate
        # hyperplanes, so it is an atom when ord <= 1 or gcd(a, b, c) = 1;
        # a gcd g > 1 simplex is g atoms, one unit each, and the answers
        # agree with the exhaustive oracle
        for a, b, c in iproduct(range(1, 4), repeat=3):
            I = integral_closure(ideal((a, 0, 0), (0, b, 0), (0, 0, c)))
            expected = irreducible_by_search(I)
            assert is_star_irreducible(I) == expected, I
            if min(a, b, c) == 1 or gcd(a, b, c) == 1:
                assert is_star_irreducible(I, budget=SearchBudget(0)), I
            else:
                assert not expected
                with pytest.raises(BudgetExceededError):
                    is_star_irreducible(I, budget=SearchBudget(0))

    def test_4d_simplex_atom_needs_no_search(self):
        I = integral_closure(parse_ideal("x^2,y^3,z^5,w^7"))
        assert is_star_irreducible(I, budget=SearchBudget(0))

    def test_2d_builds_no_ideal(self, monkeypatch):
        # a 2D answer is the count of the corner's variables plus the
        # edges' lengths, so it answers with the prime builder patched to
        # raise; seeded closed ideals in box (5, 5), half of them times
        # x^i·y^j, and the primes themselves, against the exhaustive search
        rng = random.Random(61)
        cases = [ideal((1, 0)), ideal((0, 1)), ideal((2, 0)), ideal((1, 1))]
        for n in range(120):
            pts = [(0, rng.randint(1, 3)), (rng.randint(1, 3), 0)] + [
                (rng.randint(1, 3), rng.randint(1, 3))
                for _ in range(rng.randint(0, 2))]
            i, j = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
                              ) if n % 2 else (0, 0)
            cases.append(integral_closure(minimalize(
                [(a + i, b + j) for a, b in pts], 2)))
        expected = [irreducible_by_search(I) for I in cases]
        assert {True, False} <= set(expected[4::2]) and True in expected[:4]

        def forbidden(*args):
            raise AssertionError("ideal built")

        monkeypatch.setattr(monoid, "principal_ideal", forbidden)
        assert [is_star_irreducible(I) for I in cases] == expected

    def test_budget_exceeded_is_distinct(self):
        # (x^9, xy, y^9) is two atoms, closure(x, y^8) and closure(x^8,
        # y), read off its two edges at one unit each, so a budget of one
        # stops at the second
        with pytest.raises(BudgetExceededError):
            is_star_irreducible(ideal((9, 0), (1, 1), (0, 9)),
                                budget=SearchBudget(1))


class TestFactorAtoms:
    def test_m_squared(self):
        f = factor_atoms(M2SQ)
        assert f.base == M2SQ
        assert f.atoms == (M2, M2)

    def test_ord_one_is_atom(self):
        I = ideal((2, 0), (0, 1))
        f = factor_atoms(I)
        assert f.atoms == (I,)

    def test_derived_split(self):
        f = factor_atoms(ideal((3, 0), (1, 1), (0, 2)))
        assert f.atoms == (ideal((1, 0), (0, 1)), ideal((2, 0), (0, 1)))

    def test_factorization_validates(self):
        I = ideal((4, 0), (2, 1), (1, 2), (0, 4))
        f = factor_atoms(I)
        prod = unit_ideal(2)
        for a in f.atoms:
            assert is_integrally_closed(a) and not a.is_unit
            assert is_star_irreducible(a)
            prod = star(prod, a)
        assert prod == I
        assert len(f) <= ord_valuation(I)

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            factor_atoms(unit_ideal(2))

    def test_high_power_needs_no_deep_stack(self):
        x = principal_ideal((1,))
        assert factor_atoms(principal_ideal((1500,))).atoms == (x,) * 1500

    def test_variable_factor_splits_without_search(self):
        # y * (x, y): y divides every generator, and the cofactor has ord 1
        I = ideal((1, 1), (0, 2))
        assert factor_atoms(I, budget=SearchBudget(0)).atoms == (
            ideal((0, 1)), M2)
        assert not is_star_irreducible(I, budget=SearchBudget(0))

    def test_one_prime_built_per_variable(self, monkeypatch):
        # the copies of each (x_i) share one ideal: x^1100·y·z builds
        # three, and a 2D ideal with corner (0, 0) builds none
        built = []

        def counted(exponent):
            built.append(exponent)
            return principal_ideal(exponent)

        monkeypatch.setattr(monoid, "principal_ideal", counted)
        x, y, z = ideal((1, 0, 0)), ideal((0, 1, 0)), ideal((0, 0, 1))
        atoms = factor_atoms(integral_closure(parse_ideal("x^1100*y*z"))).atoms
        assert atoms == (z, y) + (x,) * 1100
        assert sorted(built) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        built.clear()
        I = integral_closure(ideal((6, 0), (0, 4)))
        assert factor_atoms(I).atoms == (
            integral_closure(ideal((3, 0), (0, 2))),) * 2
        assert built == []

    def test_variable_factor_leaves_one_search(self):
        # z * A for an atom A: only the proof that A is an atom searches
        A = parse_ideal("x^3,y^3,z^3,x*y,x*z,y*z")
        alone, joint = SearchBudget(None), SearchBudget(None)
        assert is_star_irreducible(A, budget=alone)
        f = factor_atoms(ideal(*[(a, b, c + 1) for a, b, c in A.gens]),
                         budget=joint)
        assert f.atoms == (ideal((0, 0, 1)), A)
        assert joint.examined == alone.examined > 0


    @pytest.mark.parametrize("factors, examined, unique", [
        (["x,y,z^2", "x^2,y,z"], 11, True),
        (["x,y,z^2", "x^2,y,z", "x,y^2,z"], 28, False),
        (["x^2,y^3,z^5", "x^3,y^2,z^7", "x^5,y^7,z^2"], 28, True)],
        ids=["two-atoms", "not-unique", "three-simplices"])
    def test_3d_split_against_oracles(self, factors, examined, unique,
                                      monkeypatch):
        # a composite monomial-free R that no theorem reads is split at the
        # first proper divisor the search yields (_proper_split); the
        # answer is one of the exhaustive search's (6 and 10 generators)
        # or all_factorizations' one (37 generators), its units are
        # pinned, and a budget one unit lower raises
        parts = [integral_closure(parse_ideal(f)) for f in factors]
        I = fold(parts, 3)
        splits = []
        proper_split = monoid._proper_split
        monkeypatch.setattr(monoid, "_proper_split", lambda R, budget: (
            splits.append(proper_split(R, budget)) or splits[-1]))
        budget = SearchBudget(None)
        atoms = factor_atoms(I, budget=budget).atoms
        assert budget.examined == examined
        assert any(split is not None for split in splits)
        oracle = (all_factorizations(I) if len(I.gens) > 10
                  else factorizations_by_search(I))
        assert atoms in oracle and (len(oracle) == 1) == unique
        if unique:
            assert atoms == tuple(sorted(parts, key=lambda a: a.gens))
        with pytest.raises(BudgetExceededError):
            factor_atoms(I, budget=SearchBudget(examined - 1))


class TestRejectsUnclosed:
    """Queries on an ideal outside the monoid raise before any search."""

    @pytest.mark.parametrize("fn", [
        is_star_irreducible, factor_atoms, all_factorizations],
        ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("I", [
        ideal((2, 0), (0, 2)),
        ideal((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)),
        ideal((5, 0, 0), (1, 4, 0), (1, 0, 4), (2, 1, 1)),
    ], ids=["x2-y2", "x4-y4-z4-xyz", "x-times-x4-y4-z4-xyz"])
    def test_raises_without_search(self, fn, I):
        assert not is_integrally_closed(I)
        budget = SearchBudget(None)
        with pytest.raises(NotIntegrallyClosedError,
                           match="ideal must be integrally closed"):
            fn(I, budget=budget)
        assert budget.examined == 0

    def test_colon_factorization_2d(self):
        with pytest.raises(NotIntegrallyClosedError,
                           match="input must be integrally closed"):
            colon_factorization_2d(ideal((2, 0), (0, 2)))


class TestAllFactorizations:
    def test_two_variable_uniqueness(self):
        assert len(all_factorizations(M2SQ)) == 1

    def test_atom_factors_as_itself(self):
        I = ideal((2, 0), (0, 1))
        assert all_factorizations(I) == {(I,)}

    def test_multisets_validate(self):
        I = ideal((3, 0), (1, 1), (0, 2))
        for fz in all_factorizations(I):
            prod = unit_ideal(2)
            for a in fz:
                prod = star(prod, a)
            assert prod == I

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            all_factorizations(unit_ideal(2))

    def test_high_powers_need_no_search(self):
        # unique in one and two variables, and a monomial in any number
        # is its variables, so no level of the search runs
        x, y = principal_ideal((1,)), ideal((0, 1))
        assert all_factorizations(principal_ideal((1200,)),
                                  budget=SearchBudget(0)) == {(x,) * 1200}
        assert all_factorizations(principal_ideal((3, 1500)),
                                  budget=SearchBudget(0)) == {
            (y,) * 1500 + (ideal((1, 0)),) * 3}
        assert all_factorizations(principal_ideal((40, 1, 1)),
                                  budget=SearchBudget(0)) == {
            (ideal((0, 0, 1)), ideal((0, 1, 0))) + (ideal((1, 0, 0)),) * 40}

    @pytest.mark.parametrize("corner, count", [
        ((2, 1, 1), 48), ((2, 2, 1), 158), ((1, 1, 1, 1), 166)],
        ids=["2,1,1", "2,2,1", "1,1,1,1"])
    def test_against_search_oracle_3d(self, corner, count):
        # every non-unit closed ideal under the corner, against the
        # exhaustive search, which factors no support vectors
        closed = [J for J in closed_supersets(principal_ideal(corner),
                                              budget=None) if not J.is_unit]
        assert len(closed) == count
        for I in closed:
            assert all_factorizations(I) == factorizations_by_search(I), I

    def test_lipman_search_work(self):
        # pins one divisor search: 67 maps tried and translates yielded on
        # the bounded edges of NP(L) (365 lattice points by the old search)
        L = star(parse_ideal("x,y,z"),
                 parse_ideal("x^3,y^3,z^3,x*y,x*z,y*z"))
        budget = SearchBudget(None)
        found = all_factorizations(L, budget=budget)
        assert budget.examined == 67
        assert {len(fz) for fz in found} == {2, 3}

    def test_monomial_factor_adds_variables(self):
        # x·L: (x) joins each of L's factorizations, and the one search
        # runs on L, not on x·L
        L = star(M3, J1)
        x = ideal((1, 0, 0))
        alone, joint = SearchBudget(None), SearchBudget(None)
        expected = {tuple(sorted(fz + (x,), key=lambda a: a.gens))
                    for fz in all_factorizations(L, budget=alone)}
        assert all_factorizations(star(x, L), budget=joint) == expected
        assert joint.examined == alone.examined == 67

    def test_monomial_factor_leaves_one_search(self):
        alone, joint = SearchBudget(None), SearchBudget(None)
        assert all_factorizations(J1, budget=alone) == {(J1,)}
        I = star(ideal((2, 1, 0)), J1)
        assert all_factorizations(I, budget=joint) == {tuple(sorted(
            (ideal((0, 1, 0)), ideal((1, 0, 0)), ideal((1, 0, 0)), J1),
            key=lambda a: a.gens))}
        assert joint.examined == alone.examined == 13

    @staticmethod
    def count_reads(monkeypatch):
        """The ideals _atom_power reads, in order."""
        reads = []
        atom_power = monoid._atom_power
        monkeypatch.setattr(monoid, "_atom_power",
                            lambda R: reads.append(R) or atom_power(R))
        return reads

    def test_no_read_before_closedness(self, monkeypatch):
        # R is read (_atom_power) only after I's closedness check
        reads = self.count_reads(monkeypatch)
        with pytest.raises(NotIntegrallyClosedError,
                           match="ideal must be integrally closed"):
            all_factorizations(ideal((4, 0, 0), (0, 4, 0), (0, 0, 4),
                                     (1, 1, 1)))
        assert reads == []

    def test_reads_r_once(self, monkeypatch):
        # I is split once, and its R read once, not again by a second split
        reads = self.count_reads(monkeypatch)
        C = integral_closure(parse_ideal("x^4,y^4,z^4"))
        x = ideal((1, 0, 0))
        for I, primes in ((C, ()), (star(x, C), (x,))):
            reads.clear()
            assert all_factorizations(I) == {
                tuple(sorted(primes + (M3,) * 4, key=lambda a: a.gens))}
            assert reads == [C]

    def test_one_facet_description_with_a_monomial_factor(self,
                                                          monkeypatch):
        # I = x·R is proved closed through R, so R's one double
        # description serves the proof, _atom_power and _Dividend
        C = integral_closure(parse_ideal("x^4,y^4,z^4,x*y*z"))
        x = ideal((1, 0, 0))
        I = star(x, C)
        runs = []
        double_description = newton._double_description
        monkeypatch.setattr(newton, "_double_description",
                            lambda *a: runs.append(a) or
                            double_description(*a))
        for fn, answer in ((lambda I: factor_atoms(I).atoms, (C, x)),
                           (all_factorizations, {(C, x)})):
            _facet_inequalities.cache_clear()
            runs.clear()
            assert fn(I) == answer
            assert len(runs) == 1

    def test_lipman_walks_few_candidates(self):
        # the divisor search reads every divisor off the dividend's one
        # facet description, so no divisor gets one of its own
        L = star(parse_ideal("x,y,z"),
                 parse_ideal("x^3,y^3,z^3,x*y,x*z,y*z"))
        _facet_inequalities.cache_clear()
        budget = SearchBudget(None)
        found = all_factorizations(L, budget=budget)
        assert budget.examined == 67
        assert {len(fz) for fz in found} == {2, 3}
        assert _facet_inequalities.cache_info().misses == 1

    @pytest.mark.parametrize("I, count", [
        (star(J1, J1), 1), (star(star(M3, M3), J1), 2),
        (star_power(J1, 3), 1), (star_power(M3, 8), 1)],
        ids=["J1*J1", "m*m*J1", "J1^3", "m^8"])
    def test_large_3d_ideals_factor(self, I, count):
        # 15 to 45 generators, whose boxes hold 7,166 to over 200,000
        # antichains; the vertex search stays within a small budget
        found = all_factorizations(I, budget=SearchBudget(2000))
        assert len(found) == count
        if I == star(J1, J1):
            assert found == {(J1, J1)}
        for fz in found:
            prod = unit_ideal(3)
            for A in fz:
                assert is_star_irreducible(A)
                prod = star(prod, A)
            assert prod == I


def no_search(monkeypatch):
    """Make the divisor search raise, so a query that reaches it fails."""
    def boom(*args):
        raise AssertionError("the divisor search ran")
    monkeypatch.setattr(monoid, "_Dividend", boom)
    monkeypatch.setattr(monoid, "_proper_split", boom)


def fold(atoms, dim):
    prod = unit_ideal(dim)
    for A in atoms:
        prod = star(prod, A)
    return prod


class TestZariski2d:
    """A closed 2D ideal is its corner monomial times, per descending edge
    of primitive step (a, b) and lattice length c of its Newton polygon, c
    copies of closure(x^a, y^b); the three factorization queries read it
    off the polygon and never reach the divisor search."""

    def test_no_search_seeded(self, monkeypatch):
        # edges up to 40, from a point on each axis and up to three more,
        # every other ideal times x^i·y^j (i, j <= 3, not both 0); the
        # ideals in box (5, 5) against the exhaustive search, the others
        # by their star fold
        no_search(monkeypatch)
        rng = random.Random(31)
        searched = folded = 0
        for n in range(500):
            top = 5 if n % 2 else 40
            pts = [(0, rng.randint(1, top)), (rng.randint(1, top), 0)] + [
                (rng.randint(1, top), rng.randint(1, top))
                for _ in range(rng.randint(0, 3))]
            i, j = rng.choice([(p, q) for p in range(4) for q in range(4)
                               if p or q]) if n % 4 > 1 else (0, 0)
            I = integral_closure(minimalize(
                [(a + i, b + j) for a, b in pts], 2))
            budget = SearchBudget(None)
            atoms = factor_atoms(I, budget=budget).atoms
            assert all_factorizations(I) == {atoms}, I
            assert is_star_irreducible(I) == (len(atoms) == 1), I
            # one unit per atom off the axes, when there are two or more
            rest = sum(len(A.gens) > 1 for A in atoms)
            assert budget.examined == (rest if rest > 1 else 0), I
            if max(map(max, I.gens)) <= 5:
                assert factorizations_by_search(I) == {atoms}, I
                searched += 1
                continue
            for A in atoms:
                a, b = map(max, zip(*A.gens))
                assert A.gens in (((0, 1),), ((1, 0),)) or (
                    gcd(a, b) == 1
                    and A == integral_closure(ideal((a, 0), (0, b)))), A
            assert fold(atoms, 2) == I
            folded += 1
        assert searched > 150 and folded > 250

    def test_thousand_atoms(self):
        I = integral_closure(ideal((1000, 0), (0, 1000)))
        budget = SearchBudget(None)
        assert factor_atoms(I, budget=budget).atoms == (M2,) * 1000
        assert budget.examined == 1000
        budget = SearchBudget(999)
        with pytest.raises(BudgetExceededError):
            factor_atoms(I, budget=budget)
        assert budget.examined == 1000

    @pytest.mark.parametrize("fn", [
        is_star_irreducible, factor_atoms, all_factorizations],
        ids=lambda fn: fn.__name__)
    def test_non_closed_raises(self, fn, monkeypatch):
        no_search(monkeypatch)
        rng = random.Random(47)
        raised = 0
        for _ in range(200):
            I = minimalize([(rng.randint(0, 12), rng.randint(0, 12))
                            for _ in range(rng.randint(2, 5))], 2)
            if is_integrally_closed(I):
                continue
            budget = SearchBudget(None)
            with pytest.raises(NotIntegrallyClosedError,
                               match="ideal must be integrally closed"):
                fn(I, budget=budget)
            assert budget.examined == 0
            raised += 1
        assert raised > 50


class TestDilatedSimplex:
    """NP(R) = {x >= 0 : c.x >= m} whose intercepts have gcd g is g copies
    of the simplex {x >= 0 : c.x >= m/g}, R's only factorization."""

    @pytest.mark.parametrize("corner, g, shift", [
        ((2, 2, 2), 2, (0, 0, 0)), ((2, 4, 4), 2, (0, 0, 0)),
        ((3, 3, 6), 3, (0, 0, 0)), ((4, 4, 2), 2, (1, 0, 2)),
        ((100, 100, 100), 100, (0, 0, 0)), ((6, 9, 3, 12), 3, (0, 0, 0, 0)),
        ((2, 2, 2, 2), 2, (0, 1, 0, 0))],
        ids=["2,2,2", "2,4,4", "3,3,6", "x*z^2*(4,4,2)", "100,100,100",
             "6,9,3,12", "y*(2,2,2,2)"])
    def test_read_without_search(self, corner, g, shift, monkeypatch):
        dim = len(corner)
        axes = [tuple(a * (i == j) for j in range(dim))
                for i, a in enumerate(corner)]
        S = integral_closure(ideal(*[[x // g for x in p] for p in axes]))
        I = integral_closure(ideal(*[[x + t for x, t in zip(p, shift)]
                                     for p in axes]))
        variables = tuple(ideal(*[[int(i == j) for j in range(dim)]])
                          for i, t in enumerate(shift) for _ in range(t))
        expected = tuple(sorted(variables + (S,) * g, key=lambda a: a.gens))
        small = dim == 3 and max(map(sum, I.gens)) <= 4
        oracle = factorizations_by_search(I) if small else None
        no_search(monkeypatch)
        budget = SearchBudget(None)
        assert factor_atoms(I, budget=budget).atoms == expected
        assert budget.examined == g
        assert all_factorizations(I) == {expected}
        assert not is_star_irreducible(I)
        with pytest.raises(BudgetExceededError):
            factor_atoms(I, budget=SearchBudget(g - 1))
        if small:
            assert oracle == {expected}


def by_gens(pair):
    return tuple(J.gens for J in pair)


class TestDivisorPairs:
    @pytest.mark.parametrize("corner", [(3, 2), (2, 1, 1), (2, 2, 1),
                                        (1, 1, 1, 1)])
    def test_prune_keeps_every_divisor(self, corner):
        # every closed ideal with generators in the box, against the
        # antichain enumeration with each candidate divided by the colon
        closed = list(closed_supersets(principal_ideal(corner), budget=None))
        for I in closed:
            pairs = [(J, divides_by_colon(J, I))
                     for J in closed_supersets(I, budget=None)]
            dividend = _Dividend(I)
            assert sorted(((dividend.ideal(h), dividend.cofactor(h))
                           for h in dividend.divisors(SearchBudget(None))),
                          key=by_gens) == sorted(
                ((J, K) for J, K in pairs if K is not None), key=by_gens), I

    @staticmethod
    def edge_search_and_oracle(I):
        """The DFS's and the point oracle's support vectors, each checked
        for the same set with no repeats, and the budget each spent."""
        dividend = _Dividend(I)
        nodes, points = SearchBudget(None), SearchBudget(None)
        found = list(dividend.divisors(nodes))
        assert len(found) == len(set(found)), I
        assert set(found) == set(divisors_by_points(dividend, points)), I
        return nodes.examined, points.examined

    def test_edge_search_matches_point_oracle_seeded(self):
        # closed ideals in d = 2, 3, 4 in turn, exponents up to 3, every
        # fifth a star square; the 4D squares come from exponents up to 2,
        # as the oracle spends seconds below the vertices of larger ones
        rng = random.Random(29)
        for i in range(900):
            dim = 2 + i % 3
            square = i % 5 == 4
            I = integral_closure(minimalize(
                [tuple(rng.randint(0, 2 if square and dim == 4 else 3)
                       for _ in range(dim))
                 for _ in range(rng.randint(1, 4))], dim))
            self.edge_search_and_oracle(star(I, I) if square else I)

    @pytest.mark.parametrize("I, most", [
        (star(M3, J1), 100), (star_power(star(M3, J1), 2), 400),
        (star_power(star(M3, J1), 3), 1000), (star_power(J1, 6), 100),
        (ideal((0, 2, 5), (0, 3, 4), (0, 4, 3), (1, 2, 4), (1, 3, 3),
               (2, 1, 4), (2, 2, 3), (2, 3, 2), (3, 2, 2), (4, 1, 3),
               (5, 1, 2)), 100)],
        ids=["L", "L*L", "L^3", "J1^6", "cycle-checks"])
    def test_edge_search_matches_point_oracle_named(self, I, most):
        # the cost follows the divisors (10, 45, 136, 7 and 24), not the
        # vertices' boxes (365 to 12,945 points for the oracle); on the
        # last ideal, edges off the spanning tree reject maps that the
        # tree's steps and the translations allow, with t' < 0 or t' > l'
        nodes, points = self.edge_search_and_oracle(I)
        assert nodes <= most < points

    def test_2d_vertices_off_the_chain(self):
        # a 2D dividend reads NP(I)'s vertices off every generator's
        # slacks; they are the corners of its lower convex chain
        rng = random.Random(64)
        for _ in range(500):
            top = rng.choice([3, 6, 12, 40])
            I = integral_closure(minimalize(
                [(rng.randint(0, top), rng.randint(0, top))
                 for _ in range(rng.randint(1, 5))], 2))
            dividend = _Dividend(I)
            assert [v for v, _ in dividend.vertex_slacks] == convex_chain(
                I.gens), I


def least(J, c):
    """The least value of the linear form c on J's generators."""
    return min(sum(a * b for a, b in zip(c, g)) for g in J.gens)


class TestFacetsOfFactors:
    """The theorem the divisor prune rests on: NP(star(J, K)) is
    NP(J) + NP(K), so each facet normal of J is a facet normal of the
    product.  Each facet is checked by the rank oracle, not by newton."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_factor_facets_are_product_facets(self, dim):
        rng = random.Random(20 + dim)
        for _ in range(100):
            J = random_closed_ideal(rng, dim)
            K = random_closed_ideal(rng, dim)
            S = star(J, K).gens
            for c, _ in _facet_inequalities(J.gens, dim):
                m = min(sum(a * b for a, b in zip(c, p)) for p in S)
                assert is_facet(S, c, m), (J, K, c)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_least_values_add(self, dim):
        # factoring over support vectors rests on this: on each facet
        # normal of the product, the factors' least values add
        rng = random.Random(60 + dim)
        for _ in range(100):
            J = random_closed_ideal(rng, dim)
            K = random_closed_ideal(rng, dim)
            S = star(J, K)
            for c, m in _facet_inequalities(S.gens, dim):
                assert is_facet(S.gens, c, m), (J, K, c)
                assert least(J, c) + least(K, c) == m, (J, K, c)

    def test_lipman_divisors_have_distinct_vectors(self):
        # closed ideals with the same least values on the facet normals
        # of the ideal they divide have the same Newton polyhedron
        L = star(parse_ideal("x,y,z"),
                 parse_ideal("x^3,y^3,z^3,x*y,x*z,y*z"))
        facets = _facet_inequalities(L.gens, 3)
        assert all(is_facet(L.gens, c, m) for c, m in facets)
        found = [J for J in closed_supersets(L, budget=None)
                 if divides_by_colon(J, L) is not None]
        assert len(found) == 10
        assert len({tuple(least(J, c) for c, _ in facets)
                    for J in found}) == len(found)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_vertex_cones_are_coarsened(self, dim):
        # the divisibility test rests on this: each vertex of NP(star(J, K))
        # is a vertex of NP(J) plus one of NP(K), so one generator of J
        # minimizes every product facet tight at that vertex
        rng = random.Random(40 + dim)
        for _ in range(100):
            J = random_closed_ideal(rng, dim)
            K = random_closed_ideal(rng, dim)
            S = star(J, K)
            product_facets = []
            for c, m in _facet_inequalities(S.gens, dim):
                assert is_facet(S.gens, c, m), (J, K, c)
                product_facets.append((c, m))
            for v in vertices_lp(S.gens):
                tight = [c for c, m in product_facets
                         if sum(a * b for a, b in zip(c, v)) == m]
                assert any(
                    all(sum(a * b for a, b in zip(c, g))
                        == min(sum(a * b for a, b in zip(c, h))
                               for h in J.gens) for c in tight)
                    for g in J.gens), (J, K, v)


class TestBudgetIgnoresHistory:
    """A budgeted search gives the same answer or error, and spends the
    same budget, whatever ran earlier in the process."""

    @staticmethod
    def outcome(fn, I, limit):
        budget = SearchBudget(limit)
        try:
            result = fn(I, budget=budget)
        except BudgetExceededError:
            result = BudgetExceededError
        return result, budget.examined

    @pytest.mark.parametrize("fn, I, limit", [
        (is_star_irreducible, M2SQ, 1),
        (all_factorizations, ideal((3, 0), (1, 1), (0, 3)), 1),
        (all_factorizations, star(ideal((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                  ideal((2, 0, 0), (0, 1, 0), (0, 0, 1))), 2),
    ], ids=["is_star_irreducible", "all_factorizations",
            "all_factorizations-3d"])
    def test_same_before_and_after_unbudgeted_call(self, fn, I, limit):
        before = self.outcome(fn, I, limit)
        fn(I, budget=None)
        after = self.outcome(fn, I, limit)
        assert before == after == (BudgetExceededError, limit + 1)


class TestBudgetExceededError:
    @pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)),
                                       copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_survives_pickle_and_copy(self, clone):
        with pytest.raises(BudgetExceededError) as exc:
            is_star_irreducible(M2SQ, budget=1)
        again = clone(exc.value)
        assert type(again) is BudgetExceededError
        assert str(again) == str(exc.value)
        assert again.examined == exc.value.examined == 2


def below(a, b):
    return all(x <= y for x, y in zip(a, b))


def antichains(pts, start=0, chosen=()):
    """Every antichain of the points, the empty one included."""
    yield chosen
    for i in range(start, len(pts)):
        p = pts[i]
        if not any(below(p, c) or below(c, p) for c in chosen):
            yield from antichains(pts, i + 1, chosen + (p,))


class TestClosedSupersets:
    @staticmethod
    def box(I):
        return list(iproduct(*(range(max(g[k] for g in I.gens) + 1)
                               for k in range(I.dim))))

    def brute_force(self, I):
        """Every antichain in I's box whose ideal contains I and is closed,
        closedness judged by the LP closure."""
        found = []
        for gens in antichains(self.box(I)):
            if not gens:
                continue
            J = MonomialIdeal(I.dim, tuple(sorted(gens)))
            if (all(any(below(h, g) for h in J.gens) for g in I.gens)
                    and closure_lp(J) == J):
                found.append(J)
        return sorted(found, key=lambda J: J.gens)

    def antichain_count(self, I):
        """Antichains of the box points outside I, the empty one included."""
        outside = [p for p in self.box(I)
                   if not any(below(g, p) for g in I.gens)]
        return sum(1 for _ in antichains(outside))

    @pytest.mark.parametrize("gens", [
        [(3, 0), (1, 1), (0, 2)],
        [(5, 0), (0, 4)],
        [(3, 3)],
        [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(2, 0, 0), (1, 1, 0), (0, 0, 2)],
        [(2, 1, 1)],
    ], ids=["x3,xy,y2", "x5,y4", "x3y3", "x2,y2,z2", "x2,xy,z2", "x2yz"])
    def test_against_brute_force(self, gens):
        I = ideal(*gens)
        budget = SearchBudget(None)
        found = list(closed_supersets(I, budget))
        assert sorted(found, key=lambda J: J.gens) == self.brute_force(I)
        assert budget.examined == self.antichain_count(I)
