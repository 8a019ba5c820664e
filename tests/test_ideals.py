import random
import re
from ast import literal_eval
from itertools import product as iproduct
from math import inf
from operator import ge, le

import pytest

from icm import newton
from icm.errors import DimensionMismatchError
from icm.ideals import (MonomialIdeal, colon, contains, generator_box,
                        intersection, minimalize, normalize_translation,
                        ord_valuation, principal_ideal, product, staircase,
                        translate, unit_ideal)
from icm.monoid import SearchBudget, _Dividend, star, star_power
from icm.newton import integral_closure, is_integrally_closed
from icm.polytopes import colon_factorization_2d
from oracles import colon_by_intersection, minimal_by_pairs


def ideal(*gens):
    gens = [tuple(g) for g in gens]
    return MonomialIdeal(len(gens[0]), tuple(sorted(gens)))


class TestConstruction:
    def test_rejects_empty_gens(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ())

    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 1), (2, 1)))

    def test_rejects_repeated_generators(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 0), (1, 0)))

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((-1, 0),))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            MonomialIdeal(2, ((1, 0, 0),))

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError) as info:
            MonomialIdeal(0, ((),))
        assert info.type is ValueError

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
    def test_rejects_non_integer_exponents(self, bad):
        # a float would reach the closure's integer arithmetic, and a
        # bool is no exponent, as an IdealDocument already rules
        with pytest.raises(ValueError, match=re.escape(
                f"non-integer coordinate in generator {(0, bad)}")):
            MonomialIdeal(2, ((0, bad), (2, 0)))
        with pytest.raises(ValueError, match="non-integer coordinate"):
            minimalize([(0, bad), (2, 0)], 2)

    def test_stores_list_input_as_tuples(self):
        # so the ideal equals and hashes as its tuple twin, and the facet
        # cache can key on it
        I = MonomialIdeal(2, [[0, 1], (1, 0)])
        assert I == ideal((0, 1), (1, 0))
        assert hash(I) == hash(ideal((0, 1), (1, 0)))
        assert is_integrally_closed(I)
        assert integral_closure(MonomialIdeal(2, [(0, 2), (2, 0)])) == ideal(
            (0, 2), (1, 1), (2, 0))

    def test_unit_flag(self):
        assert unit_ideal(3).is_unit
        assert not ideal((1, 0), (0, 1)).is_unit


class TestMinimalize:
    def test_drops_dominated(self):
        assert minimalize({(2, 1), (1, 1), (3, 0)}, 2) == ideal((1, 1), (3, 0))

    def test_origin_gives_unit(self):
        assert minimalize({(0, 0)}, 2) == unit_ideal(2)

    def test_keeps_antichain(self):
        assert minimalize({(1, 0), (0, 1), (1, 1)}, 2) == ideal((1, 0), (0, 1))

    def test_idempotent(self):
        pts = {(2, 1), (1, 1), (3, 0), (0, 4)}
        once = minimalize(pts, 2)
        assert minimalize(once.gens, 2) == once

    def test_against_pairwise_oracle(self):
        rng = random.Random(11)
        for _ in range(400):
            dim = rng.randint(1, 4)
            pts = [tuple(rng.randint(0, 4) for _ in range(dim))
                   for _ in range(rng.randint(1, 40))]
            assert minimalize(pts, dim) == minimal_by_pairs(pts, dim), pts

    @pytest.mark.parametrize("pts, dim", [
        ({(0, 0), (1, 1, 1)}, 2), ({(0, 0, 0), (1, 1)}, 3), ({(1,), (0, 3)}, 2)
    ], ids=["long-dropped", "short-dropped", "short-kept"])
    def test_rejects_wrong_length(self, pts, dim):
        """Checked before the sweep, so a long point is not compared on its
        first dim coordinates only, nor a short one on its own."""
        with pytest.raises(DimensionMismatchError):
            minimalize(pts, dim)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_sweep_and_antichain_check_against_pairwise_oracle(self, dim):
        """Seeded point sets with repeats, mixed degrees and at times the
        unit: minimalize keeps the oracle's points, and MonomialIdeal takes
        a sorted set exactly when the oracle keeps all of it, else names a
        generator and one it dominates."""
        rng = random.Random(500 + dim)
        for _ in range(300):
            top = rng.choice([1, 3, 8])
            pts = [tuple(rng.randint(0, top) for _ in range(dim))
                   for _ in range(rng.randint(1, 12))]
            pts += rng.choices(pts, k=rng.randint(0, 4))
            if rng.random() < 0.2:
                pts.append((0,) * dim)
            oracle = minimal_by_pairs(pts, dim)
            assert minimalize(pts, dim) == oracle, pts
            gens = tuple(sorted(set(pts)))
            if gens == oracle.gens:
                assert MonomialIdeal(dim, gens) == oracle
                continue
            with pytest.raises(ValueError) as exc:
                MonomialIdeal(dim, gens)
            named = re.fullmatch(r"generators are not an antichain: "
                                 r"(\(.*\)) dominates (\(.*\))",
                                 str(exc.value))
            g, h = map(literal_eval, named.groups())
            assert exc.type is ValueError and g in gens and h in gens
            assert g != h and all(a >= b for a, b in zip(g, h))


class TestProduct:
    def test_maximal_ideal_square(self):
        m = ideal((1, 0), (0, 1))
        assert product(m, m) == ideal((2, 0), (1, 1), (0, 2))

    def test_unit_identity(self):
        I = ideal((2, 0), (0, 1))
        assert product(I, unit_ideal(2)) == I

    def test_minimalizes_sums(self):
        assert (product(ideal((2, 0), (0, 1)), ideal((1, 0), (0, 1)))
                == ideal((3, 0), (1, 1), (0, 2)))

    def test_commutative_associative(self):
        I, J, K = ideal((2, 0), (0, 1)), ideal((1, 1)), ideal((1, 0), (0, 2))
        assert product(I, J) == product(J, I)
        assert product(product(I, J), K) == product(I, product(J, K))


class TestColon:
    def test_square_by_m(self):
        S = ideal((2, 0), (1, 1), (0, 2))
        assert colon(S, ideal((1, 0), (0, 1))) == ideal((1, 0), (0, 1))

    def test_by_unit(self):
        I = ideal((3, 0), (1, 1), (0, 2))
        assert colon(I, unit_ideal(2)) == I

    def test_derived_example(self):
        assert (colon(ideal((3, 0), (1, 1), (0, 2)), ideal((1, 0), (0, 1)))
                == ideal((2, 0), (0, 1)))

    def test_against_membership_oracle(self):
        # x^a in (I : J) iff x^a * g in I for every generator g of J
        I = ideal((3, 0), (1, 2), (0, 4))
        J = ideal((1, 1), (2, 0))
        Q = colon(I, J)
        for a in range(6):
            for b in range(6):
                expected = all(contains(I, (a + g[0], b + g[1]))
                               for g in J.gens)
                assert contains(Q, (a, b)) == expected

    def test_against_intersection_oracle(self):
        # seeded pairs in d = 1-4; some use exponents up to 10^6, where
        # only a handful of the box's values can be generator coordinates
        rng = random.Random(13)
        for case in range(400):
            dim = 1 + case % 4
            top = 10 ** 6 if case % 5 == 0 else 6
            I, J = (minimalize([tuple(rng.randint(0, top) for _ in range(dim))
                                for _ in range(rng.randint(1, 5))], dim)
                    for _ in range(2))
            assert colon(I, J) == colon_by_intersection(I, J), (I, J)

    def test_sparse_box(self):
        # the generator box has 10^18 points; the walk visits a 3x3 grid
        n = 10 ** 6
        I = ideal((n, 0, 0), (0, n, 0), (0, 0, n))
        assert colon(I, ideal((1, 1, 0))) == ideal(
            (n - 1, 0, 0), (0, n - 1, 0), (0, 0, n))

    def test_colon_of_product_contains_left_factor(self):
        I = ideal((2, 1), (0, 3))
        J = ideal((1, 0), (0, 2))
        Q = colon(product(I, J), J)
        assert all(contains(Q, g) for g in I.gens)


class TestStaircase:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_against_pairwise_oracle(self, dim):
        """Seeded up-sets of random points, walked along every axis k:
        each line is computed brute force, column by column, and the walk
        yields the oracle's minimal points.  Axes of equal length tie, and
        k = dim - 1 walks the last axis, so the lines run along dim - 2.
        The exact lines also meet staircase's contract: each is
        non-increasing along itself and at most, elementwise, each line one
        axis value back on a prefix axis."""
        rng = random.Random(600 + dim)
        for _ in range(60):
            top = rng.choice([1, 3, 6])
            pts = [tuple(rng.randint(0, top) for _ in range(dim))
                   for _ in range(rng.randint(1, 12))]
            axes = [sorted({p[j] for p in pts}) for j in range(dim)]
            for k in range(dim):
                cols = axes[:k] + axes[k + 1:]
                lines = {}

                def line(prefix, k=k, cols=cols, lines=lines):
                    lines[prefix] = [
                        min((p[k] for p in pts
                             if all(a >= b for a, b in zip(
                                 prefix + end, p[:k] + p[k + 1:]))),
                            default=inf)
                        for end in iproduct(*cols[-1:])]
                    return lines[prefix]

                walked = sorted(staircase(axes, k, line))
                assert walked == list(minimal_by_pairs(pts, dim).gens), (
                    pts, k)
                for prefix, own in lines.items():
                    assert all(map(ge, own, own[1:])), (pts, k, prefix)
                    for j, x in enumerate(prefix):
                        i = cols[j].index(x)
                        if i:
                            back = prefix[:j] + (cols[j][i - 1],) + prefix[
                                j + 1:]
                            assert all(map(le, own, lines[back])), (
                                pts, k, prefix, j)

    def test_closed_check_stops_at_the_first_line_with_a_new_generator(
            self, monkeypatch):
        """is_integrally_closed asks for no line past the first one that
        holds a generator of the closure missing from the ideal."""
        calls = []

        def counted(axes, k, line):
            return staircase(axes, k, lambda prefix: calls.append(prefix)
                             or line(prefix))

        monkeypatch.setattr(newton, "staircase", counted)
        rng = random.Random(31)
        firsts = []
        while len(firsts) < 20:
            top = rng.randint(3, 6)
            I = minimalize([(top, 0, 0), (0, rng.randint(1, top), 0),
                            (0, 0, rng.randint(1, top))]
                           + [tuple(rng.randint(0, top) for _ in range(3))
                              for _ in range(rng.randint(0, 2))], 3)
            box = generator_box(I)
            k = box.index(max(box))
            outer = [j for j in range(3) if j != k][0]
            missing = set(integral_closure(I).gens) - set(I.gens)
            if not missing:
                continue
            first = min(g[outer] for g in missing)
            calls.clear()
            assert not is_integrally_closed(I)
            assert [p for p, in calls] == list(range(first + 1)), I
            assert len(calls) < box[outer] + 1
            firsts.append(first)
        assert 0 in firsts and max(firsts) > 0


class TestContains:
    def test_dominating_point(self):
        assert contains(ideal((1, 0), (0, 1)), (3, 2))

    def test_gap_point(self):
        assert not contains(ideal((2, 0), (0, 2)), (1, 1))

    def test_unit_contains_origin(self):
        assert contains(unit_ideal(2), (0, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            contains(ideal((1, 0), (0, 1)), (1, 1, 1))


class TestOrd:
    def test_mixed_cubic_ideal(self):
        I = ideal((3, 0, 0), (0, 3, 0), (0, 0, 3),
                  (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert ord_valuation(I) == 2

    def test_ord_one_3d(self):
        assert ord_valuation(ideal((2, 0, 0), (0, 1, 0), (0, 0, 1))) == 1

    def test_unit_ord_zero(self):
        assert ord_valuation(unit_ideal(3)) == 0

    def test_additive_over_product(self):
        I = ideal((2, 1), (0, 3))
        J = ideal((1, 0), (0, 2))
        assert (ord_valuation(product(I, J))
                == ord_valuation(I) + ord_valuation(J))


class TestNormalizeTranslation:
    def test_shifts_common_factor(self):
        I2, m = normalize_translation(ideal((3, 1), (1, 2)))
        assert I2 == ideal((2, 0), (0, 1))
        assert m == (1, 1)

    def test_already_normalized(self):
        I = ideal((1, 0), (0, 1))
        assert normalize_translation(I) == (I, (0, 0))

    def test_principal_normalizes_to_unit(self):
        assert normalize_translation(principal_ideal((2, 2))) == \
            (unit_ideal(2), (2, 2))

    def test_round_trip(self):
        I = ideal((3, 1), (1, 2))
        I2, m = normalize_translation(I)
        assert translate(I2, m) == I

    def test_translate_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            translate(ideal((1, 0), (0, 1)), (1,))


class TestIntersection:
    def test_pairwise_max(self):
        assert (intersection(ideal((2, 0)), ideal((0, 3)))
                == ideal((2, 3)))

    def test_with_self(self):
        I = ideal((1, 2), (3, 0))
        assert intersection(I, I) == I


def test_generator_box():
    assert generator_box(ideal((3, 0), (1, 2))) == (3, 2)


class TestUncheckedOutputs:
    """Every output built without MonomialIdeal's checks, on seeded
    inputs, against the pairwise oracle: equal to it means sorted, free of
    repeats, an antichain, nonnegative and of the right length."""

    @staticmethod
    def assert_checked(*ideals):
        for I in ideals:
            assert I == minimal_by_pairs(I.gens, I.dim), I

    @pytest.mark.parametrize("dim, top, cases", [(2, 6, 60), (3, 4, 30),
                                                 (4, 3, 12)])
    def test_against_pairwise_oracle(self, dim, top, cases):
        rng = random.Random(100 + dim)

        def random_ideal():
            return minimalize([tuple(rng.randint(0, top) for _ in range(dim))
                               for _ in range(rng.randint(1, 4))], dim)

        for _ in range(cases):
            I, J = random_ideal(), random_ideal()
            C = integral_closure(I)
            self.assert_checked(C, colon(I, J), normalize_translation(I)[0],
                                star(I, J), star_power(I, rng.randint(0, 3)))
            dividend = _Dividend(C)
            for h in dividend.divisors(SearchBudget(None)):
                self.assert_checked(dividend.ideal(h), dividend.cofactor(h))
            if dim == 2:
                self.assert_checked(colon_factorization_2d(C).evaluate())
