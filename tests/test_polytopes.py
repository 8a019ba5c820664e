import pickle
import random
import re
from math import gcd

import pytest

from icm import newton, polytopes
from icm.errors import (BudgetExceededError, DimensionMismatchError,
                        NotIntegrallyClosedError)
from icm.ideals import MonomialIdeal, unit_ideal
from icm.monoid import closed_supersets, factor_atoms, star
from icm.newton import integral_closure
from icm.polytopes import (BasisElement, IdealClassElement, IntegralPolytope,
                           PolytopeGroupElement, basis_segment, basis_triangle,
                           class_equal, class_equal_ideal,
                           colon_factorization_2d, decompose_2d,
                           edge_vector_counts, group_add, group_element,
                           group_negate, height, hull, ideal_class,
                           ideal_to_polytope, normalize_polytope, p_mink_sum,
                           phi, phi_group, point_polytope, shadow,
                           translate_polytope)
from oracles import hull_vertices_lp, mink_sum_lp


def ideal(*gens):
    gens = [tuple(g) for g in gens]
    return MonomialIdeal(len(gens[0]), tuple(sorted(gens)))


# The 94 basis elements with |v_1|, v_2 <= 6.
SMALL_DIRECTIONS = [(a, b) for b in range(7) for a in range(-6, 7)
                    if gcd(a, b) == 1 and (b > 0 or a > 0)]
SMALL_BASIS = ([BasisElement("segment", v) for v in SMALL_DIRECTIONS]
               + [BasisElement("triangle", v) for v in SMALL_DIRECTIONS
                  if v[0] and v[1]])


class TestHull:
    def test_drops_interior_point(self):
        P = hull({(0, 0), (2, 0), (0, 2), (1, 1)}, 2)
        assert P.verts == ((0, 0), (0, 2), (2, 0))

    def test_keeps_point_above_chord(self):
        P = hull({(2, 0), (1, 2), (0, 3)}, 2)
        assert P.verts == ((0, 3), (1, 2), (2, 0))

    def test_segment_and_point(self):
        assert hull({(0, 0), (1, 1), (2, 2)}, 2).verts == ((0, 0), (2, 2))
        assert hull({(5, 7)}, 2).verts == ((5, 7),)

    def test_3d(self):
        P = hull({(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                  (0, 0, 0)}, 3)
        assert len(P.verts) == 4

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError) as info:
            hull([], 2)
        assert info.type is ValueError

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            hull({(0, 0), (1, 0, 0)}, 2)

    def test_polytope_rejects_empty_vertices(self):
        with pytest.raises(ValueError) as info:
            IntegralPolytope(2, ())
        assert info.type is ValueError

    def test_polytope_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            IntegralPolytope(2, ((0, 0), (1,)))

    @pytest.mark.parametrize("point", [
        (1.5, 0), (1.0, 0), (True, 0), (0, False), (1.5, 0, 0), (0, 0, True)],
        ids=["float", "integral-float", "bool-equal-to-a-vertex", "false",
             "float-3d", "bool-3d"])
    def test_rejects_non_integer_points(self, point):
        # every input point is checked before repeats merge, so (True, 0)
        # beside (1, 0) is caught, and the error names the point as given,
        # not the lifted one a d >= 3 reduction builds
        dim = len(point)
        pts = [point] + [tuple(int(i == k) for i in range(dim))
                         for k in range(dim)] + [(0,) * dim]
        message = re.escape(f"non-integer coordinate in point {point}")
        for build in (hull, lambda pts, dim: IntegralPolytope(dim, pts)):
            with pytest.raises(ValueError, match=message):
                build(pts, dim)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_against_lp_oracle(self, dim):
        rng = random.Random(29 + dim)
        for _ in range(150):
            pts = [tuple(rng.randint(-3, 5) for _ in range(dim))
                   for _ in range(rng.randint(1, 8))]
            p, step = rng.choice(pts), [rng.randint(-2, 2) for _ in range(dim)]
            pts += [tuple(a + k * s for a, s in zip(p, step))
                    for k in range(rng.randint(0, 3))]  # collinear run
            pts += rng.choices(pts, k=rng.randint(0, 2))  # repeats
            assert set(hull(pts, dim).verts) == hull_vertices_lp(pts), pts


def raw_points(rng, kind):
    """2D points as a caller may pass them to the constructor: unsorted,
    with repeats and non-vertices.  kind 0 is a point, 1 a segment, 2 a
    collinear run and 3 a scatter with a collinear run; coordinates go
    negative."""
    pts = [(rng.randint(-6, 6), rng.randint(-6, 6))]
    if kind == 3:
        pts += [(rng.randint(-6, 6), rng.randint(-6, 6))
                for _ in range(rng.randint(1, 5))]
    if kind >= 1:
        p, step = rng.choice(pts), (rng.randint(-3, 3), rng.randint(-3, 3))
        pts += [(p[0] + k * step[0], p[1] + k * step[1])
                for k in range(1, 2 if kind == 1 else rng.randint(3, 5))]
    pts += rng.choices(pts, k=rng.randint(0, 2))
    rng.shuffle(pts)
    return tuple(pts)


def raw_polygon(rng, kind):
    """The polytope of raw_points(rng, kind), reduced by the constructor."""
    return IntegralPolytope(2, raw_points(rng, kind))


class TestBoundary:
    """IntegralPolytope reduces its points to their exact vertex set once;
    _polytope, which skips that, gets only vertex sets exact by proof."""

    @staticmethod
    def raw_point_lists():
        rng = random.Random(71)
        lists = [(2, raw_points(rng, k % 4)) for k in range(80)]
        for dim in 1, 3, 4:
            for _ in range(25):
                pts = [tuple(rng.randint(-3, 4) for _ in range(dim))
                       for _ in range(rng.randint(1, 7))]
                lists.append((dim, tuple(pts + rng.choices(pts, k=2))))
        return lists

    def test_constructor_reduces_to_exact_vertices(self):
        for dim, raw in self.raw_point_lists():
            P = IntegralPolytope(dim, raw)
            assert P.verts == hull(raw, dim).verts, raw
            assert P.verts == tuple(sorted(hull_vertices_lp(raw))), raw
            assert P == IntegralPolytope(dim=dim, verts=P.verts)
            assert pickle.loads(pickle.dumps(P)) == P

    def test_trusted_outputs_are_exact(self):
        rng = random.Random(73)
        outputs = [B.polytope() for B in SMALL_BASIS] + [point_polytope(2)]
        for k in range(64):
            P, Q = raw_polygon(rng, k % 4), raw_polygon(rng, k // 4 % 4)
            outputs += [p_mink_sum(P, Q), translate_polytope(P, (k - 30, 7)),
                        normalize_polytope(Q)]
        for P in outputs:
            assert P.verts == hull(P.verts, 2).verts, P


def lp_normalized(points):
    """Vertex set of conv(points) by LP, translated to the orthant corner."""
    verts = hull_vertices_lp(points)
    low = [min(v[k] for v in verts) for k in range(2)]
    return {(v[0] - low[0], v[1] - low[1]) for v in verts}


class TestMinkowskiSum:
    def test_2d_against_lp_oracle(self):
        rng = random.Random(41)
        for k in range(320):
            P, Q = raw_polygon(rng, k % 4), raw_polygon(rng, k // 4 % 4)
            S = p_mink_sum(P, Q)
            assert S.verts == tuple(sorted(S.verts))
            assert set(S.verts) == mink_sum_lp(P.verts, Q.verts), (P, Q)

    def test_3d_against_lp_oracle(self):
        rng = random.Random(43)
        for _ in range(20):
            P, Q = [IntegralPolytope(3, tuple(
                tuple(rng.randint(-2, 2) for _ in range(3))
                for _ in range(rng.randint(1, 4)))) for _ in range(2)]
            assert set(p_mink_sum(P, Q).verts) == mink_sum_lp(P.verts,
                                                              Q.verts)

    def test_2d_paths_never_hull(self, monkeypatch):
        # the operands are exact vertex sets already, so a silent fallback
        # to pairwise sums, a second hull or the constructor's reduction
        # would show here as a call, with no timing involved
        rng = random.Random(47)
        pairs = [(raw_polygon(rng, k % 4), raw_polygon(rng, k // 4))
                 for k in range(16)]
        calls = []
        for name in "hull", "convex_chain":
            real = getattr(polytopes, name)
            monkeypatch.setattr(polytopes, name, lambda *args, real=real:
                                calls.append(args) or real(*args))
        for P, Q in pairs:
            p_mink_sum(P, Q)
            decompose_2d(group_element(P, Q))
        assert calls == []


class TestHeightShadow:
    def test_height(self):
        assert height(hull({(0, 1), (2, 3)}, 2)) == 1
        assert height(hull({(5, 7)}, 2)) == 7

    def test_height_translation(self):
        P = hull({(0, 1), (2, 3)}, 2)
        assert height(translate_polytope(P, (0, 4))) == height(P) + 4

    def test_shadow_diagonal_segment(self):
        S = shadow(hull({(0, 0), (1, 1)}, 2))
        assert S.verts == ((0, 0), (1, 0), (1, 1))

    def test_shadow_antidiagonal_segment(self):
        S = shadow(hull({(0, 1), (1, 0)}, 2))
        assert S.verts == ((0, 0), (0, 1), (1, 0))

    def test_shadow_flat_is_fixed(self):
        P = hull({(0, 2), (3, 2)}, 2)
        assert shadow(P).verts == P.verts

    def test_shadow_idempotent(self):
        P = hull({(0, 0), (2, 1), (1, 3)}, 2)
        assert shadow(shadow(P)).verts == shadow(P).verts


class TestGroupElements:
    def test_self_difference_is_identity(self):
        P = hull({(0, 0), (2, 1), (1, 3)}, 2)
        e = group_element(P, P)
        assert class_equal(e, group_element(point_polytope(2)))

    def test_cancellation(self):
        P = hull({(0, 0), (2, 1)}, 2)
        Q = hull({(0, 0), (1, 2), (2, 0)}, 2)
        lhs = group_element(p_mink_sum(P, Q), Q)
        assert class_equal(lhs, group_element(P))

    def test_square_minus_segment(self):
        square = hull({(0, 0), (1, 0), (0, 1), (1, 1)}, 2)
        lhs = group_element(square, basis_segment((1, 0)))
        rhs = group_element(basis_segment((0, 1)))
        assert class_equal(lhs, rhs)

    def test_negate(self):
        P = hull({(0, 0), (2, 1)}, 2)
        e = group_element(P)
        assert class_equal(group_add(e, group_negate(e)),
                           group_element(point_polytope(2)))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError,
                           match="dimensions differ: 2 vs 3"):
            PolytopeGroupElement(point_polytope(2), point_polytope(3))


class TestBasisElements:
    def test_segment(self):
        assert basis_segment((1, 2)).verts == ((0, 0), (1, 2))

    def test_triangle_up_left(self):
        assert basis_triangle((-1, 1)).verts == ((0, 0), (0, 1), (1, 0))

    @pytest.mark.parametrize("v", [(1, 1), (-1, 1), (3, 2), (-2, 5),
                                   (7, 1), (-1, 4)])
    def test_triangle_is_normalized_shadow(self, v):
        assert basis_triangle(v) == normalize_polytope(
            shadow(hull({(0, 0), v}, 2)))

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValueError):
            basis_triangle((0, 1))
        with pytest.raises(ValueError):
            basis_triangle((1, 0))

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            basis_segment((2, 4))

    def test_not_upper_half_rejected(self):
        with pytest.raises(ValueError):
            basis_segment((0, -1))

    def test_non_planar_direction_rejected(self):
        with pytest.raises(DimensionMismatchError):
            basis_segment((1, 1, 1))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError) as info:
            basis_segment((0, 0))
        assert info.type is ValueError


class TestEdgeVectorCounts:
    def test_square(self):
        square = hull({(0, 0), (2, 0), (0, 2), (2, 2)}, 2)
        assert edge_vector_counts(square) == {
            (1, 0): 2, (0, 1): 2, (-1, 0): 2, (0, -1): 2}

    def test_segment_counts_both_ways(self):
        seg = hull({(0, 0), (2, 4)}, 2)
        assert edge_vector_counts(seg) == {(1, 2): 2, (-1, -2): 2}

    def test_point_empty(self):
        assert edge_vector_counts(point_polytope(2)) == {}

    def test_rejects_3d(self):
        with pytest.raises(DimensionMismatchError):
            edge_vector_counts(point_polytope(3))

    def test_additive_under_mink_sum(self):
        P = hull({(0, 0), (1, 0), (0, 1)}, 2)
        Q = hull({(0, 0), (2, 1)}, 2)
        cp = edge_vector_counts(P)
        cq = edge_vector_counts(Q)
        total = dict(cp)
        for u, c in cq.items():
            total[u] = total.get(u, 0) + c
        assert edge_vector_counts(p_mink_sum(P, Q)) == total


class TestDecompose2d:
    def test_unit_square(self):
        e = group_element(hull({(0, 0), (1, 0), (0, 1), (1, 1)}, 2))
        assert decompose_2d(e) == {BasisElement("segment", (1, 0)): 1,
                                   BasisElement("segment", (0, 1)): 1}

    def test_standard_triangle(self):
        e = group_element(hull({(0, 0), (1, 0), (0, 1)}, 2))
        assert decompose_2d(e) == {BasisElement("triangle", (-1, 1)): 1}

    def test_scaled_segment(self):
        e = group_element(hull({(0, 0), (2, 4)}, 2))
        assert decompose_2d(e) == {BasisElement("segment", (1, 2)): 2}

    def test_point_is_empty(self):
        assert decompose_2d(group_element(point_polytope(2))) == {}

    def test_rejects_3d(self):
        with pytest.raises(DimensionMismatchError):
            decompose_2d(group_element(hull({(0, 0, 0), (1, 0, 0)}, 3)))

    def test_difference_decomposition(self):
        square = hull({(0, 0), (1, 0), (0, 1), (1, 1)}, 2)
        e = group_element(square, basis_segment((1, 0)))
        assert decompose_2d(e) == {BasisElement("segment", (0, 1)): 1}

    def test_non_vertex_input(self):
        e = group_element(IntegralPolytope(2, ((2, 0), (0, 0), (1, 0))))
        assert decompose_2d(e) == {BasisElement("segment", (1, 0)): 2}

    def test_reconstruction_by_lp_oracle(self):
        # rebuilds the coefficients with c * B as scaled vertices and the
        # LP Minkowski sum, sharing no code with the edge merge
        rng = random.Random(53)
        for k in range(50):
            P = raw_polygon(rng, 3)
            e = group_element(P, raw_polygon(rng, k % 4)) if k % 2 else \
                group_element(P)
            left, right = e.neg.verts, e.pos.verts
            for B, c in decompose_2d(e).items():
                part = [(abs(c) * a, abs(c) * b) for a, b in B.polytope().verts]
                if c > 0:
                    left = mink_sum_lp(left, part)
                else:
                    right = mink_sum_lp(right, part)
            assert lp_normalized(left) == lp_normalized(right), e

    def test_each_basis_element_decomposes_to_itself(self):
        for B in SMALL_BASIS:
            assert decompose_2d(group_element(B.polytope())) == {B: 1}, B

    def test_difference_of_two_basis_elements(self):
        rng = random.Random(67)
        for _ in range(300):
            B, C = rng.sample(SMALL_BASIS, 2)
            e = group_element(B.polytope(), C.polytope())
            assert decompose_2d(e) == {B: 1, C: -1}, (B, C)

    def test_reconstruction_adds_copy_by_copy(self, monkeypatch):
        # the check adds one basis copy per unit of coefficient through the
        # group's own addition, never c * B at once; the benchmark's
        # oversized-decompose probe relies on this to stay slow enough for
        # its overrun guard to kill it.  Both sides start from e's own
        # exact polytopes, so no other sum is taken.
        rng = random.Random(59)
        elements = [group_element(raw_polygon(rng, 3), raw_polygon(rng, k % 4))
                    for k in range(40)]
        calls = []
        real = polytopes.p_mink_sum
        monkeypatch.setattr(polytopes, "p_mink_sum",
                            lambda *args: calls.append(args) or real(*args))
        largest = 0
        for e in elements:
            calls.clear()
            coeffs = decompose_2d(e)
            assert len(calls) == sum(map(abs, coeffs.values())), e
            largest = max([largest, *map(abs, coeffs.values())])
        assert largest > 1

    def test_budget_bounds_the_copies(self):
        e = group_element(hull({(0, 0), (3, 0), (0, 2)}, 2))
        copies = sum(map(abs, decompose_2d(e).values()))
        assert decompose_2d(e, budget=copies) == decompose_2d(e)
        with pytest.raises(BudgetExceededError) as info:
            decompose_2d(e, budget=copies - 1)
        assert info.value.examined == copies


class TestPhi:
    def test_point_is_identity(self):
        assert phi(point_polytope(2)).is_identity

    def test_segment_to_staircase(self):
        c = phi(hull({(2, 0), (0, 3)}, 2))
        assert c.num == ideal((2, 0), (1, 2), (0, 3))
        assert c.den == unit_ideal(2)

    def test_origin_triangle_is_identity(self):
        assert phi(hull({(0, 0), (1, 0), (1, 1)}, 2)).is_identity

    def test_phi_group(self):
        square = hull({(0, 0), (1, 0), (0, 1), (1, 1)}, 2)
        e = group_element(square, basis_segment((1, 0)))
        assert phi_group(e).is_identity
        e2 = group_element(hull({(2, 0), (0, 3)}, 2))
        assert class_equal_ideal(phi_group(e2),
                                 ideal_class(ideal((2, 0), (1, 2), (0, 3))))

    def test_phi_group_closes_nothing_twice(self):
        # phi's parts are closed and normalized already, so taking them as
        # they are gives the class that closing them again gave
        rng = random.Random(41)
        for k in range(60):
            e = group_element(raw_polygon(rng, k % 4), raw_polygon(rng, 3))
            assert phi_group(e) == ideal_class(phi(e.pos).num,
                                               phi(e.neg).num), e

    def test_only_up_left_segments_leave_identity(self):
        # colon_factorization_2d reads its factors off this lemma: phi of
        # Segment(-a, b) with a, b > 0 is closure(x^a, y^b), every other
        # basis element goes to the identity
        assert len(SMALL_BASIS) == 94
        for B in SMALL_BASIS:
            c = phi(B.polytope())
            if B.kind == "segment" and B.v[0] < 0:
                a, b = -B.v[0], B.v[1]
                assert c == ideal_class(ideal((a, 0), (0, b))), B
                assert not c.is_identity
            else:
                assert c.is_identity, B


class TestIdealClasses:
    def test_self_class_identity(self):
        I = ideal((2, 0), (1, 2), (0, 3))
        assert class_equal_ideal(ideal_class(I, I), ideal_class(unit_ideal(2)))

    def test_translation_invariance(self):
        I = ideal((2, 0), (1, 2), (0, 3))
        xI = ideal((3, 0), (2, 2), (1, 3))
        assert class_equal_ideal(ideal_class(xI), ideal_class(I))

    def test_cancellation(self):
        I = ideal((2, 0), (0, 1))
        J = ideal((1, 0), (0, 2))
        assert class_equal_ideal(ideal_class(star(I, J), J), ideal_class(I))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError,
                           match="dimensions differ: 2 vs 3"):
            IdealClassElement(unit_ideal(2), unit_ideal(3))


class TestIdealToPolytope:
    def test_keeps_staircase_vertices(self):
        P = ideal_to_polytope(ideal((2, 0), (1, 2), (0, 3)))
        assert P.verts == ((0, 3), (1, 2), (2, 0))

    def test_unit_to_point(self):
        assert ideal_to_polytope(unit_ideal(3)).verts == ((0, 0, 0),)

    def test_maximal_ideal(self):
        assert ideal_to_polytope(ideal((1, 0), (0, 1))).verts == \
            ((0, 1), (1, 0))

    def test_surjectivity_witness(self):
        I = integral_closure(ideal((3, 0), (1, 1), (0, 2)))
        assert class_equal_ideal(phi(ideal_to_polytope(I)), ideal_class(I))


class TestColonFactorization:
    def test_staircase(self):
        I = ideal((2, 0), (1, 2), (0, 3))
        f = colon_factorization_2d(I)
        assert f.num_monomial == (0, 0)
        assert f.num_factors == ((2, 3),)
        assert f.evaluate() == I

    def test_two_factor_case(self):
        I = ideal((3, 0), (1, 1), (0, 2))
        f = colon_factorization_2d(I)
        assert sorted(f.num_factors) == [(1, 1), (2, 1)]
        assert f.evaluate() == I

    def test_unit_is_empty(self):
        f = colon_factorization_2d(unit_ideal(2))
        assert f.num_factors == ()
        assert f.evaluate() == unit_ideal(2)

    def test_rejects_unclosed(self):
        with pytest.raises(ValueError):
            colon_factorization_2d(ideal((2, 0), (0, 2)))

    def test_reads_the_polygon_once(self):
        # the closedness test and the factors come from one edge reading,
        # so no facet description is built, and a non-closed input is
        # still named as the input
        I = integral_closure(ideal((9973, 0), (5003, 7), (0, 20)))
        misses = newton._facet_inequalities.cache_info().misses
        assert colon_factorization_2d(I).evaluate() == I
        assert newton._facet_inequalities.cache_info().misses == misses
        with pytest.raises(NotIntegrallyClosedError,
                           match="input must be integrally closed"):
            colon_factorization_2d(ideal((9973, 0), (0, 20)))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            colon_factorization_2d(unit_ideal(3))

    def test_principal_round_trip(self):
        I = ideal((2, 3))
        f = colon_factorization_2d(I)
        assert f.evaluate() == I

    def test_agrees_with_factor_atoms(self):
        # phi of the polygon's basis decomposition and the monoid's
        # factorization name the same atoms, on every closed ideal in the box
        x, y = ideal((1, 0)), ideal((0, 1))
        for I in closed_supersets(ideal((6, 6)), budget=None):
            if I.is_unit:
                continue
            f = colon_factorization_2d(I)
            atoms = ([x] * f.num_monomial[0] + [y] * f.num_monomial[1]
                     + [integral_closure(ideal((a, 0), (0, b)))
                        for a, b in f.num_factors])
            assert factor_atoms(I).atoms == tuple(
                sorted(atoms, key=lambda a: a.gens)), I

    def test_factors_are_the_basis_segment_coefficients(self):
        # the edge counts agree with the basis route, c copies of (a, b)
        # for each Segment(-a, b) of coefficient c, on every closed ideal
        # in box (7,7)
        closed = list(closed_supersets(ideal((7, 7)), budget=None))
        assert len(closed) == 2739
        for I in closed:
            expected = []
            for B, c in decompose_2d(group_element(hull(I.gens, 2))).items():
                if B.kind == "segment" and B.v[0] < 0 < B.v[1]:
                    expected += [(-B.v[0], B.v[1])] * c
            assert colon_factorization_2d(I).num_factors == tuple(
                sorted(expected)), I


class TestColonEvaluate:
    def test_evaluate_multiplies_once_per_distinct_factor(self, monkeypatch):
        # c copies of (x^a, y^b) are one edge of lattice length c; adding
        # copy by copy would read one edge per copy.  evaluate builds
        # through newton._closed_from_counts, which calls the patched name
        f = colon_factorization_2d(integral_closure(ideal((40, 0), (0, 40))))
        assert f.num_factors == ((1, 1),) * 40
        calls = []
        real = newton._closed_from_edges
        monkeypatch.setattr(newton, "_closed_from_edges",
                            lambda *args: calls.append(args) or real(*args))
        assert f.evaluate() == f.base
        assert calls == [((0, 0), [((1, 1), 40)])]
