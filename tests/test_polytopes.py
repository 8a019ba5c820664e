import random

import pytest

from icm import polytopes
from icm.errors import BudgetExceededError, DimensionMismatchError
from icm.ideals import MonomialIdeal, unit_ideal
from icm.monoid import closed_supersets, factor_atoms, star
from icm.newton import integral_closure
from icm.polytopes import (BasisElement, IntegralPolytope, basis_segment,
                           basis_triangle, class_equal, class_equal_ideal,
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


def raw_polygon(rng, kind):
    """A 2D polytope built straight from point tuples, as the constructor
    allows: unsorted, with repeats and non-vertices.  kind 0 is a point,
    1 a segment, 2 a collinear run and 3 a scatter with a collinear run;
    coordinates go negative."""
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
    return IntegralPolytope(2, tuple(pts))


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
        # a silent fallback to pairwise sums and a second hull would show
        # here as a call, with no timing involved
        rng = random.Random(47)
        pairs = [(raw_polygon(rng, k % 4), raw_polygon(rng, k // 4))
                 for k in range(16)]
        calls = []
        real = polytopes.hull
        monkeypatch.setattr(polytopes, "hull",
                            lambda *args: calls.append(args) or real(*args))
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
        assert f.den_factors == ()
        assert f.evaluate() == I

    def test_two_factor_case(self):
        I = ideal((3, 0), (1, 1), (0, 2))
        f = colon_factorization_2d(I)
        assert sorted(f.num_factors) == [(1, 1), (2, 1)]
        assert f.den_factors == ()
        assert f.evaluate() == I

    def test_unit_is_empty(self):
        f = colon_factorization_2d(unit_ideal(2))
        assert f.num_factors == () and f.den_factors == ()
        assert f.evaluate() == unit_ideal(2)

    def test_rejects_unclosed(self):
        with pytest.raises(ValueError):
            colon_factorization_2d(ideal((2, 0), (0, 2)))

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
