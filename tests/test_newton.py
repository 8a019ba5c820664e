import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product as iproduct
from operator import add, mul

import pytest

from icm import newton
from icm.errors import DimensionMismatchError
from icm.ideals import (MAX_DIM, MonomialIdeal, contains, minimalize,
                        principal_ideal, product, staircase, unit_ideal)
from icm.monoid import star, star_power
from icm.newton import (NewtonPolyhedron, _double_description,
                        _facet_inequalities, integral_closure,
                        is_integrally_closed, member, mink_sum, np_equal,
                        np_of, reduce_points, vertices)
from icm.polytopes import colon_factorization_2d, hull, phi
from oracles import closure_lp, is_facet, member_lp, vertices_lp


def ideal(*gens):
    gens = [tuple(g) for g in gens]
    return MonomialIdeal(len(gens[0]), tuple(sorted(gens)))


def random_points(rng, dim):
    """One to five points in [0,4]^dim, repeats allowed, in random order."""
    return [tuple(rng.randint(0, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 5))]


def probe_points(rng, pts):
    """Rational points off, on and just below the boundary of NP(pts)."""
    dim = len(pts[0])
    probes = [tuple(Fraction(rng.randint(0, 15), rng.randint(1, 3))
                    for _ in range(dim)) for _ in range(6)]
    for p in pts:
        q = rng.choice(pts)
        probes.append(tuple(Fraction(a + b, 2) for a, b in zip(p, q)))
        k = rng.randrange(dim)
        probes.append(p[:k] + (p[k] - Fraction(1, 2),) + p[k + 1:])
    return probes


class TestMember:
    def test_midpoint(self):
        P = np_of(ideal((2, 0), (0, 2)))
        assert member(P, (1, 1))

    def test_below_segment(self):
        P = np_of(ideal((2, 0), (0, 2)))
        assert not member(P, (1, 0))

    def test_generators_are_members(self):
        I = ideal((3, 0), (1, 1), (0, 2))
        P = np_of(I)
        assert all(member(P, g) for g in I.gens)

    def test_rational_point(self):
        P = np_of(ideal((2, 0), (0, 2)))
        assert member(P, (Fraction(1, 2), Fraction(3, 2)))
        assert not member(P, (Fraction(1, 2), Fraction(4, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            member(np_of(ideal((1, 0))), (1, 0, 0))

    def test_polyhedron_rejects_empty_points(self):
        with pytest.raises(ValueError) as info:
            NewtonPolyhedron(2, ())
        assert info.type is ValueError

    def test_polyhedron_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            NewtonPolyhedron(2, ((1, 0), (0, 1, 0)))

    def test_polyhedron_rejects_dimension_above_cap(self):
        with pytest.raises(ValueError, match=re.escape(
                f"ambient dimension must be <= {MAX_DIM}, "
                f"got {MAX_DIM + 1}")):
            NewtonPolyhedron(MAX_DIM + 1, ((0,) * (MAX_DIM + 1),))
        assert NewtonPolyhedron(MAX_DIM, ((0,) * MAX_DIM,)).dim == MAX_DIM

    @pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(1), True, "1"])
    def test_polyhedron_rejects_non_integer_points(self, bad):
        with pytest.raises(ValueError, match=re.escape(
                f"non-integer coordinate in point {(0, bad)}")):
            NewtonPolyhedron(2, ((0, bad), (1, 0)))

    def test_polyhedron_stores_tuples(self):
        # list input is stored as tuples, so the polyhedron hashes, equals
        # its tuple twin and answers member; a tuple of tuples is kept as
        # given, so np_of holds the generators the facet cache is keyed
        # by; negative coordinates stay allowed, as a d >= 3 hull lifts
        # its points below 0
        I = ideal((0, 1), (1, 0))
        assert np_of(I).points is I.gens
        P = NewtonPolyhedron(2, [[0, 1], (1, 0)])
        assert P == NewtonPolyhedron(2, ((0, 1), (1, 0)))
        assert hash(P) == hash(NewtonPolyhedron(2, ((0, 1), (1, 0))))
        assert member(P, [Fraction(1, 2), Fraction(1, 2)])
        assert not member(P, (Fraction(1, 3), Fraction(1, 3)))
        Q = NewtonPolyhedron(2, ((-1, 2), (2, -1)))
        assert member(Q, (0, 1)) and not member(Q, (0, 0))

    def test_against_lp_oracle(self):
        rng = random.Random(11)
        for dim in (1, 2, 3, 4):
            for _ in range(40):
                pts = random_points(rng, dim)
                P = NewtonPolyhedron(dim, tuple(pts))
                for q in probe_points(rng, pts):
                    assert member(P, q) == member_lp(pts, q), (pts, q)

    def test_exact_on_every_number_type(self):
        """Each coordinate is read exactly, whatever its type: ints, floats
        and Decimals answer as the Fractions of their exact values do, on
        and just off the boundary.  The floats 1/3 and 2/3 sum to 1 - 2^-54,
        so they fall short of the facet x + y >= 1."""
        assert not member(np_of(ideal((1, 0), (0, 1))), (1 / 3, 2 / 3))
        rng = random.Random(12)
        for dim in (1, 2, 3, 4):
            for _ in range(25):
                pts = random_points(rng, dim)
                P = NewtonPolyhedron(dim, tuple(pts))
                for q in probe_points(rng, pts) + [(Fraction(1, 3),) * dim]:
                    for x in (tuple(int(a) if a.denominator == 1 else a
                                    for a in q),
                              tuple(map(float, q)),
                              tuple(Decimal(a.numerator) / a.denominator
                                    for a in q)):
                        exact = tuple(map(Fraction, x))
                        assert member(P, x) == member_lp(pts, exact), (pts, x)

    def test_invariant_under_redundant_points(self):
        P = np_of(ideal((2, 0), (0, 2)))
        Q = NewtonPolyhedron(2, ((0, 2), (1, 1), (2, 0), (3, 3)))
        for a in range(4):
            for b in range(4):
                assert member(P, (a, b)) == member(Q, (a, b))


class TestFacetInequalities:
    def test_lower_chain_2d(self):
        # (1, 3) is repeated and collinear, (3, 3) is dominated
        pts = ((0, 5), (1, 3), (2, 1), (4, 0), (3, 3), (1, 3))
        assert sorted(_facet_inequalities(pts, 2)) == [
            ((0, 1), 0), ((1, 0), 0), ((1, 2), 4), ((2, 1), 5)]

    def test_constant_coordinate_splits_off(self):
        pts = ((2, 0, 5), (0, 2, 5))
        assert sorted(_facet_inequalities(pts, 3)) == [
            ((0, 0, 1), 5), ((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 1, 0), 2)]

    def test_facet_normals(self):
        I = ideal((2, 0), (1, 1), (0, 3))
        assert {c for c, _ in _facet_inequalities(I.gens, I.dim)} == {
            (1, 0), (0, 1), (1, 1), (2, 1)}

    def test_only_facets_against_oracles(self):
        rng = random.Random(13)
        for dim in (1, 2, 3, 4, 5):
            for _ in range(40):
                pts = random_points(rng, dim)
                pts.append(rng.choice(pts))
                pts.append(tuple(a + rng.randint(0, 2)
                                 for a in rng.choice(pts)))
                if dim > 1 and rng.random() < 0.5:
                    k, a = rng.randrange(dim), rng.randint(0, 4)
                    pts = [p[:k] + (a,) + p[k + 1:] for p in pts]
                facets = _facet_inequalities(tuple(pts), dim)
                normals = [c for c, _ in facets]
                assert len(set(normals)) == len(normals), pts
                assert all(is_facet(pts, c, m) for c, m in facets), pts
                P = NewtonPolyhedron(dim, tuple(pts))
                for q in probe_points(rng, pts):
                    assert member(P, q) == member_lp(pts, q), (pts, q)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_tie_heavy_against_oracles(self, dim):
        """Point sets where most points cut no ray of the double
        description: the lattice points of a dilated simplex (a layer
        w.p = k, or all of w.p <= k, for a small positive weight w), with
        repeated points and a few random ones, and lifted hull points
        (p, -sum(p)) of such sets, which have negative coordinates.  Every
        facet returned passes the rank test, and member agrees with the
        LP on sampled points, so none is missing."""
        rng = random.Random(3300 + dim)
        for n in range(60):
            lifted = n % 3 == 2
            d = dim - lifted
            w = [1] + [rng.randint(1, 2) for _ in range(d - 1)]
            k = rng.randint(2, 6 if d == 3 else 4)
            layer = [p for p in iproduct(range(k + 1), repeat=d)
                     if sum(map(mul, w, p)) == k
                     or n % 2 and sum(map(mul, w, p)) < k]
            pts = layer + rng.sample(layer, min(3, len(layer)))
            pts += [tuple(rng.randint(0, k) for _ in range(d))
                    for _ in range(rng.randint(0, 2))]
            if lifted:
                pts = [p + (-sum(p),) for p in pts]
            rng.shuffle(pts)
            facets = _facet_inequalities(tuple(pts), dim)
            normals = [c for c, _ in facets]
            assert len(set(normals)) == len(normals), pts
            assert all(is_facet(pts, c, m) for c, m in facets), pts
            P = NewtonPolyhedron(dim, tuple(pts))
            probes = probe_points(rng, pts)
            for q in rng.sample(probes, min(10, len(probes))):
                assert member(P, q) == member_lp(pts, q), (pts, q)

    @pytest.mark.parametrize("n", [20, 40])
    def test_4d_antichain(self, n):
        rng = random.Random(n)
        pts = []
        while len(pts) < n:
            p = tuple(rng.randint(0, 9) for _ in range(4))
            if not any(all(a <= b for a, b in zip(p, q))
                       or all(a >= b for a, b in zip(p, q)) for q in pts):
                pts.append(p)
        facets = _facet_inequalities(tuple(pts), 4)
        normals = [c for c, _ in facets]
        assert len(set(normals)) == len(normals)
        assert all(is_facet(pts, c, m) for c, m in facets)
        P = NewtonPolyhedron(4, tuple(pts))
        for q in probe_points(rng, pts):
            assert member(P, q) == member_lp(pts, q), q

    @pytest.mark.parametrize("dim", [3, 4])
    def test_order_independent(self, dim):
        """The double description fed the points extreme first gives the
        facets that lex order gives, returned as a sorted tuple, on seeded
        point sets and on lifted hull points (p, -sum(p)), which have
        negative coordinates, as polytopes.hull builds them."""
        rng = random.Random(60 + dim)
        for n in range(150):
            lifted = n % 2
            pts = [tuple(rng.randint(0, 6) for _ in range(dim - lifted))
                   for _ in range(rng.randint(1, 12))]
            if lifted:
                pts = [p + (-sum(p),) for p in pts]
            facets = _facet_inequalities(tuple(pts), dim)
            assert type(facets) is tuple and list(facets) == sorted(facets)
            assert set(facets) == set(
                _double_description(sorted(set(pts)), dim)), pts


class TestVertices:
    def test_drops_interior_point(self):
        P = NewtonPolyhedron(2, ((0, 3), (1, 2), (2, 0)))
        assert vertices(P) == {(2, 0), (0, 3)}

    def test_keeps_supporting_point(self):
        P = NewtonPolyhedron(2, ((0, 2), (1, 1), (3, 0)))
        assert vertices(P) == {(3, 0), (1, 1), (0, 2)}

    def test_single_point(self):
        assert vertices(NewtonPolyhedron(2, ((0, 0),))) == {(0, 0)}

    def test_repeated_point_is_kept(self):
        P = NewtonPolyhedron(2, ((1, 1), (1, 1), (3, 0)))
        assert vertices(P) == {(1, 1), (3, 0)}
        assert reduce_points(P).points == ((1, 1), (3, 0))
        assert np_equal(P, reduce_points(P))
        assert not np_equal(P, NewtonPolyhedron(2, ((3, 0),)))

    def test_reduction_is_member_equivalent(self):
        P = NewtonPolyhedron(2, ((0, 3), (1, 2), (2, 0), (2, 2)))
        assert np_equal(P, reduce_points(P))

    def test_against_lp_oracle(self):
        rng = random.Random(12)
        for dim in (1, 2, 3, 4, 5):
            for _ in range(40):
                pts = random_points(rng, dim)
                P = NewtonPolyhedron(dim, tuple(pts))
                verts = vertices_lp(pts)
                assert vertices(P) == verts, pts
                assert np_equal(P, NewtonPolyhedron(dim, tuple(verts)))
                other = random_points(rng, dim)
                assert np_equal(P, NewtonPolyhedron(dim, tuple(other))) == (
                    all(member_lp(other, p) for p in pts)
                    and all(member_lp(pts, q) for q in other)), (pts, other)

    def test_repeated_and_face_points_against_lp_oracle(self):
        # vertices are read off groups of points with one tight-facet mask:
        # a repeated vertex makes a group of one point, and a lattice
        # midpoint of two points lies inside an edge or a face, whose
        # group's mask a vertex's mask contains
        rng = random.Random(13)
        for dim in (2, 3, 4):
            for _ in range(30):
                pts = [tuple(2 * a for a in p)
                       for p in random_points(rng, dim)]
                pts += [tuple((a + b) // 2 for a, b in zip(p, q))
                        for p, q in zip(pts, pts[1:])]
                pts += rng.choices(pts, k=2)
                rng.shuffle(pts)
                assert vertices(NewtonPolyhedron(dim, tuple(pts))) == (
                    vertices_lp(pts)), pts


class TestMinkSum:
    def test_maximal_ideal_doubles(self):
        P = np_of(ideal((1, 0), (0, 1)))
        assert vertices(mink_sum(P, P)) == {(2, 0), (0, 2)}

    def test_unit_is_identity(self):
        P = np_of(ideal((2, 0), (1, 1)))
        assert np_equal(mink_sum(P, np_of(unit_ideal(2))), P)

    def test_derived_example(self):
        S = mink_sum(np_of(ideal((2, 0), (0, 1))), np_of(ideal((1, 0), (0, 1))))
        assert vertices(S) == {(3, 0), (1, 1), (0, 2)}
        assert S.points == ((0, 2), (1, 1), (3, 0))  # (2, 1) is dominated

    def test_np_homomorphism(self):
        I = ideal((2, 0), (0, 1))
        J = ideal((1, 1), (3, 0))
        assert np_equal(np_of(product(I, J)), mink_sum(np_of(I), np_of(J)))

    def test_negative_and_lifted_points_against_lp_oracle(self):
        # a polyhedron's points may be negative (a d >= 3 hull lifts p to
        # (p, -sum(p))), so the sums are minimalized as points, not as an
        # ideal's generators; the vertices against the LP's of every sum
        P = NewtonPolyhedron(2, ((-1, 0), (0, -1)))
        assert vertices(mink_sum(P, P)) == {(-2, 0), (0, -2)}
        rng = random.Random(43)
        for dim in (2, 3):
            for lifted in (False, True):
                for _ in range(25):
                    sets = [[tuple(rng.randint(-3, 3) for _ in range(dim))
                             for _ in range(rng.randint(1, 4))]
                            for _ in range(2)]
                    if lifted:
                        sets = [[p + (-sum(p),) for p in pts] for pts in sets]
                    d = len(sets[0][0])
                    P, Q = (NewtonPolyhedron(d, tuple(pts)) for pts in sets)
                    sums = {tuple(map(add, p, q))
                            for p in sets[0] for q in sets[1]}
                    assert vertices(mink_sum(P, Q)) == vertices_lp(
                        list(sums)), sets

    def test_points_are_product_generators(self):
        rng = random.Random(12)
        for _ in range(100):
            dim = rng.randint(1, 4)
            I = minimalize(random_points(rng, dim), dim)
            J = minimalize(random_points(rng, dim), dim)
            assert (mink_sum(np_of(I), np_of(J)).points
                    == product(I, J).gens), (I, J)


class TestIntegralClosure:
    def test_adds_midpoint(self):
        assert (integral_closure(ideal((2, 0), (0, 2)))
                == ideal((2, 0), (1, 1), (0, 2)))

    def test_principal_is_closed(self):
        I = principal_ideal((3, 2))
        assert integral_closure(I) == I

    def test_already_closed(self):
        I = ideal((2, 0), (1, 2), (0, 3))
        assert integral_closure(I) == I

    def test_extensive_and_idempotent(self):
        I = ideal((3, 0, 0), (0, 3, 0), (0, 0, 3))
        C = integral_closure(I)
        assert all(contains(C, g) for g in I.gens)
        assert integral_closure(C) == C

    def test_cube_corners(self):
        I = ideal((25, 0, 0), (0, 25, 0), (0, 0, 25))
        gens = integral_closure(I).gens
        assert len(gens) == 351
        assert all(sum(g) == 25 for g in gens)

    def test_equal_degree_cube(self):
        # 7,381 generators, all of one degree, built without minimalizing
        I = ideal((120, 0, 0), (0, 120, 0), (0, 0, 120))
        gens = integral_closure(I).gens
        assert len(gens) == 7381
        assert all(sum(g) == 120 for g in gens)

    def test_long_axis(self):
        I = ideal((100000, 0), (0, 3))
        assert integral_closure(I).gens == (
            (0, 3), (33334, 2), (66667, 1), (100000, 0))

    @pytest.mark.parametrize("gens", [
        [(60, 0), (0, 4)],
        [(2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)],
        [(2, 1, 0, 0, 0, 0), (0, 2, 1, 0, 0, 0), (1, 0, 2, 0, 0, 0),
         (0, 0, 0, 3, 0, 0)],
    ], ids=["x60-y4", "4d", "6d-two-unused"])
    def test_against_lp_oracle_wide(self, gens):
        I = ideal(*gens)
        assert integral_closure(I) == closure_lp(I)

    def test_against_lp_oracle_2d(self):
        rng = random.Random(7)
        for _ in range(60):
            k = rng.randint(1, 4)
            I = minimalize([(rng.randint(0, 4), rng.randint(0, 4))
                            for _ in range(k)], 2)
            assert integral_closure(I) == closure_lp(I)

    def test_against_lp_oracle_3d(self):
        rng = random.Random(8)
        for _ in range(25):
            k = rng.randint(1, 4)
            I = minimalize([tuple(rng.randint(0, 3) for _ in range(3))
                            for _ in range(k)], 3)
            assert integral_closure(I) == closure_lp(I)

    @pytest.mark.parametrize("dim, top, cases", [(1, 9, 20), (2, 6, 40),
                                                 (3, 4, 25), (4, 3, 15)])
    def test_against_lp_oracle_seeded(self, dim, top, cases):
        rng = random.Random(700 + dim)
        for _ in range(cases):
            I = minimalize([tuple(rng.randint(0, top) for _ in range(dim))
                            for _ in range(rng.randint(1, 4))], dim)
            assert integral_closure(I) == closure_lp(I), I


class TestIsIntegrallyClosed:
    def test_open_square(self):
        assert not is_integrally_closed(ideal((2, 0), (0, 2)))

    def test_2d_fills_the_facets_member_reads(self):
        # a 2D closedness test reads the cached facet description, so a
        # later member test on the same ideal's polyhedron builds none
        I = ideal((9967, 0), (4001, 3), (0, 11))
        is_integrally_closed(I)
        misses = _facet_inequalities.cache_info().misses
        assert member(np_of(I), (4001, 3))
        assert not member(np_of(I), (4000, 3))
        assert _facet_inequalities.cache_info().misses == misses

    def test_closed_segment(self):
        assert is_integrally_closed(ideal((1, 0), (0, 2)))

    def test_unit(self):
        assert is_integrally_closed(unit_ideal(2))

    @pytest.mark.parametrize("dim, top, cases", [(1, 9, 20), (2, 6, 30),
                                                 (3, 4, 15), (4, 3, 10)])
    def test_against_lp_oracle(self, dim, top, cases):
        """Seeded ideals and their closures: closed exactly when the LP
        closure gives the ideal back, with both answers drawn."""
        rng = random.Random(800 + dim)
        answers = set()
        for _ in range(cases):
            I = minimalize([tuple(rng.randint(0, top) for _ in range(dim))
                            for _ in range(rng.randint(1, 4))], dim)
            for J in (I, closure_lp(I)):
                closed = closure_lp(J) == J
                assert is_integrally_closed(J) == closed, J
                answers.add(closed)
        assert answers == {True, False} or dim == 1

    def test_2d_small_cases(self):
        # single generators, (xy) and (x^2, xy) among them, are closed
        for I in (principal_ideal((1, 1)), principal_ideal((3, 0)),
                  principal_ideal((0, 2)), ideal((2, 0), (1, 1)),
                  ideal((1, 2), (2, 1)), ideal((2, 0), (1, 1), (0, 2))):
            assert is_integrally_closed(I), I
            assert closure_lp(I) == I, I
        # each misses a lattice point of its polygon, as (x^2, y^2) misses xy
        for I in (ideal((2, 0), (0, 2)), ideal((3, 0), (0, 3)),
                  ideal((3, 0), (2, 1), (0, 3)), ideal((4, 1), (1, 4))):
            assert not is_integrally_closed(I), I
            assert closure_lp(I) != I, I

    def test_2d_against_closure_seeded(self):
        """The 2D corner test against the walked closure on seeded ideals,
        thin (x^N, y^k) with N up to 3,000 and ideals that are not
        m-primary included, and against the LP closure on the small ones;
        both answers drawn in each family."""
        rng = random.Random(2028)
        seen = set()
        for n in range(900):
            if n % 3 == 0:
                gens = [(rng.randint(1, 3000), 0), (0, rng.randint(1, 4))]
                if rng.random() < 0.5:
                    gens.append((rng.randint(1, 40), rng.randint(1, 3)))
                top = None
            else:
                top = rng.choice([3, 6, 12])
                gens = [(rng.randint(0, top), rng.randint(0, top))
                        for _ in range(rng.randint(1, 5))]
            I = minimalize(gens, 2)
            for J in (I, integral_closure(I)):
                closed = integral_closure(J) == J
                assert is_integrally_closed(J) == closed, J
                if top is not None and top <= 6 and n % 4 == 1:
                    assert (closure_lp(J) == J) == closed, J
                seen.add((top is None, closed))
        assert seen == {(True, True), (True, False),
                        (False, True), (False, False)}

    def test_2d_walks_no_column(self, monkeypatch):
        """A 2D closedness test reads the box complement's corners, and a
        2D closure (integral_closure, star, star_power, a colon
        factorization's evaluate, phi) is built from the polygon's edges,
        so no staircase walk runs; a 3D closedness test and a 3D closure
        each still walk once."""
        walks = []

        def counted(*args):
            walks.append(args)
            return staircase(*args)

        monkeypatch.setattr(newton, "staircase", counted)
        rng = random.Random(17)
        for _ in range(200):
            I, J = (minimalize([(rng.randint(0, 12), rng.randint(0, 12))
                                for _ in range(rng.randint(1, 6))], 2)
                    for _ in range(2))
            is_integrally_closed(I)
            C = integral_closure(I)
            star(I, J)
            star_power(I, rng.randint(0, 3))
            colon_factorization_2d(C).evaluate()
            phi(hull(I.gens + J.gens, 2))
        assert walks == []
        is_integrally_closed(ideal((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        assert len(walks) == 1
        integral_closure(ideal((3, 0, 0), (0, 2, 0), (0, 0, 2)))
        assert len(walks) == 2


def test_np_injectivity_on_closed_ideals():
    rng = random.Random(9)
    for _ in range(30):
        I = integral_closure(minimalize(
            [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)], 2))
        J = integral_closure(minimalize(
            [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)], 2))
        if np_equal(np_of(I), np_of(J)):
            assert I == J
