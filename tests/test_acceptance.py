"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every check is exact (integer/rational arithmetic throughout); there are no
tolerances to tune.  The slow criteria (5, 6, 9, 10) are exhaustive over
their stated boxes and take a few minutes combined.
"""

import random
from functools import lru_cache
from itertools import combinations, product as iproduct

from icm.ideals import (MonomialIdeal, ord_valuation, principal_ideal,
                        unit_ideal)
from icm.monoid import (all_factorizations, closed_supersets, divides,
                        is_star_irreducible, quotient_cancel, star)
from icm.newton import integral_closure
from icm.parsing import parse_ideal
from icm.polytopes import (class_equal_ideal, colon_factorization_2d,
                           ideal_class, ideal_to_polytope, phi)
from icm.properties import (POLYTOPE_SUITES, run_suites, random_closed_ideal)
from oracles import closure_lp, divides_by_search, factorizations_by_search


def report(number, description, ok):
    print(f"criterion {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def lipman_ideals():
    m = parse_ideal("x,y,z")
    J1 = parse_ideal("x^3,y^3,z^3,x*y,x*z,y*z")
    J1p = parse_ideal("x^2,y,z")
    J2p = parse_ideal("x,y^2,z")
    J3p = parse_ideal("x,y,z^2")
    return m, J1, J1p, J2p, J3p


@lru_cache(maxsize=None)
def closed_ideals_in_box(b):
    """All integrally closed ideals with minimal generators in [0,b]^2.

    These are exactly the closed supersets of the principal ideal (b,b)
    whose generators stay in the box, which closed_supersets enumerates.
    """
    return tuple(closed_supersets(principal_ideal((b, b)), budget=None))


def star_fold(ideals, dim):
    result = unit_ideal(dim)
    for I in ideals:
        result = star(result, I)
    return result


def test_criterion_1_lipman_identity():
    m, J1, J1p, J2p, J3p = lipman_ideals()
    lhs = star(m, J1)
    rhs = star(star(J1p, J2p), J3p)
    report(1, "Eq. (0.1) identity", lhs == rhs)


def test_criterion_2_ord_values():
    ideals = lipman_ideals()
    ords = [ord_valuation(I) for I in ideals]
    report(2, "ord values", ords == [1, 2, 1, 1, 1])


def test_criterion_3_non_unique_factorization():
    m, J1, J1p, J2p, J3p = lipman_ideals()
    lhs = star(m, J1)
    results = all_factorizations(lhs)
    sizes = sorted(len(fz) for fz in results)
    ok = (len(results) >= 2 and 2 in sizes and 3 in sizes
          and all(star_fold(fz, 3) == lhs for fz in results)
          and all(is_star_irreducible(I) for I in (m, J1, J1p, J2p, J3p)))
    report(3, "non-unique factorization", ok)


def test_criterion_4_m_not_prime():
    m, J1, J1p, J2p, J3p = lipman_ideals()
    lhs = star(m, J1)
    # m divides the product, with the ord-2 atom J1 as cofactor...
    divides_product = divides(m, lhs) is not None
    cofactor_is_atom = (quotient_cancel(lhs, m) == J1
                        and is_star_irreducible(J1))
    # ...but if m divided J1'*J2' (cofactor K), cancellation in
    # m*J1 = (J1'*J2')*J3' would give J1 = K*J3', a proper factorization
    # of the atom J1; likewise for m | J3'.  Both divisions must fail, and
    # an exhaustive search over every candidate cofactor confirms each one.
    no_split_left = all(d(m, star(J1p, J2p)) is None
                        for d in (divides, divides_by_search))
    no_split_right = all(d(m, J3p) is None
                         for d in (divides, divides_by_search))
    report(4, "m is not prime",
           divides_product and cofactor_is_atom
           and no_split_left and no_split_right)


def test_criterion_5_zariski_uniqueness_2d():
    # the library reads every 2D factorization off Zariski's theorem,
    # the Newton polygon's corner and edges, with no search; an
    # exhaustive search that knows no theorem checks atoms and
    # uniqueness on every ideal
    bad = []
    for I in closed_ideals_in_box(5):
        if I.is_unit:
            continue
        searched = factorizations_by_search(I)
        if (all_factorizations(I) != searched or len(searched) != 1
                or is_star_irreducible(I) != (searched == {(I,)})):
            bad.append(I)
    report(5, "unique factorization in 2 vars, box (5,5)", not bad)


def _antichains_2d(bound, max_gens):
    """Antichains in [0,bound]^2 with at most max_gens points: pick k
    distinct x's and k distinct y's, pair ascending x with descending y."""
    coords = range(bound + 1)
    for k in range(1, max_gens + 1):
        for xs in combinations(coords, k):
            for ys in combinations(coords, k):
                yield tuple(zip(xs, reversed(ys)))


def _antichains_3d(bound, max_gens):
    pts = list(iproduct(range(bound + 1), repeat=3))

    def dominates(a, b):
        return all(x >= y for x, y in zip(a, b))

    for k in range(1, max_gens + 1):
        for combo in combinations(pts, k):
            if not any(dominates(a, b) or dominates(b, a)
                       for a, b in combinations(combo, 2)):
                yield combo


def test_criterion_6_closure_oracle_equivalence():
    bad = []
    for gens in _antichains_2d(6, 4):
        I = MonomialIdeal(2, tuple(sorted(gens)))
        if integral_closure(I) != closure_lp(I):
            bad.append(I)
    for gens in _antichains_3d(3, 4):
        I = MonomialIdeal(3, tuple(sorted(gens)))
        if integral_closure(I) != closure_lp(I):
            bad.append(I)
    report(6, "closure oracle equivalence", not bad)


def test_criterion_7_monoid_property_suites():
    names = ["star_monoid_laws", "np_homomorphism", "ord_additivity",
             "conical", "cancellation", "torsion_free", "closure_laws",
             "primes_are_atoms"]
    rep = run_suites(seed=0, cases=200, names=names)
    failures = {k: v["failures"] for k, v in rep.items() if v["failures"]}
    report(7, "monoid property suites (200 cases each)", not failures)


def test_criterion_8_polytope_group():
    rep = run_suites(seed=0, names=["shadow_homomorphism",
                                    "decompose_reconstruction"])
    failures = {k: v["failures"] for k, v in rep.items() if v["failures"]}
    golden = True
    from icm.polytopes import (BasisElement, basis_segment, decompose_2d,
                               group_element, hull)
    square = hull({(0, 0), (1, 0), (0, 1), (1, 1)}, 2)
    golden &= decompose_2d(group_element(square)) == {
        BasisElement("segment", (1, 0)): 1, BasisElement("segment", (0, 1)): 1}
    tri = hull({(0, 0), (1, 0), (0, 1)}, 2)
    golden &= decompose_2d(group_element(tri)) == {
        BasisElement("triangle", (-1, 1)): 1}
    seg = hull({(0, 0), (3, 6)}, 2)
    golden &= decompose_2d(group_element(seg)) == {
        BasisElement("segment", (1, 2)): 3}
    report(8, "polytope group (100 polygons + golden cases)",
           not failures and golden)


def test_criterion_9_phi_contracts():
    rep = run_suites(seed=0, names=["phi_homomorphism"])
    hom_ok = not rep["phi_homomorphism"]["failures"]
    surj_ok = all(class_equal_ideal(phi(ideal_to_polytope(I)), ideal_class(I))
                  for I in closed_ideals_in_box(5))
    rng = random.Random(42)
    surj_3d_ok = all(
        class_equal_ideal(phi(ideal_to_polytope(I)), ideal_class(I))
        for I in (random_closed_ideal(rng, dim=3) for _ in range(50)))
    report(9, "phi homomorphism and surjectivity",
           hom_ok and surj_ok and surj_3d_ok)


def test_criterion_10_colon_factorization_round_trip():
    bad = []
    for I in closed_ideals_in_box(6):
        if colon_factorization_2d(I).evaluate() != I:
            bad.append(I)
    report(10, "colon factorization round trip, box (6,6)", not bad)
