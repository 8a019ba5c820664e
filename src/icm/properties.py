"""Randomized property suites, shared by the test suite and the CLI.

Each suite function takes a seeded Random and a case count and returns a
list of failure descriptions (empty means the property held everywhere).
All checks are exact; the randomness only picks inputs.
"""

from __future__ import annotations

import random
from itertools import combinations

from .ideals import minimalize, ord_valuation, unit_ideal
from .monoid import is_star_irreducible, quotient_cancel, star, star_power
from .newton import integral_closure, mink_sum, np_equal, np_of
from .polytopes import (class_equal, class_equal_ideal, decompose_2d,
                        group_add, group_element, hull, ideal_class,
                        ideal_to_polytope, p_mink_sum, phi, phi_group, shadow)


def random_ideal(rng, dim=None):
    """A random monomial ideal (not necessarily closed): 1 to 4
    generators with exponents in [0, 3]."""
    if dim is None:
        dim = rng.choice([1, 2, 3])
    k = rng.randint(1, 4)
    pts = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(k)]
    return minimalize(pts, dim)


def random_closed_ideal(rng, dim=None):
    return integral_closure(random_ideal(rng, dim))


def random_polygon(rng):
    """A random 2D lattice polytope (possibly a segment or a point): the
    hull of 1 to 6 points in [-4, 4]^2."""
    k = rng.randint(1, 6)
    pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(k)]
    return hull(pts, 2)


# ---------------------------------------------------------------------------
# monoid suites


def suite_star_monoid_laws(rng, cases):
    failures = []
    for _ in range(cases):
        dim = rng.choice([2, 3])
        I = random_closed_ideal(rng, dim)
        J = random_closed_ideal(rng, dim)
        K = random_closed_ideal(rng, dim)
        if star(star(I, J), K) != star(I, star(J, K)):
            failures.append(f"associativity: {I} {J} {K}")
        if star(I, J) != star(J, I):
            failures.append(f"commutativity: {I} {J}")
        if star(I, unit_ideal(dim)) != I:
            failures.append(f"identity: {I}")
    return failures


def suite_np_homomorphism(rng, cases):
    """NP(I*J) equals NP(I) + NP(J) as polyhedra."""
    failures = []
    for _ in range(cases):
        dim = rng.choice([2, 3])
        I = random_closed_ideal(rng, dim)
        J = random_closed_ideal(rng, dim)
        if not np_equal(np_of(star(I, J)), mink_sum(np_of(I), np_of(J))):
            failures.append(f"NP homomorphism: {I} {J}")
    return failures


def suite_ord_additivity(rng, cases):
    failures = []
    for _ in range(cases):
        dim = rng.choice([1, 2, 3])
        I = random_closed_ideal(rng, dim)
        J = random_closed_ideal(rng, dim)
        if ord_valuation(star(I, J)) != ord_valuation(I) + ord_valuation(J):
            failures.append(f"ord additivity: {I} {J}")
    return failures


def suite_conical(rng, cases):
    """star(I, J) is the unit ideal only when both inputs are."""
    failures = []
    for _ in range(cases):
        dim = rng.choice([2, 3])
        I = random_closed_ideal(rng, dim)
        J = random_closed_ideal(rng, dim)
        if star(I, J).is_unit and not (I.is_unit and J.is_unit):
            failures.append(f"conical: {I} {J}")
    return failures


def suite_cancellation(rng, cases):
    """quotient_cancel(star(I, K), K) recovers I exactly."""
    failures = []
    for _ in range(cases):
        dim = rng.choice([2, 3])
        I = random_closed_ideal(rng, dim)
        K = random_closed_ideal(rng, dim)
        if quotient_cancel(star(I, K), K) != I:
            failures.append(f"cancellation: {I} {K}")
    return failures


def suite_torsion_free(rng, cases):
    """I != J implies star-powers stay distinct, n <= 3."""
    failures = []
    for _ in range(cases):
        dim = rng.choice([2, 3])
        I = random_closed_ideal(rng, dim)
        J = random_closed_ideal(rng, dim)
        if I == J:
            continue
        for n in (2, 3):
            if star_power(I, n) == star_power(J, n):
                failures.append(f"torsion-free (n={n}): {I} {J}")
    return failures


def suite_closure_laws(rng, cases):
    """Closure is idempotent and extensive."""
    failures = []
    for _ in range(cases):
        I = random_ideal(rng)
        C = integral_closure(I)
        if integral_closure(C) != C:
            failures.append(f"idempotence: {I}")
        if not all(any(all(a >= b for a, b in zip(g, h)) for h in C.gens)
                   for g in I.gens):
            failures.append(f"extensivity: {I}")
    return failures


def suite_primes_are_atoms(rng, cases):
    """Every monomial prime <e_i : i in S> is an atom, d <= 4."""
    del rng, cases  # deterministic and exhaustive at this scale
    failures = []
    for d in range(1, 5):
        for r in range(1, d + 1):
            for S in combinations(range(d), r):
                gens = [tuple(1 if k == i else 0 for k in range(d)) for i in S]
                P = minimalize(gens, d)
                if not is_star_irreducible(P):
                    failures.append(f"prime not an atom: {P}")
    return failures


# ---------------------------------------------------------------------------
# polytope suites


def suite_shadow_homomorphism(rng, cases):
    """[Sh(P+Q)] equals [Sh(P)] + [Sh(Q)] at class level, and Sh is
    idempotent."""
    failures = []
    for _ in range(cases):
        P = random_polygon(rng)
        Q = random_polygon(rng)
        lhs = group_element(shadow(p_mink_sum(P, Q)))
        rhs = group_add(group_element(shadow(P)), group_element(shadow(Q)))
        if not class_equal(lhs, rhs):
            failures.append(f"shadow homomorphism: {P} {Q}")
        if shadow(shadow(P)).verts != shadow(P).verts:
            failures.append(f"shadow idempotence: {P}")
    return failures


def suite_decompose_reconstruction(rng, cases):
    """decompose_2d passes its reconstruction identity and is linear."""
    failures = []
    for _ in range(cases):
        P = random_polygon(rng)
        Q = random_polygon(rng)
        try:
            cp = decompose_2d(group_element(P))
            cq = decompose_2d(group_element(Q))
            cs = decompose_2d(group_add(group_element(P), group_element(Q)))
        except AssertionError as ex:
            failures.append(f"reconstruction: {P} {Q}: {ex}")
            continue
        total = dict(cp)
        for B, c in cq.items():
            total[B] = total.get(B, 0) + c
        total = {B: c for B, c in total.items() if c}
        if total != cs:
            failures.append(f"linearity: {P} {Q}")
    return failures


def suite_phi_homomorphism(rng, cases):
    """phi_group(e1 + e2) class-equals phi_group(e1) * phi_group(e2)."""
    failures = []
    for _ in range(cases):
        e1 = group_element(random_polygon(rng), random_polygon(rng))
        e2 = group_element(random_polygon(rng), random_polygon(rng))
        lhs = phi_group(group_add(e1, e2))
        a, b = phi_group(e1), phi_group(e2)
        rhs = ideal_class(star(a.num, b.num), star(a.den, b.den))
        if not class_equal_ideal(lhs, rhs):
            failures.append(f"phi homomorphism: {e1} {e2}")
    return failures


def suite_phi_surjectivity(rng, cases):
    """phi(ideal_to_polytope(I)) lands on the class of I."""
    failures = []
    for _ in range(cases):
        dim = rng.choice([2, 3])
        I = random_closed_ideal(rng, dim)
        if not class_equal_ideal(phi(ideal_to_polytope(I)), ideal_class(I)):
            failures.append(f"phi surjectivity: {I}")
    return failures


MONOID_SUITES = {
    "star_monoid_laws": suite_star_monoid_laws,
    "np_homomorphism": suite_np_homomorphism,
    "ord_additivity": suite_ord_additivity,
    "conical": suite_conical,
    "cancellation": suite_cancellation,
    "torsion_free": suite_torsion_free,
    "closure_laws": suite_closure_laws,
    "primes_are_atoms": suite_primes_are_atoms,
}

POLYTOPE_SUITES = {
    "shadow_homomorphism": suite_shadow_homomorphism,
    "decompose_reconstruction": suite_decompose_reconstruction,
    "phi_homomorphism": suite_phi_homomorphism,
    "phi_surjectivity": suite_phi_surjectivity,
}

ALL_SUITES = {**MONOID_SUITES, **POLYTOPE_SUITES}


def run_suites(seed=0, cases=200, names=None):
    """Run the named suites (all by default); returns a report dict."""
    unknown = sorted(set(names or ()) - set(ALL_SUITES))
    if unknown:
        raise ValueError(f"unknown suite name(s): {', '.join(unknown)}")
    report = {}
    for name, fn in ALL_SUITES.items():
        if names is not None and name not in names:
            continue
        n = min(cases, 100) if name in POLYTOPE_SUITES else cases
        rng = random.Random(f"{seed}:{name}")
        failures = fn(rng, n)
        report[name] = {"cases": n, "failures": failures}
    return report
