"""Randomized property suites, shared by the test suite and the CLI.

Each suite function takes a seeded Random and a case count and returns a
list of failure descriptions (empty means the property held everywhere).
All but suite_primes_are_atoms are a per-case check run cases times
(_per_case).  A case of a monoid law draws its closed ideals through
_closed_ideals: one dimension, then every ideal in it.  All checks are
exact; the randomness only picks inputs.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import wraps
from itertools import combinations

from .ideals import contains, minimalize, ord_valuation, unit_ideal
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


def _closed_ideals(rng, n, dims=(2, 3)):
    """n random closed ideals in one dimension, which is drawn from dims
    first."""
    dim = rng.choice(dims)
    return [random_closed_ideal(rng, dim) for _ in range(n)]


def _per_case(check):
    """The suite that runs check(rng), a generator of one random case's
    failures, cases times and lists every failure."""
    @wraps(check)
    def suite(rng, cases):
        failures = []
        for _ in range(cases):
            failures.extend(check(rng))
        return failures
    return suite


# ---------------------------------------------------------------------------
# monoid suites


@_per_case
def suite_star_monoid_laws(rng):
    I, J, K = _closed_ideals(rng, 3)
    if star(star(I, J), K) != star(I, star(J, K)):
        yield f"associativity: {I} {J} {K}"
    if star(I, J) != star(J, I):
        yield f"commutativity: {I} {J}"
    if star(I, unit_ideal(I.dim)) != I:
        yield f"identity: {I}"


@_per_case
def suite_np_homomorphism(rng):
    """NP(I*J) equals NP(I) + NP(J) as polyhedra."""
    I, J = _closed_ideals(rng, 2)
    if not np_equal(np_of(star(I, J)), mink_sum(np_of(I), np_of(J))):
        yield f"NP homomorphism: {I} {J}"


@_per_case
def suite_ord_additivity(rng):
    I, J = _closed_ideals(rng, 2, dims=(1, 2, 3))
    if ord_valuation(star(I, J)) != ord_valuation(I) + ord_valuation(J):
        yield f"ord additivity: {I} {J}"


@_per_case
def suite_conical(rng):
    """star(I, J) is the unit ideal only when both inputs are."""
    I, J = _closed_ideals(rng, 2)
    if star(I, J).is_unit and not (I.is_unit and J.is_unit):
        yield f"conical: {I} {J}"


@_per_case
def suite_cancellation(rng):
    """quotient_cancel(star(I, K), K) recovers I exactly."""
    I, K = _closed_ideals(rng, 2)
    if quotient_cancel(star(I, K), K) != I:
        yield f"cancellation: {I} {K}"


@_per_case
def suite_torsion_free(rng):
    """I != J implies star-powers stay distinct, n <= 3."""
    I, J = _closed_ideals(rng, 2)
    if I == J:
        return
    for n in (2, 3):
        if star_power(I, n) == star_power(J, n):
            yield f"torsion-free (n={n}): {I} {J}"


@_per_case
def suite_closure_laws(rng):
    """Closure is idempotent and extensive."""
    I = random_ideal(rng)
    C = integral_closure(I)
    if integral_closure(C) != C:
        yield f"idempotence: {I}"
    if not all(contains(C, g) for g in I.gens):
        yield f"extensivity: {I}"


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


@_per_case
def suite_shadow_homomorphism(rng):
    """[Sh(P+Q)] equals [Sh(P)] + [Sh(Q)] at class level, and Sh is
    idempotent."""
    P = random_polygon(rng)
    Q = random_polygon(rng)
    lhs = group_element(shadow(p_mink_sum(P, Q)))
    rhs = group_add(group_element(shadow(P)), group_element(shadow(Q)))
    if not class_equal(lhs, rhs):
        yield f"shadow homomorphism: {P} {Q}"
    if shadow(shadow(P)).verts != shadow(P).verts:
        yield f"shadow idempotence: {P}"


@_per_case
def suite_decompose_reconstruction(rng):
    """decompose_2d passes its reconstruction identity and is linear."""
    P = random_polygon(rng)
    Q = random_polygon(rng)
    try:
        cp = decompose_2d(group_element(P))
        cq = decompose_2d(group_element(Q))
        cs = decompose_2d(group_add(group_element(P), group_element(Q)))
    except AssertionError as ex:
        yield f"reconstruction: {P} {Q}: {ex}"
        return
    total = Counter(cp)
    total.update(cq)  # a Counter compares missing and zero counts equal
    if total != Counter(cs):
        yield f"linearity: {P} {Q}"


@_per_case
def suite_phi_homomorphism(rng):
    """phi_group(e1 + e2) class-equals phi_group(e1) * phi_group(e2)."""
    e1 = group_element(random_polygon(rng), random_polygon(rng))
    e2 = group_element(random_polygon(rng), random_polygon(rng))
    lhs = phi_group(group_add(e1, e2))
    a, b = phi_group(e1), phi_group(e2)
    rhs = ideal_class(star(a.num, b.num), star(a.den, b.den))
    if not class_equal_ideal(lhs, rhs):
        yield f"phi homomorphism: {e1} {e2}"


@_per_case
def suite_phi_surjectivity(rng):
    """phi(ideal_to_polytope(I)) lands on the class of I."""
    [I] = _closed_ideals(rng, 1)
    if not class_equal_ideal(phi(ideal_to_polytope(I)), ideal_class(I)):
        yield f"phi surjectivity: {I}"


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
