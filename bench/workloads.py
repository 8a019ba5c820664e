"""The benchmark's workloads: seeded inputs, a fixed op list, and a check
for every op against reference answers (reference.py, or for 3D and 4D the
package's LP membership, which is a different route from the closure's
facet enumeration).

A builder takes a seeded Random, a scale ("full" or "tiny") and the
worker's Tracer (for work counters) and returns a list of Op.  Each op is
timed alone; checks run after the last op, so they neither pollute the
timings nor warm the package's caches for a later op.  Inputs within one
worker are distinct, because the package's module-level caches
(_irreducible_cache, _atom_divisor_cache, the _facet_inequalities LRU)
make repeats nearly free.  Sizes stay inside bounds measured as finite:
2D factorization inside box (5,5), decompose_2d spans <= 50, thin ideals
x^N,y^k with N <= 3000.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import reference as ref
from icm import (BudgetExceededError, MonomialIdeal, SearchBudget,
                 all_factorizations, class_equal, colon,
                 colon_factorization_2d, decompose_2d, divides, factor_atoms,
                 group_add, group_element, ideal_to_polytope,
                 integral_closure, is_integrally_closed, is_star_irreducible,
                 member, mink_sum, np_equal, np_of, phi, shadow, star)
from icm.polytopes import IntegralPolytope

# Far above what any op here examines (the Lipman search needs a few
# thousand); an op that hits it is a regression and counts as failed.
SEARCH_LIMIT = 200_000


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run        # () -> result; the only timed part
        self.check = check    # (result, results) -> bool


def ideal(gens):
    gens = ref.minimal(gens)
    return MonomialIdeal(len(gens[0]), gens)


def stratified(rng, lo, hi, n):
    """n values spread over [lo, hi], one from each equal-width stratum, so
    every seed gets the same mix of sizes."""
    return [lo + int((hi - lo) * (j + rng.random()) / n) for j in range(n)]


def budgeted(tracer, fn, *args):
    """Run a monoid search with an explicit budget; record what it spent."""
    budget = SearchBudget(SEARCH_LIMIT)
    try:
        return fn(*args, budget=budget)
    except BudgetExceededError:
        tracer.count("monoid.budget_exceeded")
        raise
    finally:
        tracer.count("monoid.examined", budget.examined)


def gens_of(result):
    return None if result is None else result.gens


# ---------------------------------------------------------------------------
# closure-mix


def _lp_closure_ok(base_gens, answer, dim):
    """Every answer generator is in NP(base) by LP, none can be lowered by
    a unit step and stay in NP, and the answer contains the base."""
    P = np_of(ideal(base_gens))
    for g in answer:
        if not member(P, g):
            return False
        for k in range(dim):
            if g[k] and member(P, g[:k] + (g[k] - 1,) + g[k + 1:]):
                return False
    return all(ref.contains(answer, g) for g in base_gens)


def _colon_brute(gens_i, gens_j):
    dim = len(gens_i[0])
    box = [max(g[k] for g in gens_i) for k in range(dim)]
    pts = [p for p in iproduct(*(range(b + 1) for b in box))
           if all(ref.contains(gens_i, tuple(a + b for a, b in zip(p, h)))
                  for h in gens_j)]
    return ref.minimal(pts)


def _np_points(rng, gens):
    """A rational point of NP (convex combination of two generators plus
    slack, sometimes on the boundary) and one outside it (total degree
    below ord)."""
    g, h = rng.sample(list(gens), 2) if len(gens) > 1 else (gens[0], gens[0])
    t = Fraction(rng.randint(1, 6), 7)
    slack = [Fraction(rng.randint(0, 2), 3) for _ in g]
    inside = tuple(t * a + (1 - t) * b + s for a, b, s in zip(g, h, slack))
    ord_ = min(sum(p) for p in gens)
    w = [rng.randint(1, 5) for _ in g]
    target = ord_ - Fraction(1, 3)
    outside = tuple(Fraction(v * target, sum(w)) for v in w)
    return inside, outside


def near_diagonal(rng, box, n):
    """n lattice points p with sum(p_k / box_k) within 15% of 1: close to
    the simplex spanned by the axis generators, so the Newton polyhedron
    keeps about the same size and shape from seed to seed."""
    dim = len(box)
    pts = []
    for _ in range(n):
        w = [rng.random() + 0.05 for _ in range(dim)]
        t = (1 + rng.uniform(-0.15, 0.15)) / sum(w)
        pts.append(tuple(max(0, min(b, round(b * wk * t)))
                         for b, wk in zip(box, w)))
    return pts


def _axis_ideal(rng, dim, top):
    """(x_1^a_1, ..., x_d^a_d) with 1 <= a_k <= top: a factor with exactly
    d generators, since colon and np_equal cost grow with its size."""
    return ref.minimal(tuple(rng.randint(1, top) if i == k else 0
                             for i in range(dim)) for k in range(dim))


# Box sizes per slot.  Costs grow with the square or cube of the size, so
# each slot takes its size within +-1 of a fixed base: the seed varies the
# generators, not the mix of costs.
SIZES_2D = [12, 20, 28, 36, 44, 52]
THIN_N = [1500, 2500]
SIZES_3D = [5, 6, 8]
SIZES_4D = [4, 5]
# Membership queries per ideal.  They are the common cheap op, and with
# more than half the ops alike the median latency does not hinge on which
# of two very different ops lands in the middle.
MEMBERS_2D = 10
MEMBERS_HIGH_DIM = 2  # inside and outside points each


def jittered(rng, bases, spread=1):
    return [b + rng.randint(-spread, spread) for b in bases]


def build_closure_mix(rng, scale, tracer):
    full = scale == "full"
    ops = []

    # 2D ideals with exponents up to about 60, generators near the diagonal
    # of the box so the closure has about min(ex, ey) generators: colon and
    # np_equal cost grows with that count.
    for e in jittered(rng, SIZES_2D if full else SIZES_2D[:1]):
        ex, ey = e, e + rng.randint(-2, 2)
        G = ref.minimal([(ex, 0), (0, ey)] + near_diagonal(rng, (ex, ey), 3))
        C = ref.closure_2d(G)
        J = _axis_ideal(rng, 2, 3)
        S = ref.star_2d(C, J)
        I, IC, JI, SI = ideal(G), ideal(C), ideal(J), ideal(S)
        ops += [
            Op("integral_closure", lambda I=I: integral_closure(I),
               lambda r, _, C=C: gens_of(r) == C),
            Op("is_integrally_closed", lambda I=I: is_integrally_closed(I),
               lambda r, _, ok=(C == G): r is ok),
            Op("is_integrally_closed", lambda I=IC: is_integrally_closed(I),
               lambda r, _: r is True),
            Op("star", lambda a=IC, b=JI: star(a, b),
               lambda r, _, S=S: gens_of(r) == S),
            Op("colon", lambda a=IC, b=JI: colon(a, b),
               lambda r, _, K=ref.colon_2d(C, J): gens_of(r) == K),
            Op("np_equal",
               lambda a=np_of(SI), b=mink_sum(np_of(IC), np_of(JI)):
               np_equal(a, b),
               lambda r, _: r is True),
        ]
        # Rational points within 2/5 of the Newton polygon's boundary.
        chain = ref.newton_chain_2d(G)
        P = np_of(I)
        for _ in range(MEMBERS_2D):
            x = Fraction(rng.randint(0, 7 * ex), 7)
            y = ref._height(chain, x) + Fraction(rng.randint(-2, 2), 5)
            q = (x, max(y, Fraction(0)))
            ops.append(Op("member", lambda P=P, q=q: member(P, q),
                          lambda r, _, ok=ref.member_2d(G, q): r is ok))

    # Long thin ideals x^N, y^k: they set the tail.
    for j, n in enumerate(jittered(rng, THIN_N, 50) if full else [200]):
        G = ((0, 3 + j), (n, 0))
        C = ref.closure_2d(G)
        ops += [
            Op("integral_closure", lambda I=ideal(G): integral_closure(I),
               lambda r, _, C=C: gens_of(r) == C),
            Op("is_integrally_closed",
               lambda I=ideal(C): is_integrally_closed(I),
               lambda r, _: r is True),
        ]

    # 3D ideals with exponents <= 8 and 4D ideals with exponents <= 5.
    for dim, sizes in ((3, SIZES_3D), (4, SIZES_4D)):
        for e in sizes if full else sizes[:1]:
            axes = [tuple(e if i == k else 0 for i in range(dim))
                    for k in range(dim)]
            G = ref.minimal(axes + near_diagonal(rng, (e,) * dim, 3))
            I = ideal(G)
            k = len(ops)
            ops += [
                Op("integral_closure", lambda I=I: integral_closure(I),
                   lambda r, _, G=G, d=dim: _lp_closure_ok(G, r.gens, d)),
                Op("is_integrally_closed",
                   lambda I=I: is_integrally_closed(I),
                   lambda r, res, k=k, I=I: r is (res[k] == I)),
            ]
            P = np_of(I)
            for _ in range(MEMBERS_HIGH_DIM):
                inside, outside = _np_points(rng, G)
                ops += [Op("member", lambda P=P, q=inside: member(P, q),
                           lambda r, _: r is True),
                        Op("member", lambda P=P, q=outside: member(P, q),
                           lambda r, _: r is False)]
            if dim == 3:
                J = _axis_ideal(rng, 3, 2)
                JI = ideal(J)
                prod = ref.product(G, J)
                ops += [
                    Op("star", lambda a=I, b=JI: star(a, b),
                       lambda r, _, p=prod: _lp_closure_ok(p, r.gens, 3)),
                    Op("colon", lambda a=I, b=JI: colon(a, b),
                       lambda r, _, K=_colon_brute(G, J): gens_of(r) == K),
                    Op("np_equal",
                       lambda a=np_of(ideal(prod)),
                       b=mink_sum(np_of(I), np_of(JI)): np_equal(a, b),
                       lambda r, _: r is True),
                ]
    return ops


# ---------------------------------------------------------------------------
# factorization

LIPMAN = ((0, 0, 4), (0, 1, 2), (0, 2, 1), (0, 4, 0), (1, 0, 2), (1, 1, 1),
          (1, 2, 0), (2, 0, 1), (2, 1, 0), (4, 0, 0))  # star(m, J1)
M3 = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
J1 = ((0, 0, 3), (0, 1, 1), (0, 3, 0), (1, 0, 1), (1, 1, 0), (3, 0, 0))
J1P_J2P = ((0, 0, 2), (0, 1, 1), (0, 3, 0), (1, 0, 1), (1, 1, 0),
           (3, 0, 0))  # star(J1', J2')
J3P = ((0, 0, 2), (0, 1, 0), (1, 0, 0))

# Search sizes (candidates an exhaustive divisor search over the generator
# box examines; reference.search_size) of the box-(5,5) ideals each op is
# given.  The log of the search size predicts the log of the cost of
# all_factorizations and factor_atoms with correlation 0.98, so drawing
# each input near a fixed target fixes the mix of costs for every seed.
FACTOR_TARGETS = {
    "all_factorizations": [12, 25, 50, 100, 200],
    "factor_atoms": [18, 35, 70, 140, 280],
    "is_star_irreducible": [5, 7, 10, 14, 20, 28, 40, 56, 80, 110, 160,
                            220],
    # Cheap, and many of them: with the median op in a block of 100 draws
    # the run's median latency rests on ~600 samples of the same kind.
    "divides_yes": [round(5 * 1.04 ** k) for k in range(100)],
    "divides_no": [15, 30, 60],
}
TINY_FACTOR_TARGETS = {
    "all_factorizations": [12], "factor_atoms": [18],
    "is_star_irreducible": [5, 13], "divides_yes": [5], "divides_no": [15],
}


def closed_pool_2d():
    """(search size, generators) of every closed 2D ideal in box (5,5)
    with ord >= 2."""
    return [(ref.search_size(g), g) for g in ref.all_closed_2d(5)
            if min(sum(p) for p in g) >= 2]


def _draw(rng, pool, target, used):
    """One of the four unused ideals whose search size is nearest the
    target (in ratio)."""
    free = sorted((abs(math.log(n / target)), g) for n, g in pool
                  if g not in used)
    gens = rng.choice(free[:4])[1]
    used.add(gens)
    return gens


def _atoms_ok(atoms, gens):
    return (sorted(a.gens for a in atoms) == ref.zariski_atoms(gens)
            and ref.star_fold_2d([a.gens for a in atoms]) == gens)


def _all_fact_2d_ok(result, gens):
    return len(result) == 1 and _atoms_ok(next(iter(result)), gens)


def _lipman_ok(result):
    L = ideal(LIPMAN)
    if star(ideal(M3), ideal(J1)) != L:
        return False
    for fz in result:
        folded = ideal(((0, 0, 0),))
        for atom in fz:
            folded = star(folded, atom)
        if folded != L:
            return False
    return sorted({len(fz) for fz in result}) == [2, 3]


def _small_atoms():
    atoms = [((1, 0),), ((0, 1),)]
    atoms += [ref.axis_atom(a, b) for a in range(1, 4) for b in range(1, 4)
              if gcd(a, b) == 1]
    return atoms


def build_factorization(rng, scale, tracer):
    """The cheap ops run first, while the package's search caches are
    cold; the big searches and Lipman's example run last."""
    full = scale == "full"
    targets = FACTOR_TARGETS if full else TINY_FACTOR_TARGETS
    pool = closed_pool_2d()
    used = set()
    ops = []
    for t in targets["divides_yes"]:
        g = _draw(rng, pool, t, used)
        atoms = ref.zariski_atoms(g)
        a = rng.choice(atoms)
        rest = list(atoms)
        rest.remove(a)
        ops.append(Op("divides",
                      lambda a=ideal(a), J=ideal(g): budgeted(tracer, divides,
                                                              a, J),
                      lambda r, _, K=ref.star_fold_2d(rest): gens_of(r) == K))
    for t in targets["is_star_irreducible"]:
        g = _draw(rng, pool, t, used)
        ops.append(Op("is_star_irreducible",
                      lambda I=ideal(g): budgeted(tracer, is_star_irreducible,
                                                  I),
                      lambda r, _, ok=len(ref.zariski_atoms(g)) == 1:
                      r is ok))
    small = _small_atoms()
    for t in targets["divides_no"]:
        g = _draw(rng, pool, t, used)
        a = rng.choice([b for b in small if b not in ref.zariski_atoms(g)])
        ops.append(Op("divides",
                      lambda a=ideal(a), J=ideal(g): budgeted(tracer, divides,
                                                              a, J),
                      lambda r, _: r is None))
    if full:
        # Criterion 4's two "no" answers: m divides neither J1'*J2' nor J3'.
        for J in (J1P_J2P, J3P):
            ops.append(Op("divides",
                          lambda J=ideal(J): budgeted(tracer, divides,
                                                      ideal(M3), J),
                          lambda r, _: r is None))
    for t in targets["factor_atoms"]:
        g = _draw(rng, pool, t, used)
        ops.append(Op("factor_atoms",
                      lambda I=ideal(g): budgeted(tracer, factor_atoms, I),
                      lambda r, _, g=g: _atoms_ok(r.atoms, g)))
    for t in targets["all_factorizations"]:
        g = _draw(rng, pool, t, used)
        ops.append(Op("all_factorizations",
                      lambda I=ideal(g): budgeted(tracer, all_factorizations,
                                                  I),
                      lambda r, _, g=g: _all_fact_2d_ok(r, g)))
    ops.append(Op("all_factorizations",
                  lambda: budgeted(tracer, all_factorizations, ideal(LIPMAN)),
                  lambda r, _: _lipman_ok(r)))
    return ops


# ---------------------------------------------------------------------------
# polytope-group


def _polygon(rng, span):
    pts = [(rng.randint(0, span), rng.randint(0, span))
           for _ in range(rng.randint(5, 12))]
    return IntegralPolytope(2, ref.hull_2d(pts))


def _element_verts(e):
    return ref.normalize(e.pos.verts)[0], ref.normalize(e.neg.verts)[0]


def _class_equal_ref(x, y):
    left = ref.normalize(ref.mink_2d(x.pos.verts, y.neg.verts))[0]
    right = ref.normalize(ref.mink_2d(y.pos.verts, x.neg.verts))[0]
    return left == right


def _decompose_ok(e, coeffs):
    """The coefficients rebuild the element: pos + sum of negative parts is
    a translate of neg + sum of positive parts, with c*B taken as B scaled
    by c (one hull per basis element instead of |c| Minkowski sums)."""
    left, right = e.neg.verts, e.pos.verts
    for B, c in coeffs.items():
        v = B.v
        if (gcd(abs(v[0]), abs(v[1])) != 1
                or not (v[1] > 0 or (v[1] == 0 and v[0] > 0))
                or (B.kind == "triangle" and 0 in v)):
            return False
        part = ref.scale(ref.basis_polytope(B.kind, v), abs(c))
        if c > 0:
            left = ref.mink_2d(left, part)
        else:
            right = ref.mink_2d(right, part)
    return ref.normalize(left)[0] == ref.normalize(right)[0]


def _polytope_3d_ok(gens, P):
    verts = set(P.verts)
    if not verts <= set(gens):
        return False
    for v in verts:
        if ref.in_simplex_hull([p for p in gens if p != v], v):
            return False
    return all(ref.in_simplex_hull(sorted(verts), p)
               for p in gens if p not in verts)


def build_polytope_group(rng, scale, tracer):
    full = scale == "full"
    ops = []
    spans = stratified(rng, 10, 51, 72 if full else 2)
    polys = [_polygon(rng, s) for s in spans]
    for j, P in enumerate(polys):
        Q = polys[j - 1]
        e = group_element(P, Q) if j % 2 else group_element(P)
        a, b = group_element(P, Q), group_element(polys[j - 2], P)
        PQ = IntegralPolytope(2, ref.mink_2d(P.verts, Q.verts))
        x_true, y_true = group_element(PQ, Q), group_element(P)
        x_false, y_false = group_element(P), group_element(Q)
        expected_sum = (ref.normalize(ref.mink_2d(a.pos.verts,
                                                  b.pos.verts))[0],
                        ref.normalize(ref.mink_2d(a.neg.verts,
                                                  b.neg.verts))[0])
        ops += [
            Op("decompose_2d", lambda e=e: decompose_2d(e),
               lambda r, _, e=e: _decompose_ok(e, r)),
            Op("shadow", lambda P=P: shadow(P),
               lambda r, _, s=ref.shadow_2d(P.verts): r.verts == s),
            Op("group_add", lambda a=a, b=b: group_add(a, b),
               lambda r, _, s=expected_sum: _element_verts(r) == s),
            Op("class_equal", lambda x=x_true, y=y_true: class_equal(x, y),
               lambda r, _: r is True),
            Op("class_equal", lambda x=x_false, y=y_false: class_equal(x, y),
               lambda r, _, ok=_class_equal_ref(x_false, y_false): r is ok),
        ]
    for s in stratified(rng, 4, 21, 12 if full else 1):
        P = _polygon(rng, s)
        ops.append(Op("phi", lambda P=P: phi(P),
                      lambda r, _, n=ref.phi_num_2d(P.verts):
                      r.num.gens == n and r.den.is_unit))
    pool = [g for _, g in closed_pool_2d()]
    for g in rng.sample(pool, 24 if full else 2):
        I = ideal(g)
        ops.append(Op("colon_factorization_2d",
                      lambda I=I: colon_factorization_2d(I),
                      lambda r, _, I=I: r.evaluate() == I))
    for _ in range(8 if full else 1):
        g = ref.minimal(tuple(rng.randint(0, 4) for _ in range(3))
                        for _ in range(7))
        ops.append(Op("ideal_to_polytope",
                      lambda I=ideal(g): ideal_to_polytope(I),
                      lambda r, _, g=g: _polytope_3d_ok(g, r)))
    return ops


# ---------------------------------------------------------------------------
# cli-readme


def _cli(args, env=None):
    return subprocess.run([sys.executable, "-m", "icm.cli", *args],
                          capture_output=True, text=True, timeout=60,
                          env=env)


def _one_json_object(stdout):
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    try:
        out = json.loads(lines[0])
    except ValueError:
        return None
    return out if isinstance(out, dict) else None


def _cli_ok(proc, code, command):
    out = _one_json_object(proc.stdout)
    if out is None or proc.returncode != code:
        return False
    if code == 0:
        return out.get("command") == command and proc.stderr == ""
    return "error" in out


def readme_commands(rng, scale):
    """The README's CLI commands, with seeded exponents where the command
    accepts any ideal; `verify lipman` is left to the factorization
    workload.  Returns (metric name, argv, expected exit code, canonical
    command)."""
    a, b = rng.randint(2, 7), rng.randint(2, 7)
    c = rng.randint(2, 5)
    p, q = rng.randint(1, 5), rng.randint(1, 5)
    cmds = [
        ("closure", ["closure", f"x^{a},y^{b}"], 0, "closure"),
        ("closed", ["closed?", f"x^{c},x*y,y^{c}"], 0, "closed?"),
        ("star", ["star", "x,y", f"x^{c},y"], 0, "star"),
        ("ord", ["ord", f"x^{a},y^{b},z^3,x*y,x*z,y*z"], 0, "ord"),
        ("colon", ["colon", f"x^{a},x*y,y^{b}", "x,y"], 0, "colon"),
        ("factor", ["factor", "x^2,x*y,y^2"], 0, "factor"),
        ("factorizations", ["factorizations", "x^2,x*y,y^2"], 0,
         "factorizations"),
        ("irreducible", ["irreducible?", "x,y"], 0, "irreducible?"),
        ("divides", ["divides", "x,y", "x^2,x*y,y^2"], 0, "divides"),
        ("decompose2d", ["decompose2d", f"0,0; {p},0; 0,{q}"], 0,
         "decompose2d"),
        ("phi", ["phi", f"{p},0; 0,{q}"], 0, "phi"),
        ("colon-factor", ["colon-factor", "x^2,x*y^2,y^3"], 0,
         "colon-factor"),
        ("props", ["props", "--seed", str(rng.randint(0, 999)), "--cases",
                   "3" if scale == "full" else "1"], 0, "props"),
        # The documented error paths.
        ("error-parse", ["closure", f"x^{a},y^"], 1, None),
        ("error-precondition", ["irreducible?", f"x^{c},y^{c}"], 2, None),
        ("error-budget", ["--budget", "1", "factor", "x^2,x*y,y^2"], 3,
         None),
    ]
    return cmds if scale == "full" else cmds[:3] + cmds[-3:]


def build_cli_readme(rng, scale, tracer):
    return [Op(name, lambda argv=argv: _cli(argv),
               lambda r, _, code=code, cmd=cmd: _cli_ok(r, code, cmd))
            for name, argv, code, cmd in readme_commands(rng, scale)]


def cli_probes(root):
    """Inputs that should give one JSON object and exit code 1 or 2 but,
    in the package as it stands, end in a Python traceback.  They are run
    after the timed ops and reported as cli.traceback_exits instead of as
    failed ops, so the failure count stays a regression signal."""
    missing = os.path.join(root, "bench", "no-such-ideal.json")
    probes = [(["closure", "x"], dict(os.environ, ICM_BUDGET="abc")),
              (["--json", "closure", missing], None)]
    bad = 0
    for argv, env in probes:
        proc = _cli(argv, env)
        if _one_json_object(proc.stdout) is None or proc.returncode not in (1,
                                                                            2):
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# A deliberately oversized op, for the overrun guard's test only.


def build_oversized_decompose(rng, scale, tracer):
    P = IntegralPolytope(2, ((0, 0), (10 ** 6, 1), (1, 10 ** 6)))
    return [Op("decompose_2d", lambda e=group_element(P): decompose_2d(e),
               lambda r, _: True)]


WORKLOADS = {
    "closure-mix": build_closure_mix,
    "factorization": build_factorization,
    "polytope-group": build_polytope_group,
    "cli-readme": build_cli_readme,
}
PROBE_WORKLOADS = {"oversized-decompose": build_oversized_decompose}
