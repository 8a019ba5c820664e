"""The monoid of integrally closed monomial ideals under I*J = closure(IJ).

Everything here rests on NP(J*K) = NP(J) + NP(K), and four answers are
read off it with no search.  Each (x_i) is prime and least values add,
so I = x^m·R splits once into m_i copies of each (x_i) and an R with no
monomial factor, whose divisors have none either (_prime_copies).  An
NP(R) with one facet off the coordinate hyperplanes is g·NP(S), for g
the gcd of its intercepts and a simplex S whose only lattice summands
are its own dilates, so R is g copies of the atom S: Zariski's one-edge
rule, in any dimension (_atom_power).  NP(I^n) = n·NP(I), so a star
power is one closure (star_power).  In two variables a Newton polygon
is its corner and its descending edges counted by lattice length, and a
Minkowski sum adds both.  So a star is built from the summed reading
(star), R's one factorization (Zariski) is read off the edges, c copies
of closure(x^a, y^b) per edge of step (a, b) and length c, and
divisibility and the cofactor are a comparison and a difference of two
readings (divides).  One owner proves every query's input closed
(newton._require_closed); in 2D the same reading gives the corner and
edges.  The three factorization queries take one split of I off it
(_split): the corner, the 2D edges and R, whose closedness stands for
I's.  factor_atoms and all_factorizations build its atoms by one builder
(_atoms), and is_star_irreducible counts them.  In other dimensions a
divisor J of I has only I's facet normals, and each vertex of NP(I) is a
vertex of NP(J) plus one of the cofactor's: divisibility and the
cofactor are read off I's one facet description (_Dividend).  A closed
divisor J is fixed by its support vector h_J, its least values on I's
facet normals c, since NP(J) =
{x >= 0 : c.x >= h_J(c)} =: P(h_J); and h_{J*K} = h_J + h_K, since
least values add under Minkowski sums.  The vectors lie in NP(I)'s type
cone (McMullen 1973), where P(g) + P(h) = P(g + h), so for divisors J
and K of I, J star-divides K iff h_K - h_J is a divisor's vector.  The
vectors are read off maps of NP(I)'s vertices that move each bounded
edge by a part of its lattice length (Shephard 1963), found by a
depth-first search over the edges (_Dividend.divisors), so a d >= 3
factorization that no rule reads is one finite search, whose cost
follows the number of divisors, plus vector arithmetic: factor_atoms
stops at the first split (_proper_split), all_factorizations collects
every divisor.  Searches carry an explicit budget; running out raises
BudgetExceededError, never a wrong negative.

Inputs are checked where they enter, by MonomialIdeal.  The ideals built
here skip those checks where they are sorted antichains by proof: a
d >= 3 star and every star_power close their raw points (pairwise sums,
dilated generators; the closure reads only the points' hull, so none is
minimalized) by newton._closure_of_points, _Dividend's divisors and
cofactors and a dilated simplex's atom are walks of facets by
newton._lattice_ideal, a 2D star, closure (a star power's included),
cofactor or atom is read off its polygon's edges by
newton._closed_from_edges, and the R of I = x^m·R is
normalize_translation's shift.  The primes (x_i), one ideal per variable
present (_prime_copies), and closed_supersets' candidates keep the
checks.
"""

from __future__ import annotations

from itertools import combinations, product as iter_product
from math import gcd
from operator import add, le, mul, sub

from .errors import (DEFAULT_BUDGET, NotIntegrallyClosedError,
                     NotStarMultipleError, _as_budget)
from .ideals import (_Record, _check_dims, box_points, contains,
                     dominates, generator_box, minimalize,
                     normalize_translation, ord_valuation, principal_ideal)
from .newton import (_closed_from_counts, _closed_from_edges,
                     _closure_of_points, _descending_edges,
                     _facet_inequalities, _lattice_ideal, _require_closed,
                     _vertex_slacks, is_integrally_closed)


def star(I, J):
    """The monoid operation: integral closure of the product.  The
    closure reads only NP(IJ) = NP(I) + NP(J).  In two variables that sum
    adds the operands' corners and merges their descending edges by
    slope, so the star is built from the summed corner and edge Counter
    (newton._closed_from_counts), with no pairwise sum formed.  Other
    dimensions close the pairwise sums of the generators, which support
    the sum, as they are: no product is formed and none is minimalized."""
    _check_dims(I, J)
    if I.dim == 2:
        (ix, iy), edges = _descending_edges(I.gens)
        (jx, jy), more = _descending_edges(J.gens)
        return _closed_from_counts((ix + jx, iy + jy), edges + more)
    return _closure_of_points(
        {tuple(map(add, g, h)) for g in I.gens for h in J.gens}, I.dim)


def star_power(I, n):
    """I star-multiplied by itself n times; the monoid has no inverses.

    NP(J*K) = NP(J) + NP(K), and P + ... + P = n·P for a convex P, so
    NP(I^n) = n·NP(I) = conv(n·g for g in I's generators) + R^d_+: the
    closure of the n-th powers of the generators, which in two variables
    is read off their polygon's edges, I's scaled by n, with no walk
    (newton._closure_of_points).  n = 0 gives the unit."""
    if n < 0:
        raise ValueError("the monoid has no inverses, so n must be >= 0")
    return _closure_of_points(
        {tuple(n * a for a in g) for g in I.gens}, I.dim)


def quotient_cancel(S, K):
    """Recover H from S = star(H, K), read off S's facets by divides."""
    H = divides(K, S)
    if H is None:
        raise NotStarMultipleError("ideal is not a star multiple of the divisor")
    return H


def closed_supersets(I, budget=None):
    """All integrally closed J >= I with minimal generators in box(I), each
    candidate charged to the budget; no library query walks them.  Such J
    are up-sets of the box containing I's exponents; the excluded region,
    a down-set of I's box complement, is enumerated by its antichain of
    maximal elements."""
    budget = _as_budget(budget)
    complement = sorted((p for p in box_points(generator_box(I))
                         if not contains(I, p)), key=lambda p: (sum(p), p))

    def rec(start, chosen, down):
        budget.spend()
        # a minimal point of box - down inside I is a generator of I
        J = minimalize(I.gens + tuple(p for p in complement
                                      if p not in down), I.dim)
        if is_integrally_closed(J):
            yield J
        for i in range(start, len(complement)):
            p = complement[i]
            # p follows each chosen c in (degree, p) order, so p <= c fails
            if not any(dominates(p, c) for c in chosen):
                yield from rec(i + 1, chosen + [p], down | {
                    q for q in complement if dominates(p, q)})

    yield from rec(0, [], set())


class _Dividend:
    """What a divisibility test reads of a closed ideal I: its facets
    c.x >= m, each vertex v of NP(I) with its slacks c.v - m, and its box.
    divides and the divisor search read it for d != 2 (2D divisibility
    and factorization read Newton polygon edges instead); it is exact in
    every dimension, and the tests check it on 2D ideals too.

    For any J, let h_J(c) be the least value of c on J and K the lattice
    points of {x >= 0 : c.x >= m - h_J(c)}.  Then J·K lies in NP(I), hence
    in I, so star(J, K) == I iff every vertex of NP(I) lies in J·K; K is
    then the cofactor, J's facet normals are I's, and P(h_J) = {x >= 0 :
    c.x >= h_J(c)} is NP(J).  One facet description, I's, decides every J.
    """

    def __init__(self, I):
        self.facets = _facet_inequalities(I.gens, I.dim)
        self.box = generator_box(I)
        self.vertex_slacks = sorted(_vertex_slacks(I.gens, self.facets).items())

    def support(self, J):
        """h_J on I's facet normals if J star-divides I, else None.

        A vertex v of NP(I) lies in J·K iff some generator g <= v of J
        exceeds h_J on each facet by at most v's slack there.  The slack is
        0 on the facets tight at v, so g attains h_J on all of them: the
        normal fan of NP(J) is coarser than that of NP(I).
        """
        values = [[sum(map(mul, c, g)) for c, _ in self.facets]
                  for g in J.gens]
        h = tuple(map(min, zip(*values)))
        excess = [(g, [a - b for a, b in zip(row, h)])
                  for g, row in zip(J.gens, values)]
        if all(any(dominates(v, g) and all(map(le, e, slack))
                   for g, e in excess) for v, slack in self.vertex_slacks):
            return h
        return None

    def ideal(self, h):
        """The lattice points of P(h); a divisor's lie in I's box."""
        return _lattice_ideal([(c, t) for (c, _), t in zip(self.facets, h)],
                              self.box)

    def cofactor(self, h):
        """The K with star(J, K) == I for a J with h = support(J)."""
        return self.ideal([m - t for (_, m), t in zip(self.facets, h)])

    def divisors(self, budget):
        """h_J for each closed divisor J = ideal(h_J) of I, the unit and I
        included, each once, by a depth-first search over a spanning tree
        of NP(I)'s bounded edges, whose cost follows the number of
        divisors, not the boxes below NP(I)'s vertices.

        A divisor is a map v -> q_v of the vertices.  They are placed one
        at a time, each with the most edges to those placed before it, so
        that cycles close early.  On its first such edge, from p with
        primitive step u and lattice length l, w takes q_w = q_p + t·u for
        an integer t in [0, l]; on each other one, from o with step u' and
        length l', q_w - q_o must be t'·u' with t' in [0, l'].  Two edges
        at w are not parallel, so at most one t meets the first of these,
        and Cramer's rule gives it.  A full map fixes the divisor up to a
        translation tau: it yields h(c) = c.(q_v + tau), v any vertex on
        c's facet, once for each tau with 0 <= q_v + tau <= v at every
        vertex, and t takes only the steps that leave such a tau.  Each map
        tried, the first vertex's alone included, and each translate
        yielded is charged to the budget.

        Two vertices span a bounded edge iff no third vertex's mask of
        tight facets contains their common one: the least face holding
        both then has no other vertex, and the bounded edges of a pointed
        polyhedron connect its vertices (newton._double_description's
        adjacency test, with at least d - 1 common facets).

        Every full map is a divisor's (Shephard 1963, here with NP(I)'s
        recession cone).  Let c be inside v's normal cone, so c > 0 and v
        alone attains c's least value on NP(I).  From any vertex a path of
        bounded edges descends strictly in c to v, and on each of its edges
        c.(q_w - q_o) = (t/l)·c.(w - o), so c is least over the q at q_v,
        and over the v - q_v at v - q_v.  The support functions of Q =
        conv(q) + R^d_+ and Q' = conv(v - q) + R^d_+ then add to NP(I)'s on
        a dense set of normals, so Q + Q' = NP(I).  Both have lattice
        vertices in R^d_+, so they are closed ideals' NPs, ideal(h) and its
        cofactor, whose star product is I.  Every closed divisor J gives a
        full map: q_v is the vertex of NP(J) where c is least, at most v by
        support's test, and at an edge the faces of NP(J) and of its
        cofactor's NP sum to the edge, so q_w - q_o = t·u with t an integer
        in [0, l], as the q are lattice points.  Distinct steps and
        translations give distinct maps, hence distinct Q: no divisor comes
        twice."""
        verts, slacks = zip(*self.vertex_slacks)
        masks = [sum(1 << i for i, s in enumerate(slack) if s == 0)
                 for slack in slacks]
        dim = len(self.box)
        # each vertex's edges: (neighbour, primitive step from it, length)
        neighbours = [[] for _ in verts]
        for i, j in combinations(range(len(verts)), 2):
            common = masks[i] & masks[j]
            if common.bit_count() >= dim - 1 and not any(
                    z & common == common for k, z in enumerate(masks)
                    if k != i and k != j):
                diff = list(map(sub, verts[j], verts[i]))
                length = gcd(*diff)
                step = [a // length for a in diff]
                neighbours[j].append((i, step, length))
                neighbours[i].append((j, [-a for a in step], length))
        # each vertex after the first, the one with the most edges to those
        # placed before it, so that cycles close early: its first such edge
        # is its tree edge, the others are checked
        placed, tree = [0], []
        while len(placed) < len(verts):
            w = max((w for w in range(len(verts)) if w not in placed),
                    key=lambda w: (sum(o in placed for o, _, _ in
                                       neighbours[w]), -w))
            (p, step, length), *checks = [e for e in neighbours[w]
                                          if e[0] in placed]
            pair = None
            if checks:
                # two coordinates on which the first check's step and the
                # tree edge's are independent, with their determinant
                s = checks[0][1]
                pair = next((i, j, s[i] * step[j] - step[i] * s[j])
                            for i, j in combinations(range(dim), 2)
                            if s[i] * step[j] != step[i] * s[j])
            tree.append((w, p, step, length, checks, pair))
            placed.append(w)
        normals = [c for c, _ in self.facets]
        on_facet = [(c, next(j for j, s in enumerate(slacks) if s[f] == 0))
                    for f, c in enumerate(normals)]

        def on_edge(diff, step, length):
            t = next(a // u for a, u in zip(diff, step) if u)
            return 0 <= t <= length and all(a == t * u
                                            for a, u in zip(diff, step))

        def rec(k, q, lo, hi):
            if k == len(tree):
                base = [sum(map(mul, c, q[j])) for c, j in on_facet]
                for tau in iter_product(*map(range, lo, [b + 1 for b in hi])):
                    budget.spend()
                    yield tuple(b + sum(map(mul, c, tau))
                                for b, c in zip(base, normals))
                return
            w, p, step, length, checks, pair = tree[k]
            v, qp = verts[w], q[p]
            # some lo <= tau <= hi has 0 <= q_w + tau <= v iff, per
            # coordinate, -(hi + q_p) <= t·u <= v - q_p - lo
            t_lo, t_hi = 0, length
            for u, a, b, x, y in zip(step, qp, v, lo, hi):
                low, high = -(y + a), b - a - x
                if u < 0:
                    low, high = high, low  # dividing by u flips them
                if u:
                    t_lo, t_hi = max(t_lo, -(-low // u)), min(t_hi, high // u)
                elif high < 0:
                    return
            steps = range(t_lo, t_hi + 1)
            if pair:
                # edges to w from p and from o are not parallel, so q_p +
                # t·u = q_o + t'·s meet at one t at most (Cramer's rule on
                # two coordinates)
                i, j, det = pair
                o, s, _ = checks[0]
                t, r = divmod(s[i] * (q[o][j] - qp[j])
                              - s[j] * (q[o][i] - qp[i]), det)
                steps = [t] if r == 0 and t_lo <= t <= t_hi else []
            for t in steps:
                budget.spend()
                qw = [a + t * u for a, u in zip(qp, step)]
                if all(on_edge(list(map(sub, qw, q[o])), s, l)
                       for o, s, l in checks):
                    q[w] = qw
                    yield from rec(k + 1, q,
                                   list(map(max, lo, (-a for a in qw))),
                                   list(map(min, hi, map(sub, v, qw))))

        q = [None] * len(verts)
        q[0] = [0] * dim
        budget.spend()
        yield from rec(0, q, [0] * dim, list(verts[0]))


def _prime_copies(m):
    """The m_i copies of each prime (x_i) in I = x^m·R, m being I's
    corner (normalize_translation gives it with R): one ideal per variable
    present, repeated, in order of i.

    An atom other than (x_i) has no monomial factor, which (x_i) would
    split off, and the least value of each x_i on NP adds under star; so
    every factorization of I is these copies plus one of R, and no divisor
    of R has a monomial factor."""
    return [prime for i, e in enumerate(m) if e for prime in
            [principal_ideal(tuple(int(k == i) for k in range(len(m))))] * e]


def _split(I):
    """A closed I as x^m·R, read once with its closedness
    (newton._require_closed): the corner m, the edges and R, None for the
    unit.  Every factorization of I is m's prime copies plus one of R
    (_prime_copies).

    In 2D, R is read off the Newton polygon as its descending edges, a
    Counter of primitive steps (a, b) to lattice lengths c, and no ideal is
    built: R is c copies of the atom closure(x^a, y^b) per edge (Zariski).
    A Minkowski sum merges edges by slope, so that product's NP is NP(R);
    a polygon whose one edge is primitive has no lattice summands but
    itself and a point, so each is an atom.  In other dimensions the edges
    are {} and R is normalize_translation's.  Closure commutes with the
    shift, closure(x^m·R) = x^m·closure(R), so I is closed iff R is: R's
    closedness is proved, and its one facet description serves the proof,
    _atom_power and _Dividend."""
    if I.dim == 2:
        return (*_require_closed(I), None)
    R, corner = normalize_translation(I)
    _require_closed(R)
    return corner, {}, None if R.is_unit else R


def _atom_power(R):
    """A non-unit R with no monomial factor as count copies of one atom A,
    (A, count), when a theorem reads it, else None.  ord is additive and
    only the unit has ord 0, so ord(R) <= 1 is an atom.  Else let NP(R) have
    exactly one facet c.x >= m with m > 0, with intercepts a_i = m / c_i
    (c_i > 0) of gcd g.  The other facets are the coordinate ones, so
    NP(R) = {x >= 0 : c.x >= m}, with vertices a_i·e_i.  A closed divisor
    J has R's normals and no monomial factor (see _Dividend,
    _prime_copies), so NP(J) = {x >= 0 : c.x >= t} = (t/m)·NP(R) for
    some t <= m, and its vertices (t/m)·a_i·e_i are lattice points.  An
    integer combination of the a_i is g, so t/m is a multiple of 1/g: J is
    k copies of S, the lattice points of {x >= 0 : c.x >= m/g}, and R is g
    copies of the atom S, its only factorization.  In two variables this
    is Zariski's one-edge rule."""
    if ord_valuation(R) <= 1:
        return R, 1
    (c, m), *rest = [f for f in _facet_inequalities(R.gens, R.dim) if f[1]]
    if rest:
        return None
    g = gcd(*(m // a for a in c if a))
    if g == 1:
        return R, 1
    t = m // g
    return _lattice_ideal(((c, t),), tuple(t // a if a else 0 for a in c)), g


def _spend_atoms(budget, count):
    """The one charge of count atoms read off by a theorem (see
    SearchBudget)."""
    if count > 1:
        for _ in range(count):
            budget.spend()


def _proper_split(R, budget):
    """A split (J, K) of a non-unit R with no monomial factor into
    non-units, the first proper divisor the divisor search yields, or None
    when there is none.  Only an R that _atom_power cannot read comes here,
    and only in d >= 3."""
    dividend = _Dividend(R)
    whole = tuple(m for _, m in dividend.facets)
    for h in dividend.divisors(budget):
        if any(h) and h != whole:
            return dividend.ideal(h), dividend.cofactor(h)
    return None


def _atoms(corner, edges, R, budget, read=None):
    """One factorization of the I that _split read as (corner, edges, R),
    sorted by generator list: the corner's prime copies (_prime_copies)
    and the edges' atoms, charged together (SearchBudget), then R's pieces
    from a work list, each read by _atom_power when it can be (read is R's
    reading, when the caller has taken it), else split at the first proper
    divisor that _Dividend.divisors yields.  A divisor of a monomial-free
    ideal is monomial-free, and ord is additive, so every split leads to
    atoms.  Deterministic; the unit has none, a ValueError."""
    if R is None and not edges and not any(corner):
        raise ValueError("the unit ideal has no atomic factorization")
    _spend_atoms(budget, sum(edges.values()))
    atoms = _prime_copies(corner)
    for e, c in edges.items():
        atoms += [_closed_from_edges((0, 0), [(e, 1)])] * c
    pending = [] if R is None else [(R, read)]
    while pending:
        current, read = pending.pop()
        read = read or _atom_power(current)
        if read is not None:
            A, count = read
            _spend_atoms(budget, count)
            atoms += [A] * count
            continue
        split = _proper_split(current, budget)  # None for an atom
        if split is None:
            atoms.append(current)
        else:  # the first factor splits next
            pending += [(K, None) for K in reversed(split)]
    return tuple(sorted(atoms, key=lambda a: a.gens))


def divides(I, J, budget=DEFAULT_BUDGET):
    """The unique K with star(I, K) == J, or None.

    Every star product is closed, so a J that is not has no divisor: J is
    proved closed by newton._require_closed, its error taken for None, and
    the answer read off what that proof read (_quotient).  By cancellation
    K is J : I, and no colon, product or search runs.  I need not be
    closed.  The budget keyword is kept because callers pass one to every
    monoid query; it is never spent.
    """
    _check_dims(I, J)
    try:
        return _quotient(I, J, _require_closed(J))
    except NotIntegrallyClosedError:
        return None


def _quotient(I, J, reading):
    """divides' answer for a closed J of I's dimension, reading being
    _require_closed(J); no closedness test runs.  In two variables the
    reading is J's corner and descending edges.  A Minkowski sum merges
    edges by slope, so NP(I) + NP(K) = NP(J) iff the corners add and
    edges(I) + edges(K) = edges(J) as multisets: K's corner and edges are
    J's less I's, and K is built from them (newton._closed_from_edges).
    Other dimensions read K off J's facets and vertices (see _Dividend)."""
    if I.dim == 2:
        (jx, jy), edges = reading
        (ix, iy), have = _descending_edges(I.gens)
        if ix > jx or iy > jy or not have <= edges:
            return None
        return _closed_from_edges((jx - ix, jy - iy), [
            (e, c - have[e]) for e, c in edges.items() if c > have[e]])
    dividend = _Dividend(J)
    h = dividend.support(I)
    return None if h is None else dividend.cofactor(h)


def is_star_irreducible(I, budget=DEFAULT_BUDGET):
    """No pair of non-unit closed ideals star-multiplies to I.  The atoms
    of I's split (_split) are counted, not built: the corner's copies of
    each (x_i), so an I with a monomial factor is an atom iff it is some
    (x_i), answered with nothing charged; else the edges' lengths, or R's
    count when _atom_power reads one, charged as _atoms charges them, one
    atom in all; else _proper_split decides, exhaustive over the finite
    divisor search."""
    if I.is_unit:
        raise ValueError("the unit ideal is neither an atom nor composite")
    budget = _as_budget(budget)
    corner, edges, R = _split(I)
    if any(corner):
        return sum(corner) == 1 and not edges and R is None
    count = sum(edges.values())
    if R is not None:
        read = _atom_power(R)
        if read is None:
            return _proper_split(R, budget) is None
        count += read[1]
    _spend_atoms(budget, count)
    return count == 1


class Factorization(_Record):
    # atoms: a tuple of ideals, canonically sorted by generator list
    __slots__ = ("base", "atoms")

    def __init__(self, base, atoms):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "atoms", atoms)

    def __len__(self):
        return len(self.atoms)


def factor_atoms(I, budget=DEFAULT_BUDGET):
    """One factorization of I into star-irreducible ideals: _atoms of I's
    split (_split), Zariski's in 2D.  Deterministic."""
    return Factorization(I, _atoms(*_split(I), _as_budget(budget)))


def all_factorizations(I, budget=DEFAULT_BUDGET):
    """Every multiset of atoms whose star product is I, up to reordering.
    With I = x^m·R split once (_split), it is unique, _atoms' answer, when
    R is the unit, read off 2D edges (Zariski), or a power of one atom
    (_atom_power).  Else one divisor search runs on R and its answers are
    factored as support vectors (module docstring), the zero vector being
    the unit's: an atom's vector is no sum of two nonzero divisors'
    vectors, and a factorization of R is a multiset of atom vectors
    summing to h_R, each partial sum of which is a divisor's vector."""
    budget = _as_budget(budget)
    corner, edges, R = _split(I)
    read = None if R is None else _atom_power(R)
    if R is None or read is not None:
        return {_atoms(corner, edges, R, budget, read)}
    dividend = _Dividend(R)
    found = set(dividend.divisors(budget))
    unit = (0,) * len(dividend.facets)

    def minus(h, g):
        return tuple(map(sub, h, g))

    atoms = sorted(((dividend.ideal(h), h) for h in found if h != unit and not
                    any(minus(h, g) in found for g in found - {unit, h})),
                   key=lambda atom: atom[0].gens)
    results = set()

    def rec(rest, start, chosen):
        if rest == unit:
            results.add(tuple(sorted(chosen, key=lambda a: a.gens)))
        for i, (A, h) in enumerate(atoms[start:], start):
            if minus(rest, h) in found:
                rec(minus(rest, h), i, chosen + [A])

    rec(tuple(m for _, m in dividend.facets), 0, _prime_copies(corner))
    return results
