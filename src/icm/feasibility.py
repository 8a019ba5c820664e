"""Exact rational feasibility of small linear systems.

No library path solves an LP: every polyhedral question is answered from
the facet description in newton.  This solver serves the test oracles,
which check that description by an independent route.  Phase-1 simplex
with Bland's rule, run fraction-free on an integer tableau (two-step
Bareiss division keeps entries integral, so there is no rounding
anywhere).  Sizes here are tiny; exactness is the point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_rows(rows, rhs):
    """Scale each row of [A | b] to integers."""
    out = []
    for row, b in zip(rows, rhs):
        if type(b) is int and all(type(v) is int for v in row):
            out.append(list(row) + [b])
            continue
        vals = [Fraction(v) for v in row] + [Fraction(b)]
        mult = lcm(*(v.denominator for v in vals)) if vals else 1
        out.append([int(v * mult) for v in vals])
    return out


def feasible_nonneg(rows, rhs):
    """Does A x = b admit a solution with x >= 0?

    rows: list of equal-length coefficient lists (ints or Fractions)
    rhs:  right-hand sides, one per row
    """
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    scaled = _integer_rows(rows, rhs)
    # Tableau [A | I_artificial | b] with b >= 0; artificials start basic.
    tab = []
    for i, row in enumerate(scaled):
        if row[-1] < 0:
            row = [-v for v in row]
        body = row[:-1]
        body.extend(1 if j == i else 0 for j in range(m))
        body.append(row[-1])
        tab.append(body)
    total = n + m
    basis = list(range(n, total))
    # Phase-1 reduced costs: minus column sums over the rows, zero on the
    # artificial columns themselves.
    cost = [0] * (total + 1)
    for row in tab:
        for j in range(n):
            cost[j] -= row[j]
        cost[total] -= row[total]
    denom = 1  # previous pivot; all tableau entries are scaled by it

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test by integer cross-multiplication; Bland tie-break.
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                else:
                    lhs = tab[i][-1] * tab[leave][enter]
                    rhs_ = tab[leave][-1] * a
                    if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                        leave = i
        if leave is None:
            raise RuntimeError("phase-1 simplex became unbounded")
        piv = tab[leave][enter]
        prow = tab[leave]
        for i in range(m):
            if i != leave:
                row = tab[i]
                f = row[enter]
                tab[i] = [(piv * v - f * w) // denom for v, w in zip(row, prow)]
        f = cost[enter]
        cost = [(piv * v - f * w) // denom for v, w in zip(cost, prow)]
        denom = piv
        basis[leave] = enter
    return cost[-1] == 0
