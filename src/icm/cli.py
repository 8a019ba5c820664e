"""Command-line front-end.

One JSON object per invocation: {"command": ..., "input": ..., "result": ...},
with every number rendered as a decimal string.  Exit codes: 0 success,
1 parse error, 2 precondition violation, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (BudgetExceededError, DimensionMismatchError,
                     IdealParseError, NotStarMultipleError)
from .ideals import colon, ord_valuation
from .monoid import (DEFAULT_BUDGET, _require_closed, all_factorizations,
                     divides, factor_atoms, is_star_irreducible, star)
from .newton import integral_closure, is_integrally_closed
from .parsing import (ideal_from_document, ideal_to_document, parse_ideal,
                      parse_points)
from .polytopes import (colon_factorization_2d, decompose_2d, group_element,
                        hull, phi)
from .properties import run_suites


def _jsonable(value):
    """Recursively render every int as a decimal string."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _load_ideal(text, args):
    if args.json:
        try:
            with open(text, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as ex:
            raise IdealParseError(f"unreadable ideal document: {ex}",
                                  0) from None
        return ideal_from_document(doc)
    return parse_ideal(text, dim=args.dim)


def _parse_budget(text):
    """The --budget flag, else ICM_BUDGET, else the default; a count >= 0."""
    if text is None:
        text = os.environ.get("ICM_BUDGET", str(DEFAULT_BUDGET))
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"budget must be a non-negative integer, got {text!r}")
    return budget


def _int_at_least(low):
    """An argparse type: an integer >= low."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return integer


# ---------------------------------------------------------------------------
# command implementations; each returns the "result" object


def _cmd_closure(args):
    I = _load_ideal(args.ideal, args)
    return ideal_to_document(integral_closure(I))


def _cmd_closed(args):
    I = _load_ideal(args.ideal, args)
    return {"closed": is_integrally_closed(I)}


def _cmd_star(args):
    I = _load_ideal(args.left, args)
    J = _load_ideal(args.right, args)
    return ideal_to_document(star(I, J))


def _cmd_ord(args):
    I = _load_ideal(args.ideal, args)
    return {"ord": ord_valuation(I)}


def _cmd_colon(args):
    I = _load_ideal(args.left, args)
    J = _load_ideal(args.right, args)
    return ideal_to_document(colon(I, J))


def _cmd_factor(args):
    I = integral_closure(_load_ideal(args.ideal, args))
    f = factor_atoms(I, budget=args.budget)
    return {"base": ideal_to_document(f.base),
            "atoms": [ideal_to_document(a) for a in f.atoms],
            "length": len(f)}


def _cmd_factorizations(args):
    I = integral_closure(_load_ideal(args.ideal, args))
    results = all_factorizations(I, budget=args.budget)
    as_lists = sorted([a.gens for a in fz] for fz in results)
    rendered = [[{"gens": [list(g) for g in gens]} for gens in fz]
                for fz in as_lists]
    return {"count": len(results), "factorizations": rendered}


def _cmd_irreducible(args):
    I = _load_ideal(args.ideal, args)
    return {"irreducible": is_star_irreducible(I, budget=args.budget)}


def _cmd_divides(args):
    I = _load_ideal(args.left, args)
    J = _load_ideal(args.right, args)
    _require_closed(I, "divisor")
    _require_closed(J, "dividend")
    K = divides(I, J, budget=args.budget)
    return {"divides": K is not None,
            "cofactor": ideal_to_document(K) if K is not None else None}


def _cmd_decompose2d(args):
    pos = hull(parse_points(args.pos, dim=2), 2)
    neg = hull(parse_points(args.neg, dim=2), 2) if args.neg else None
    coeffs = decompose_2d(group_element(pos, neg), budget=args.budget)
    items = sorted(((B.kind, B.v, c) for B, c in coeffs.items()))
    return {"coefficients": [{"kind": kind, "v": list(v), "coeff": c}
                             for kind, v, c in items]}


def _cmd_phi(args):
    pts = parse_points(args.points, dim=args.dim)
    P = hull(pts, len(pts[0]))
    c = phi(P)
    return {"num": ideal_to_document(c.num), "den": ideal_to_document(c.den),
            "identity": c.is_identity}


def _cmd_colon_factor(args):
    I = _load_ideal(args.ideal, args)
    f = colon_factorization_2d(I)
    return {"num_monomial": list(f.num_monomial),
            "num_factors": [list(p) for p in f.num_factors],
            "den_monomial": list(f.den_monomial),
            "den_factors": [list(p) for p in f.den_factors],
            "round_trip": f.evaluate() == I}


def _cmd_verify(args):
    m = parse_ideal("x,y,z")
    J1 = parse_ideal("x^3,y^3,z^3,x*y,x*z,y*z")
    J1p = parse_ideal("x^2,y,z")
    J2p = parse_ideal("x,y^2,z")
    J3p = parse_ideal("x,y,z^2")
    lhs = star(m, J1)
    rhs = star(star(J1p, J2p), J3p)
    results = all_factorizations(lhs, budget=args.budget)
    return {"equal": lhs == rhs,
            "product": ideal_to_document(lhs),
            "ords": [ord_valuation(I) for I in (m, J1, J1p, J2p, J3p)],
            "distinct_factorizations": len(results),
            "factorization_sizes": sorted(len(fz) for fz in results)}


def _cmd_props(args):
    names = args.suites if args.suites else None
    report = run_suites(seed=args.seed, cases=args.cases,
                        polytope_cases=min(args.cases, 100), names=names)
    ok = all(not r["failures"] for r in report.values())
    return {"seed": args.seed, "ok": ok, "suites": report}


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ValueError, so main reports them as JSON."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="icm",
        description="Exact arithmetic in the monoid of integrally closed "
                    "monomial ideals, and the 2D integral polytope group.")
    parser.add_argument("--dim", type=_int_at_least(1), default=None,
                        help="ambient dimension (default: inferred)")
    parser.add_argument("--budget", default=None,
                        help="budget for factorization searches and "
                             "decompose2d's reconstruction check "
                             f"(default: $ICM_BUDGET, else {DEFAULT_BUDGET})")
    parser.add_argument("--json", action="store_true",
                        help="treat ideal arguments as IdealDocument "
                             "JSON file paths")
    sub = parser.add_subparsers(dest="command", required=True)

    def one_ideal(name, fn, aliases=()):
        p = sub.add_parser(name, aliases=list(aliases))
        p.add_argument("ideal")
        p.set_defaults(fn=fn, canonical=name)

    def two_ideals(name, fn, aliases=()):
        p = sub.add_parser(name, aliases=list(aliases))
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(fn=fn, canonical=name)

    one_ideal("closure", _cmd_closure)
    one_ideal("closed?", _cmd_closed, aliases=["closed"])
    two_ideals("star", _cmd_star)
    one_ideal("ord", _cmd_ord)
    two_ideals("colon", _cmd_colon)
    one_ideal("factor", _cmd_factor)
    one_ideal("factorizations", _cmd_factorizations)
    one_ideal("irreducible?", _cmd_irreducible, aliases=["irreducible"])
    two_ideals("divides", _cmd_divides)

    p = sub.add_parser("decompose2d")
    p.add_argument("pos", help="positive part, e.g. '0,0; 1,0; 0,1'")
    p.add_argument("neg", nargs="?", default=None,
                   help="optional negative part, same syntax")
    p.set_defaults(fn=_cmd_decompose2d, canonical="decompose2d")

    p = sub.add_parser("phi")
    p.add_argument("points", help="polytope points, e.g. '2,0; 0,3'")
    p.set_defaults(fn=_cmd_phi, canonical="phi")

    one_ideal("colon-factor", _cmd_colon_factor)

    p = sub.add_parser("verify")
    p.add_argument("what", choices=["lipman"], help="verification target")
    p.set_defaults(fn=_cmd_verify, canonical="verify")

    p = sub.add_parser("props")
    p.add_argument("suites", nargs="*", help="suite names (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_int_at_least(0), default=200)
    p.set_defaults(fn=_cmd_props, canonical="props")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.budget = _parse_budget(args.budget)
        raw_input_args = {k: v for k, v in vars(args).items()
                          if k not in ("fn", "canonical", "command")}
        result = args.fn(args)
    except IdealParseError as ex:
        print(json.dumps({"error": str(ex), "position": ex.position}))
        return 1
    except (DimensionMismatchError, NotStarMultipleError, ValueError) as ex:
        print(json.dumps({"error": str(ex)}))
        return 2
    except BudgetExceededError as ex:
        print(json.dumps({"error": str(ex),
                          "examined": str(ex.examined)}))
        return 3
    out = {"command": args.canonical,
           "input": _jsonable(raw_input_args),
           "result": _jsonable(result)}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
