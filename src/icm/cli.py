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

from .errors import BudgetExceededError, IdealParseError
from .ideals import MonomialIdeal, colon, ord_valuation
from .monoid import (DEFAULT_BUDGET, _require_closed, all_factorizations,
                     divides, factor_atoms, is_star_irreducible, star)
from .newton import integral_closure, is_integrally_closed
from .parsing import (ideal_from_document, ideal_to_document, parse_ideal,
                      parse_points)

# polytopes and properties are imported by the commands that use them, so
# the other commands' processes never load them.


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


def _load_ideals(args):
    """The left and right ideals.  As text without --dim, both take the
    dimension of the largest variable index in either: the lower one is
    lifted by zero exponents, which is what parsing it again in that
    dimension gives, and keeps its generators a sorted antichain.  A JSON
    document keeps its own vars."""
    I, J = _load_ideal(args.left, args), _load_ideal(args.right, args)
    if args.json or args.dim is not None:
        return I, J
    dim = max(I.dim, J.dim)
    return tuple(K if K.dim == dim else MonomialIdeal(
        dim, tuple(g + (0,) * (dim - K.dim) for g in K.gens)) for K in (I, J))


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
# command implementations; each returns the "result" object.  Those of
# one_ideal and two_ideals commands get the loaded ideals before args.


def _cmd_closure(I, args):
    return ideal_to_document(integral_closure(I))


def _cmd_closed(I, args):
    return {"closed": is_integrally_closed(I)}


def _cmd_star(I, J, args):
    return ideal_to_document(star(I, J))


def _cmd_ord(I, args):
    return {"ord": ord_valuation(I)}


def _cmd_colon(I, J, args):
    return ideal_to_document(colon(I, J))


def _cmd_factor(I, args):
    f = factor_atoms(integral_closure(I), budget=args.budget)
    return {"base": ideal_to_document(f.base),
            "atoms": [ideal_to_document(a) for a in f.atoms],
            "length": len(f)}


def _cmd_factorizations(I, args):
    results = all_factorizations(integral_closure(I), budget=args.budget)
    ordered = sorted(results, key=lambda fz: [a.gens for a in fz])
    return {"count": len(results), "factorizations": [
        [ideal_to_document(a) for a in fz] for fz in ordered]}


def _cmd_irreducible(I, args):
    return {"irreducible": is_star_irreducible(I, budget=args.budget)}


def _cmd_divides(I, J, args):
    _require_closed(I, "divisor")
    K = divides(I, J, budget=args.budget)
    if K is None:  # also None for a J that is not closed: its own error
        _require_closed(J, "dividend")
    return {"divides": K is not None,
            "cofactor": ideal_to_document(K) if K is not None else None}


def _cmd_decompose2d(args):
    from .polytopes import decompose_2d, group_element, hull
    pos = hull(parse_points(args.pos, dim=2), 2)
    neg = hull(parse_points(args.neg, dim=2), 2) if args.neg else None
    coeffs = decompose_2d(group_element(pos, neg), budget=args.budget)
    items = sorted(((B.kind, B.v, c) for B, c in coeffs.items()))
    return {"coefficients": [{"kind": kind, "v": list(v), "coeff": c}
                             for kind, v, c in items]}


def _cmd_phi(args):
    from .polytopes import hull, phi
    pts = parse_points(args.points, dim=args.dim)
    P = hull(pts, len(pts[0]))
    c = phi(P)
    return {"num": ideal_to_document(c.num), "den": ideal_to_document(c.den),
            "identity": c.is_identity}


def _cmd_colon_factor(I, args):
    from .polytopes import colon_factorization_2d
    f = colon_factorization_2d(I)
    return {"num_monomial": list(f.num_monomial),
            "num_factors": [list(p) for p in f.num_factors]}


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
    from .properties import run_suites
    names = args.suites if args.suites else None
    report = run_suites(seed=args.seed, cases=args.cases, names=names)
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
    # A string default, here ICM_BUDGET's, goes through the type only when
    # the flag is absent.
    parser.add_argument("--budget", type=_int_at_least(0),
                        default=os.environ.get("ICM_BUDGET", DEFAULT_BUDGET),
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
        p.set_defaults(fn=lambda args: fn(_load_ideal(args.ideal, args), args),
                       canonical=name)

    def two_ideals(name, fn, aliases=()):
        p = sub.add_parser(name, aliases=list(aliases))
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(fn=lambda args: fn(*_load_ideals(args), args),
                       canonical=name)

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
        raw_input_args = {k: v for k, v in vars(args).items()
                          if k not in ("fn", "canonical", "command")}
        result = args.fn(args)
    except IdealParseError as ex:
        print(json.dumps({"error": str(ex), "position": ex.position}))
        return 1
    except ValueError as ex:
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
