"""The argparse parser that ``thetalift.cli`` used before its table-driven
argv reader, kept as the reference that ``tests/test_argv.py`` compares
the reader with.  Each command's ``func`` default is its ``cli`` handler."""

import argparse

from thetalift.cli import (
    MAX_ENUMERATE_RANK,
    MAX_LKT_SLOTS,
    MAX_RANK,
    _cmd_enumerate,
    _cmd_first_occurrence,
    _cmd_infchar,
    _cmd_inverse_lookup,
    _cmd_lift,
    _cmd_lkt,
    _cmd_phi,
    _cmd_verify,
)
from thetalift.exact import parse_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetalift",
        description="Exact theta lifts for the dual pairs (O(p,q), Sp(2n,R)) with p+q=4.",
    )
    parser.add_argument(
        "--table-dir",
        default=None,
        help="directory with the lift/classification tables "
        "(default: packaged tables, or $THETALIFT_TABLE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("lift", help="compute the rank-n lift of an O(p,q) parameter")
    p.add_argument("--params", required=True, help="O-side parameter text")
    p.add_argument("--n", type=parse_int, required=True, help=f"symplectic rank n, at most {MAX_RANK}")
    p.add_argument(
        "--expect-nonzero", action="store_true", help="exit 1 when the lift is zero"
    )
    add_json(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("infchar", help="print the infinitesimal character of a parameter")
    p.add_argument("--params", required=True, help="Sp- or O-side parameter text")
    add_json(p)
    p.set_defaults(func=_cmd_infchar)

    p = sub.add_parser("lkt", help="print the lowest K-types of a parameter")
    p.add_argument(
        "--params",
        required=True,
        help=f"Sp- or O-side parameter text, at most {MAX_LKT_SLOTS} (mu, nu) slots",
    )
    add_json(p)
    p.set_defaults(func=_cmd_lkt)

    p = sub.add_parser("phi", help="joint-harmonics K-type correspondence")
    p.add_argument("--dir", choices=("o2u", "u2o"), required=True)
    p.add_argument("--ktype", required=True, help="K-type text")
    p.add_argument("--sig", required=True, help="orthogonal signature p,q")
    p.add_argument("--n", type=parse_int, required=True, help=f"symplectic rank n, at most {MAX_RANK}")
    add_json(p)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("enumerate", help="enumerate rank-n parameters with an infinitesimal character")
    p.add_argument(
        "--n", type=parse_int, required=True, help=f"symplectic rank n, at most {MAX_ENUMERATE_RANK}"
    )
    p.add_argument("--infchar", required=True, help="comma-separated entries, e.g. 'b,0,1' or '(b,0,1)'")
    p.add_argument("--beta", default=None, help="value substituted for b ('generic' keeps it formal)")
    add_json(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", help="suite name, or 'all' (the default)")
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("first-occurrence", help="smallest rank with a nonzero lift")
    p.add_argument("--params", required=True, help="O-side parameter text")
    add_json(p)
    p.set_defaults(func=_cmd_first_occurrence)

    p = sub.add_parser("inverse-lookup", help="find O(p,q) parameters lifting to a given Sp parameter")
    p.add_argument("--sp-params", required=True, help="Sp-side parameter text")
    p.add_argument("--sig", required=True, help="orthogonal signature p,q")
    add_json(p)
    p.set_defaults(func=_cmd_inverse_lookup)

    return parser
