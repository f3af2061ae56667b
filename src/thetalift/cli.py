"""Command-line surface: parse the parameter notation, dispatch the lift
and enumeration computations, and emit text or JSON.

Exit codes: 0 on success, 1 when a verification reports a mismatch, when
``lift --expect-nonzero`` meets a zero lift, when an inverse lookup
finds no preimage, or when stdout is closed before the output is written
(a broken pipe, as in ``thetalift enumerate ... | head -1``); 2 on usage
or input errors, including ``lift --n`` and ``phi --n`` above ``MAX_RANK``,
an ``inverse-lookup`` target of rank above ``MAX_RANK``,
``enumerate --n`` above ``MAX_ENUMERATE_RANK``, and an ``lkt`` parameter
with more than ``MAX_LKT_SLOTS`` (mu, nu) slots.

Each command imports the modules it needs when it runs: ``lift``,
``first-occurrence`` and ``infchar`` load only exact, roots, langlands and
theta; ``lkt`` adds lkt and ktypes, ``phi`` ktypes, and ``enumerate``,
``verify`` and ``inverse-lookup`` enumeration with both.

The argument parser is built once per process, on the first ``main``
call, and reused by every later call; each call still parses into a
fresh namespace, so no option value carries over from one call to the
next.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .exact import parse_infchar
from .langlands import (
    SpParams,
    infchar_o,
    infchar_sp,
    parse_o,
    parse_params,
    parse_sp,
    render_o,
    render_params,
    render_sp,
)
from .theta import (
    ThetaError,
    first_occurrence,
    load_tables,
    o_infchar_from_sp,
    theta_n,
)


# Census size grows about sixfold per rank: ``thetalift enumerate --n 7
# --infchar 0,1,2,3,4,5,6`` takes 2.0-2.9 s end to end (59 592 parameters,
# 49-52 MB peak RSS) and ``--n 6 --infchar 0,1,2,3,4,5`` 0.49-0.77 s (9932
# parameters), on a 2-core Xeon box whose speed drifts with other load:
# 2.0-2.3 s and 0.49-0.52 s in one session of three runs each, 2.9 s and
# 0.63-0.77 s in another of two.  The library's enumerators stay unbounded.
MAX_ENUMERATE_RANK = 7

# ``lift`` cost grows quadratically in n (0.05 s at n=100), ``phi``
# builds a weight of length n, and ``inverse-lookup`` lifts every O(p,q)
# parameter of the target's character to its rank n (about n^2.6: 1.15 s
# at n=200), so all three stop at this rank.  The library's functions stay
# unbounded.
MAX_RANK = 100

# Only the blocks that come from mu take two delta corrections, so a
# parameter with s (mu, nu) slots has at most 2^(s+1) lowest K-types on Sp
# and 2^(s+2) on O(p,q), and ``lkt`` refuses more slots than this.  At 12
# slots ``pi((1),{2e1},(2,4,...,24),(1,...,1),0,0)`` has 2048 and
# ``pi_{1}((;),1,{},(2,4,...,24),(1,...,1),0,0)`` 4096, computed in 0.04 s
# and 0.23 s on a 2-core Xeon box; each further slot doubles both.  The library's functions
# stay unbounded.
MAX_LKT_SLOTS = 12


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_lift(args) -> int:
    if args.n > MAX_RANK:
        raise ValueError(f"lift supports ranks n <= {MAX_RANK}, got {args.n}")
    tables = load_tables(args.table_dir)
    pi = parse_o(args.params)
    res = theta_n(pi, args.n, tables)
    payload = {
        "input": render_o(pi),
        "n": args.n,
        "zero": res.is_zero,
        "params": None if res.is_zero else render_sp(res.params),
        "provenance": res.provenance,
    }
    _emit(args, payload, res.render())
    if args.expect_nonzero and res.is_zero:
        return 1
    return 0


def _cmd_infchar(args) -> int:
    pi = parse_params(args.params)
    chi = infchar_sp(pi) if isinstance(pi, SpParams) else infchar_o(pi)
    payload = {
        "input": render_params(pi),
        "entries": [x.render() for x in chi.entries],
        "infchar": chi.render(),
    }
    _emit(args, payload, chi.render())
    return 0


def _cmd_lkt(args) -> int:
    from .lkt import lowest_ktypes_o, lowest_ktypes_sp

    pi = parse_params(args.params)
    if pi.s > MAX_LKT_SLOTS:
        raise ValueError(f"lkt supports at most {MAX_LKT_SLOTS} (mu, nu) slots, got {pi.s}")
    lowest = lowest_ktypes_sp if isinstance(pi, SpParams) else lowest_ktypes_o
    lkts = sorted(s.render() for s in lowest(pi))
    _emit(args, {"input": render_params(pi), "lkts": lkts}, "\n".join(lkts))
    return 0


def _parse_sig(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"signature must be 'p,q', got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"signature entries must be integers, got {text!r}") from None
    if p < 0 or q < 0:
        raise ValueError(f"signature entries must be nonnegative, got {text!r}")
    return p, q


def _cmd_phi(args) -> int:
    from .ktypes import parse_oktype, parse_uktype, phi_n, phi_pq

    p, q = _parse_sig(args.sig)
    if (p - q) % 2 != 0:
        raise ValueError("p - q must be even")
    if args.n < 0:
        raise ValueError(f"rank n must be nonnegative, got {args.n}")
    if args.n > MAX_RANK:
        raise ValueError(f"phi supports ranks n <= {MAX_RANK}, got {args.n}")
    if args.dir == "o2u":
        sigma = parse_oktype(args.ktype, p, q)
        result = phi_n(sigma, p, q, args.n)
    else:
        prime = parse_uktype(args.ktype)
        if prime.n != args.n:
            raise ValueError(f"U-type has rank {prime.n}, but --n is {args.n}")
        result = phi_pq(prime, p, q)
    rendered = None if result is None else result.render()
    _emit(
        args,
        {"dir": args.dir, "ktype": args.ktype, "sig": [p, q], "n": args.n, "result": rendered},
        "none" if rendered is None else rendered,
    )
    return 0


def _cmd_enumerate(args) -> int:
    from .enumeration import beta_scalar, enumerate_sp_reps

    if args.n < 0:
        raise ValueError(f"rank n must be nonnegative, got {args.n}")
    if args.n > MAX_ENUMERATE_RANK:
        raise ValueError(f"enumerate supports ranks n <= {MAX_ENUMERATE_RANK}, got {args.n}")
    chi = parse_infchar(args.infchar)
    if args.beta is not None:
        chi = chi.substitute(beta_scalar(args.beta))
    params = [render_sp(p) for p in enumerate_sp_reps(args.n, chi)]
    payload = {"n": args.n, "infchar": chi.render(), "count": len(params), "params": params}
    _emit(args, payload, "\n".join([f"{len(params)} parameters"] + params))
    return 0


def _cmd_verify(args) -> int:
    from .enumeration import verify_tables

    tables = load_tables(args.table_dir)
    report = verify_tables(args.suite, tables)
    _emit(args, report.to_json(), report.render())
    return 0 if report.ok else 1


def _cmd_first_occurrence(args) -> int:
    tables = load_tables(args.table_dir)
    pi = parse_o(args.params)
    n0 = first_occurrence(pi, tables)
    _emit(args, {"input": render_o(pi), "first_occurrence": n0}, str(n0))
    return 0


def _cmd_inverse_lookup(args) -> int:
    from .enumeration import enumerate_o_reps

    tables = load_tables(args.table_dir)
    target = parse_sp(args.sp_params)
    p, q = _parse_sig(args.sig)
    if p + q != 4:
        raise ValueError("inverse lookup supports p + q = 4 signatures")
    n = target.n
    if n > MAX_RANK:
        raise ValueError(f"inverse lookup supports targets of rank n <= {MAX_RANK}, got {n}")
    try:
        chi_o = o_infchar_from_sp(infchar_sp(target), (p + q) // 2, n)
    except ThetaError:
        chi_o = None
    preimages = []
    if chi_o is not None:
        for pi in enumerate_o_reps(p, q, chi_o):
            res = theta_n(pi, n, tables)
            if not res.is_zero and res.params == target:
                preimages.append(render_o(pi))
    payload = {
        "target": render_sp(target),
        "sig": [p, q],
        "n": n,
        "preimages": preimages,
    }
    _emit(args, payload, "\n".join(preimages) if preimages else "none")
    return 0 if preimages else 1


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
    p.add_argument("--n", type=int, required=True, help=f"symplectic rank n, at most {MAX_RANK}")
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
    p.add_argument("--n", type=int, required=True, help=f"symplectic rank n, at most {MAX_RANK}")
    add_json(p)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("enumerate", help="enumerate rank-n parameters with an infinitesimal character")
    p.add_argument(
        "--n", type=int, required=True, help=f"symplectic rank n, at most {MAX_ENUMERATE_RANK}"
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use and then reused;
    each ``parse_args`` call returns a fresh namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
