"""Command-line surface: parse the parameter notation, dispatch the lift
and enumeration computations, and emit text or JSON.

Exit codes: 0 on success, 1 when a verification reports a mismatch, when
``lift --expect-nonzero`` meets a zero lift, when an inverse lookup
finds no preimage, or when stdout is closed before the output is written
(a broken pipe, as in ``thetalift enumerate ... | head -1``); 2 on usage
or input errors, including ``lift --n`` and ``phi --n`` above ``MAX_RANK``,
a ``--params`` or ``--sp-params`` text of rank above ``MAX_RANK`` (n on
the Sp side, (p+q)/2 on the O side), ``enumerate --n`` above
``MAX_ENUMERATE_RANK``, and an ``lkt`` parameter with more than
``MAX_LKT_SLOTS`` (mu, nu) slots.

Each command imports the modules it needs when it runs: ``lift``,
``first-occurrence`` and ``infchar`` load only exact, roots, langlands and
theta; ``lkt`` adds lkt and ktypes, ``phi`` ktypes, and ``enumerate``,
``verify`` and ``inverse-lookup`` enumeration with both.

``main`` reads argv in one pass from left to right against ``_COMMANDS``:
``thetalift [--table-dir DIR] COMMAND [--opt VALUE | --opt=VALUE | --flag]...``.
The token after an option that takes a value is that value, even when it
starts with ``-``, and a repeated option keeps its last value.  ``-h`` or
``--help`` anywhere prints ``USAGE``; a usage error prints it with the
error on stderr and exits 2.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Optional, Sequence

from .exact import parse_infchar, parse_int
from .langlands import (
    SpParams,
    infchar_o,
    infchar_sp,
    parse_o,
    parse_param_pattern,
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


# Census size grows about sixfold per rank.  The largest rank-7 census
# found, 89 632 parameters (``--infchar`` 1,...,7, 1,3,...,13, 10,...,70 or
# 1,2,4,...,64), takes 1.3-2.0 s end to end and 67-69 MB peak RSS; ``--n 7
# --infchar 0,1,2,3,4,5,6`` 0.95-1.09 s (59 592 parameters, 54 MB) and
# ``--n 6 --infchar 0,1,2,3,4,5`` 0.24 s (9932 parameters); three runs each
# on a 2-core Xeon box whose speed drifts with other load.  The library's
# enumerators stay unbounded.
MAX_ENUMERATE_RANK = 7

# ``lift`` cost grows quadratically in n (0.05 s at n=100), ``phi``
# builds a weight of length n, ``inverse-lookup`` lifts every O(p,q)
# parameter of the target's character to its rank n (about n^2.6: 1.15 s
# at n=200), and validating any parameter text costs its rank cubed, so
# all stop at this rank.  The library's functions stay unbounded.
MAX_RANK = 100

# Only the blocks that come from mu take two delta corrections, so a
# parameter with s (mu, nu) slots has at most 2^(s+1) lowest K-types on Sp
# and 2^(s+2) on O(p,q), and ``lkt`` refuses more slots than this.  At 12
# slots ``pi((1),{2e1},(2,4,...,24),(1,...,1),0,0)`` has 2048 and
# ``pi_{1}((;),1,{},(2,4,...,24),(1,...,1),0,0)`` 4096, computed in 0.04 s
# and 0.23 s on a 2-core Xeon box; each further slot doubles both.  The library's functions
# stay unbounded.
MAX_LKT_SLOTS = 12


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.  With
    ``indent`` set, ``json.dumps`` runs its pure-Python encoder; this
    writer runs the C string encoder on the str, int, bool and None values
    and the str-keyed dicts and lists that payloads hold, and hands any
    other value to ``json.dumps``.  ``pad`` is the newline and indentation
    of the value's own line."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = pad + "  "
    if kind is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(item, inner) for item in value]) + pad + "]"
    if kind is dict:
        keys = sorted(value)
        if not keys:
            return "{}"
        # Sorted keys are all str or none are: str and other keys do not compare.
        if isinstance(keys[0], str):
            items = [encode_basestring_ascii(key) + ": " + _dumps(value[key], inner) for key in keys]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
    # JSON text holds no raw newline, so this re-indents it to this depth.
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _emit(args, payload: dict, text: str) -> None:
    print(_dumps(payload) if args.json else text)


def _read_params(command: str, text: str, parse):
    """The parameter ``text`` of ``command``, read through ``parse``
    (``parse_o``, ``parse_sp`` or ``parse_params``).  Validation costs the
    cube of the rank, so the pattern is read first and refused on its
    shape: an O signature other than p + q = 4 for ``lift`` and
    ``first-occurrence``, a rank above ``MAX_RANK`` (n on the Sp side,
    (p+q)/2 on the O side), and for ``lkt`` more than ``MAX_LKT_SLOTS``
    (mu, nu) slots.  ``parse`` then finds the pattern in
    ``parse_param_pattern``'s memo, so the text is parsed once."""
    pattern = parse_param_pattern(text)
    sp = pattern.side == "sp"
    if not sp and command in ("lift", "first-occurrence") and pattern.p + pattern.q != 4:
        raise ThetaError(f"unsupported signature O({pattern.p},{pattern.q})")
    rank = pattern.n if sp else (pattern.p + pattern.q) // 2
    if rank > MAX_RANK:
        got = rank if sp else f"O({pattern.p},{pattern.q}), of rank {rank}"
        raise ValueError(f"{command} supports parameters of rank n <= {MAX_RANK}, got {got}")
    if command == "lkt" and len(pattern.mu) > MAX_LKT_SLOTS:
        raise ValueError(f"lkt supports at most {MAX_LKT_SLOTS} (mu, nu) slots, got {len(pattern.mu)}")
    return parse(text)


def _check_rank(args, cap: int) -> None:
    if args.n < 0:
        raise ValueError(f"rank n must be nonnegative, got {args.n}")
    if args.n > cap:
        raise ValueError(f"{args.command} supports ranks n <= {cap}, got {args.n}")


def _cmd_lift(args) -> int:
    _check_rank(args, MAX_RANK)
    tables = load_tables(args.table_dir)
    pi = _read_params(args.command, args.params, parse_o)
    res = theta_n(pi, args.n, tables)
    text = res.render()
    payload = {
        "input": render_o(pi),
        "n": args.n,
        "zero": res.is_zero,
        "params": None if res.is_zero else text,
        "provenance": res.provenance,
    }
    _emit(args, payload, text)
    if args.expect_nonzero and res.is_zero:
        return 1
    return 0


def _cmd_infchar(args) -> int:
    pi = _read_params(args.command, args.params, parse_params)
    chi = infchar_sp(pi) if isinstance(pi, SpParams) else infchar_o(pi)
    text = chi.render()
    payload = {
        "input": render_params(pi),
        "entries": [x.render() for x in chi.entries],
        "infchar": text,
    }
    _emit(args, payload, text)
    return 0


def _cmd_lkt(args) -> int:
    from .lkt import lowest_ktypes_o, lowest_ktypes_sp

    pi = _read_params(args.command, args.params, parse_params)
    lowest = lowest_ktypes_sp if isinstance(pi, SpParams) else lowest_ktypes_o
    lkts = sorted(s.render() for s in lowest(pi))
    _emit(args, {"input": render_params(pi), "lkts": lkts}, "\n".join(lkts))
    return 0


def _parse_sig(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"signature must be 'p,q', got {text!r}")
    try:
        p, q = parse_int(parts[0]), parse_int(parts[1])
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
    _check_rank(args, MAX_RANK)
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

    _check_rank(args, MAX_ENUMERATE_RANK)
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
    pi = _read_params(args.command, args.params, parse_o)
    n0 = first_occurrence(pi, tables)
    _emit(args, {"input": render_o(pi), "first_occurrence": n0}, str(n0))
    return 0


def _cmd_inverse_lookup(args) -> int:
    from .enumeration import enumerate_o_reps

    p, q = _parse_sig(args.sig)
    if p + q != 4:
        raise ValueError("inverse lookup supports p + q = 4 signatures")
    target = _read_params(args.command, args.sp_params, parse_sp)
    n = target.n
    tables = load_tables(args.table_dir)
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


USAGE = f"""usage: thetalift [--table-dir DIR] COMMAND [--opt VALUE | --opt=VALUE | --flag]...

Exact theta lifts for the dual pairs (O(p,q), Sp(2n,R)) with p+q=4.  DIR holds
the lift/classification tables (default: packaged, or $THETALIFT_TABLE_DIR).
O is O-side parameter text, SP Sp-side and P either; every command takes --json.

  lift --params O --n N [--expect-nonzero]
                      the rank-n lift of an O(p,q) parameter, n at most {MAX_RANK};
                      --expect-nonzero exits 1 when the lift is zero
  infchar --params P  the infinitesimal character of P
  lkt --params P      the lowest K-types of P, at most {MAX_LKT_SLOTS} (mu, nu) slots
  phi --dir o2u|u2o --ktype K --sig p,q --n N
                      the joint-harmonics K-type correspondence, n at most {MAX_RANK}
  enumerate --n N --infchar ENTRIES [--beta B]
                      the rank-n parameters, n at most {MAX_ENUMERATE_RANK}, with the infinitesimal
                      character of comma-separated ENTRIES ('b,0,1' or '(b,0,1)');
                      B is substituted for b ('generic' keeps it formal)
  verify [--suite S]  run suite S, or all of them (the default)
  first-occurrence --params O
                      the smallest rank with a nonzero lift
  inverse-lookup --sp-params SP --sig p,q
                      the O(p,q) parameters lifting to an Sp parameter

Options are spelled in full, a value may start with '-', and a repeated option
keeps its last value.  -h or --help prints this text."""


def _cmd_help(args) -> int:
    print(USAGE)
    return 0


def _direction(text: str) -> str:
    if text not in ("o2u", "u2o"):
        raise ValueError(f"must be o2u or u2o, got {text!r}")
    return text


_TEXT, _FLAG = (str, ...), (None, False)


def _command(handler, **options):
    """A command's handler and options by spelling, each with its field, its
    converter (None for a flag) and its default (``...`` when required)."""
    options["json"] = _FLAG
    return handler, {"--" + dest.replace("_", "-"): (dest, *spec) for dest, spec in options.items()}


_COMMANDS = {
    "lift": _command(_cmd_lift, params=_TEXT, n=(parse_int, ...), expect_nonzero=_FLAG),
    "infchar": _command(_cmd_infchar, params=_TEXT),
    "lkt": _command(_cmd_lkt, params=_TEXT),
    "phi": _command(_cmd_phi, dir=(_direction, ...), ktype=_TEXT, sig=_TEXT, n=(parse_int, ...)),
    "enumerate": _command(_cmd_enumerate, n=(parse_int, ...), infchar=_TEXT, beta=(str, None)),
    "verify": _command(_cmd_verify, suite=(str, "all")),
    "first-occurrence": _command(_cmd_first_occurrence, params=_TEXT),
    "inverse-lookup": _command(_cmd_inverse_lookup, sp_params=_TEXT, sig=_TEXT),
}


def _read_argv(argv: Sequence[str]):
    """The handler that ``argv`` asks for and its options, read in one pass
    from left to right; a ValueError names the first usage error."""
    if "-h" in argv or "--help" in argv:
        return _cmd_help, None
    handler, options = None, {"--table-dir": ("table_dir", str, None)}
    values, tokens = {"table_dir": None}, iter(argv)
    for token in tokens:
        if handler is None and not token.startswith("-"):
            if token not in _COMMANDS:
                raise ValueError(f"unknown command {token!r}")
            handler, options = _COMMANDS[token]
            values.update({dest: default for dest, _, default in options.values()}, command=token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            raise ValueError(f"unknown {'option' if token[:1] == '-' else 'argument'} {token!r}")
        dest, convert, _ = options[name]
        if convert is None and eq:
            raise ValueError(f"{name} takes no value")
        if convert is not None and not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"{name} needs a value")
        try:
            values[dest] = True if convert is None else convert(value)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
    missing = [name for name, (dest, *_) in options.items() if values[dest] is ...]
    if handler is None or missing:
        raise ValueError(f"missing {', '.join(missing) or 'command'}")
    return handler, SimpleNamespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        handler, args = _read_argv(sys.argv[1:] if argv is None else argv)
    except ValueError as err:
        print(f"{USAGE}\nerror: {err}", file=sys.stderr)
        return 2
    try:
        code = handler(args)
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
