"""The argv reader of ``thetalift.cli`` against the argparse parser it
replaced (``argparse_reference.build_parser``): on every argv both end in
the same way, help, a usage error, or the same handler with the same
option values, apart from three intended differences pinned at the end:

- an option must be spelled in full, where argparse took an abbreviation;
- the token after an option that takes a value is that value, also when
  it starts with ``-`` and is no number, where argparse refused it;
- ``-h`` or ``--help`` anywhere asks for help, also after a usage error,
  where argparse stopped at the first error.

The comparison writes each such value as ``--opt=value`` for argparse,
which reads it verbatim there, and leaves help requests out."""

import argparse
import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argparse_reference import build_parser
from thetalift import cli

_REFERENCE = build_parser()
_SUBPARSERS = next(a for a in _REFERENCE._actions if isinstance(a, argparse._SubParsersAction)).choices
_COMMANDS = sorted(_SUBPARSERS)


def _options(parser) -> dict:
    """Each option of ``parser`` but ``-h``/``--help``, to whether it takes
    a value."""
    return {
        name: action.nargs is None
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for name in action.option_strings
    }


_ALL_OPTIONS = {
    name: takes for parser in [_REFERENCE, *_SUBPARSERS.values()] for name, takes in _options(parser).items()
}


def _reference(argv) -> tuple:
    """("help",), (2,) or (0, handler, option values), as argparse reads ``argv``."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            values = vars(_REFERENCE.parse_args(argv))
    except SystemExit as exc:
        return ("help",) if exc.code == 0 else (exc.code,)
    return (0, values.pop("func"), values)


def _reader(argv) -> tuple:
    """The same for ``cli``'s reader."""
    try:
        handler, args = cli._read_argv(argv)
    except ValueError:
        return (2,)
    return ("help",) if handler is cli._cmd_help else (0, handler, vars(args))


def _joined(argv) -> list:
    """``argv`` with each option that takes a value, where the reader reads
    it as one, written ``--opt=value``."""
    out, tokens, takes, command = [], iter(argv), _options(_REFERENCE), None
    for token in tokens:
        if command is None and not token.startswith("-"):
            command = token
            takes = _options(_SUBPARSERS[token]) if token in _SUBPARSERS else {}
        elif takes.get(token) and (value := next(tokens, None)) is not None:
            token = f"{token}={value}"
        out.append(token)
    return out


_TEXTS = ["x", "", "a=b", "2,2", "all", "theta4", "pi(0,{},0,0,(1),(1))", "- 1"]
_DASHED = ["-1,2", "--json", "-e1", "-x", "-", "--n"]
_VALUES = {
    "--n": ["0", "2", "7", "-1", " 3 ", "1_0", "x"],
    "--dir": ["o2u", "u2o", "o2x", ""],
}
_UNKNOWN = ["--bogus", "-x", "--jsonx"]


@st.composite
def _written(draw, name):
    """``name`` written with a value, or without one."""
    if _ALL_OPTIONS.get(name):
        value = draw(st.sampled_from(_DASHED if draw(_one_in(6)) else _VALUES.get(name, _TEXTS)))
        return draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    return draw(st.sampled_from([[name], [name], [f"{name}=1"], [f"{name}="], [name, "x"]]))


def _one_in(k):
    """True one time in ``k``."""
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def _argvs(draw):
    """``--table-dir`` up to twice, a command (or no command), most of its
    options in any order, maybe one other option or a stray token, maybe
    a value option with no value at the end, and maybe a help request
    anywhere."""
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        argv += draw(_written("--table-dir"))
    command = draw(st.sampled_from(_COMMANDS + ["nonsense", ""]))
    own = list(_options(_SUBPARSERS.get(command, _REFERENCE)))
    names = [name for name in own if not draw(_one_in(6))]
    if draw(_one_in(3)):
        names.append(draw(st.sampled_from(sorted(_ALL_OPTIONS) + _UNKNOWN + ["stray"])))
    argv.append(command)
    for name in draw(st.permutations(names)):
        argv += [name] if name == "stray" else draw(_written(name))
    if draw(_one_in(6)):
        argv.append(draw(st.sampled_from([name for name in own if _ALL_OPTIONS[name]] or ["--n"])))
    if draw(_one_in(10)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=_argvs())
@example(argv=["lift", "--params", "x", "--n", "1", "--n=2", "--json", "--json"])
@example(argv=["--table-dir", "a", "--table-dir=b", "verify"])
@example(argv=["phi", "--dir", "o2u", "--dir=x", "--ktype", "k", "--sig", "2,2", "--n", "1"])
@example(argv=["enumerate", "--n", "1_0", "--n", "2", "--infchar", "0"])
def test_reader_matches_argparse(argv):
    """Where argv asks for no help, the reader ends as argparse ends on it
    with each value written ``--opt=value``; a help request is help."""
    if "-h" in argv or "--help" in argv:
        assert _reader(argv) == ("help",)
        assert _reference(argv)[0] in ("help", 2)
    else:
        assert _reader(argv) == _reference(_joined(argv)), argv


@pytest.mark.parametrize(
    "argv,field,value",
    [
        (["lift", "--par", "x", "--n", "1"], "params", "x"),
        (["verify", "--s=theta4"], "suite", "theta4"),
        (["--table", "d", "verify"], "table_dir", "d"),
    ],
)
def test_an_abbreviated_option_is_refused(argv, field, value):
    assert _reference(argv)[0] == 0 and _reference(argv)[2][field] == value
    assert _reader(argv) == (2,)


@pytest.mark.parametrize(
    "argv,field,value",
    [
        (["enumerate", "--n", "2", "--infchar", "-1,2"], "infchar", "-1,2"),
        (["lift", "--params", "--json", "--n", "1"], "params", "--json"),
        (["--table-dir", "-d", "verify"], "table_dir", "-d"),
    ],
)
def test_a_value_that_starts_with_a_dash_is_read(argv, field, value):
    assert _reference(argv) == (2,)
    assert _reader(argv)[2][field] == value


@pytest.mark.parametrize(
    "argv",
    [["nonsense", "--help"], ["lift", "--n", "--help"], ["--table-dir", "--help", "verify"]],
)
def test_help_wins_over_an_earlier_usage_error(argv):
    assert _reference(argv) == (2,)
    assert _reader(argv) == ("help",)
