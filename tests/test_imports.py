"""Each entry point loads only the modules its work needs.

``import thetalift`` with ``load_tables()``, and the ``lift``,
``first-occurrence`` and ``infchar`` commands, never load the census and
verification code (``enumeration``) or the K-type code (``lkt``,
``ktypes``).  No entry point loads ``dataclasses``, ``inspect`` or
``argparse``, which cost more at start-up than a lift query's work.
Fresh interpreters run with ``-X importtime``, which logs every module
the first time it is imported.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thetalift
from thetalift import enumeration

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
TRIVIAL22 = "pi_{1}(0,1,{},0,0,(1,1),(0,1))"
CENSUS_AND_KTYPES = {"thetalift.enumeration", "thetalift.lkt", "thetalift.ktypes"}
ENUMERATION_NAMES = (
    "enumerate_o_reps",
    "enumerate_sp_reps",
    "regenerate_appendix_c",
    "verify_tables",
    "verify_unique_by_invariants",
)


# Standard-library modules that take longer to import than a warm lift
# query takes to run.
SLOW_TO_IMPORT = {"argparse", "dataclasses", "inspect"}


def _fresh(*args: str) -> tuple[int, str, set]:
    """Run ``python -X importtime *args``: the exit status, stdout, and
    every module the interpreter loaded."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, proc.stdout, loaded


@functools.cache
def _bare() -> set:
    """The modules a bare interpreter loads."""
    return _fresh("-c", "pass")[2]


def _assert_fast_imports(loaded: set) -> None:
    """Nothing of ``SLOW_TO_IMPORT`` beyond what a bare interpreter loads."""
    assert SLOW_TO_IMPORT & loaded <= _bare()


def test_import_and_table_load_skip_census_and_ktype_code():
    code, _, loaded = _fresh("-c", "import thetalift; thetalift.load_tables()")
    assert code == 0
    assert {m for m in loaded if m.startswith("thetalift")} == {
        "thetalift", "thetalift.exact", "thetalift.roots", "thetalift.langlands", "thetalift.theta"
    }
    _assert_fast_imports(loaded)


@pytest.mark.parametrize(
    "argv,out",
    [
        (["lift", "--params", TRIVIAL22, "--n", "2"], "pi(0,{},0,0,(1,1),(0,1))\n"),
        (["first-occurrence", "--params", TRIVIAL22], "0\n"),
        (["infchar", "--params", TRIVIAL22], "(0,1)\n"),
    ],
)
def test_lift_commands_skip_census_and_ktype_code(argv, out):
    """Run as ``python -m thetalift``, which is the ``thetalift`` command."""
    code, stdout, loaded = _fresh("-m", "thetalift", *argv)
    assert (code, stdout) == (0, out)
    assert "thetalift.cli" in loaded and loaded.isdisjoint(CENSUS_AND_KTYPES)
    _assert_fast_imports(loaded)


@pytest.mark.parametrize(
    "argv,out",
    [
        (["lkt", "--params", TRIVIAL22], "(0;+1)x(0;+1)\n"),
        (["verify", "--suite", "theta4"], "theta4: 3/3 checks passed\n"),
        (["enumerate", "--n", "1", "--infchar", "1"], "4 parameters\n"),
    ],
)
def test_other_commands_load_what_they_need(argv, out):
    code, stdout, loaded = _fresh("-m", "thetalift", *argv)
    assert code == 0 and out in stdout
    assert "thetalift.lkt" in loaded
    _assert_fast_imports(loaded)


def test_public_names_resolve_without_being_stored():
    """The names from ``enumeration`` are looked up there on each access,
    so the package namespace never holds a copy that could go stale."""
    from thetalift import verify_tables

    assert verify_tables is enumeration.verify_tables
    for name in thetalift.__all__:
        assert getattr(thetalift, name) is not None, name
    for name in ENUMERATION_NAMES:
        assert getattr(thetalift, name) is getattr(enumeration, name)
        assert name in dir(thetalift) and name not in vars(thetalift)
    with pytest.raises(AttributeError):
        thetalift.no_such_name
