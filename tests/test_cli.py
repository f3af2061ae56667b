"""End-to-end tests of the command-line interface: subcommands, output
formats, table-directory overrides, and exit codes."""

import contextlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetalift.cli import main
from thetalift.langlands import _checked_o, _checked_sp, _validate_psi, parse_param_pattern
from thetalift.roots import all_roots, parse_psi, root_set

REPO_DIR = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_DIR / "src"
TABLE_DIR = SRC_DIR / "thetalift" / "tables"

TRIVIAL22 = "pi_{1}(0,1,{},0,0,(1,1),(0,1))"
DET22 = "pi_{-1}(0,1,{},0,0,(1,1),(0,1))"


# The rank-101 lift of the trivial character of O(2,2)
RANK101_TARGET = (
    "pi(0,{},0,0,("
    + ",".join(["1"] * 101)
    + "),("
    + ",".join(str(k) for k in [0, 1, *range(1, 100)])
    + "))"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- lift -----------------------------------------------------------------------


def test_lift_text_output(capsys):
    code, out, _ = run(capsys, ["lift", "--params", TRIVIAL22, "--n", "1"])
    assert code == 0
    assert out.strip() == "pi(0,{},0,0,(1),(1))"


def test_lift_json_payload(capsys):
    code, out, _ = run(capsys, ["lift", "--params", TRIVIAL22, "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "input": "pi_{1}(0,1,{},0,0,(1,1),(0,1)) @ O(2,2)",
        "n": 2,
        "zero": False,
        "params": "pi(0,{},0,0,(1,1),(0,1))",
        "provenance": "theta2 table",
    }


def test_lift_zero_is_success_unless_nonzero_expected(capsys):
    code, out, _ = run(capsys, ["lift", "--params", DET22, "--n", "2"])
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, ["lift", "--params", DET22, "--n", "2", "--expect-nonzero"])
    assert code == 1
    payload_code, out, _ = run(
        capsys, ["lift", "--params", DET22, "--n", "2", "--json"]
    )
    payload = json.loads(out)
    assert payload_code == 0 and payload["zero"] is True and payload["params"] is None


# -- infchar / lkt ----------------------------------------------------------------


def test_infchar_accepts_both_sides(capsys):
    code, out, _ = run(capsys, ["infchar", "--params", "pi(0,{},(1),(1),(1),(2))"])
    assert code == 0 and out.strip() == "(0,1,2)"
    code, out, _ = run(capsys, ["infchar", "--params", TRIVIAL22, "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["infchar"] == "(0,1)" and payload["entries"] == ["0", "1"]


def test_lkt_accepts_both_sides(capsys):
    code, out, _ = run(capsys, ["lkt", "--params", "pi(0,{},(1,1),(1,3),0,0)"])
    assert code == 0 and out.splitlines() == ["(1,1,-1,-1)"]
    code, out, _ = run(capsys, ["lkt", "--params", DET22, "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["lkts"] == ["(0;-1)x(0;-1)"]


def _discrete_series_roots(m, long_roots):
    """The roots positive on (m, ..., 1): e_i +- e_j for i < j, and 2e_i
    when ``long_roots``."""
    roots = [f"e{i}{s}e{j}" for i in range(1, m + 1) for j in range(i + 1, m + 1) for s in "+-"]
    roots += [f"2e{i}" for i in range(1, m + 1)] if long_roots else []
    return "{" + ",".join(roots) + "}"


def test_large_discrete_series_validate_in_bounded_time(capsys):
    """Checking that Psi is a positive system, and finding its simple
    roots, costs time linear in the text of Psi: the rank-40 Sp discrete series
    with lam = (40, ..., 1) and the O(60,0) one with lam = (30, ..., 1;)
    each answer within 3 s of CPU time."""
    lam40 = ",".join(map(str, range(40, 0, -1)))
    lam30 = ",".join(map(str, range(30, 0, -1)))
    cases = [
        (
            ["infchar", "--params", f"pi(({lam40}),{_discrete_series_roots(40, True)},0,0,0,0)"],
            "(" + ",".join(map(str, range(1, 41))) + ")",
        ),
        (
            ["lkt", "--params", f"pi_{{1}}(({lam30};),1,{_discrete_series_roots(30, False)},0,0,0,0)"],
            "(" + ",".join(["1"] * 30) + ";+1)x(;)",
        ),
    ]
    for argv, want in cases:
        start = time.process_time()
        code, out, _ = run(capsys, argv)
        assert time.process_time() - start < 3, argv[0]
        assert code == 0 and out.strip() == want


def _interleaved_roots(k):
    """The roots of O(2k,2k) positive on e1 > f1 > e2 > f2 > ... > 0."""
    order = [f"{x}{i}" for i in range(1, k + 1) for x in "ef"]
    return "{" + ",".join(f"{hi}{s}{lo}" for i, hi in enumerate(order) for lo in order[i + 1 :] for s in "+-") + "}"


@pytest.mark.parametrize(
    "argv,want_code,want_err",
    [
        (["infchar"], 0, ""),
        (["lkt"], 0, ""),
        (["lift", "--n", "1"], 2, "unsupported signature O(14,14)"),
        (["first-occurrence"], 2, ""),
    ],
    ids=["infchar", "lkt", "lift", "first-occurrence"],
)
def test_many_zeros_canonicalize_in_bounded_time(capsys, argv, want_code, want_err):
    """Every command puts its parameter in canonical form while parsing it,
    and that flips at most the two zero coordinates that end the halves of
    lam: the O(14,14) discrete series with fourteen zeros in lam answers
    within 1 s of CPU time, however its parameter is cached."""
    zeros = ",".join(["0"] * 7)
    text = f"pi_{{1}}(({zeros};{zeros}),1,{_interleaved_roots(7)},0,0,0,0)"
    _checked_o.cache_clear()
    start = time.process_time()
    code, _, err = run(capsys, argv + ["--params", text])
    assert time.process_time() - start < 1
    assert code == want_code and want_err in err


# -- phi ---------------------------------------------------------------------------


def test_phi_both_directions(capsys):
    code, out, _ = run(
        capsys, ["phi", "--dir", "o2u", "--ktype", "(1;+1)x(0;+1)", "--sig", "2,2", "--n", "1"]
    )
    assert code == 0 and out.strip() == "(1)"
    code, out, _ = run(
        capsys, ["phi", "--dir", "u2o", "--ktype", "(1,0)", "--sig", "2,2", "--n", "2"]
    )
    assert code == 0 and out.strip() == "(1;+1)x(0;+1)"
    code, out, _ = run(
        capsys, ["phi", "--dir", "u2o", "--ktype", "(4,3,2)", "--sig", "4,0", "--n", "3"]
    )
    assert code == 0 and out.strip() == "(2,1;+1)x(;)"


def test_phi_miss_prints_none_with_success(capsys):
    code, out, _ = run(
        capsys,
        ["phi", "--dir", "o2u", "--ktype", "(3;+1)x(0;-1)", "--sig", "2,2", "--n", "0", "--json"],
    )
    assert code == 0
    assert json.loads(out)["result"] is None


def test_phi_rank_mismatch_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, ["phi", "--dir", "u2o", "--ktype", "(1,0)", "--sig", "2,2", "--n", "3"]
    )
    assert code == 2 and "error:" in err


# -- enumerate ----------------------------------------------------------------------


def test_enumerate_rank_one_census(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "1", "--infchar", "5", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 4 and payload["infchar"] == "(5)"
    assert sorted(payload["params"]) == [
        "pi((-5),{-2e1},0,0,0,0)",
        "pi((5),{2e1},0,0,0,0)",
        "pi(0,{},0,0,(-1),(5))",
        "pi(0,{},0,0,(1),(5))",
    ]


@pytest.mark.parametrize("beta,count", [("1/2", 26), ("generic", 26), ("0", 23), ("1", 31)])
def test_enumerate_substitutes_beta(capsys, beta, count):
    code, out, _ = run(capsys, ["enumerate", "--n", "3", "--infchar", "b,0,1", "--beta", beta])
    assert code == 0
    assert out.splitlines()[0] == f"{count} parameters"


@pytest.mark.parametrize(
    "plain,printed,beta",
    [("0,1,2", "(0,1,2)", None), ("b,0,1", "(b,0,1)", "1/2"), ("b,0,1", " ( b, 0,1 ) ", "generic")],
)
def test_enumerate_reads_the_infchar_it_prints(capsys, plain, printed, beta):
    """``--infchar`` takes the parenthesized text ``infchar`` prints as well
    as the bare comma-separated entries, with the same output."""
    extra = [] if beta is None else ["--beta", beta]
    want = run(capsys, ["enumerate", "--n", "3", "--infchar", plain, *extra])
    got = run(capsys, ["enumerate", "--n", "3", "--infchar", printed, *extra])
    assert want[0] == 0 and got == want


def test_enumerate_reaches_rank_seven(capsys):
    """Rank 7 is the enumerate cap; an all-zero character keeps its census
    small, down to the two rank-7 discrete series limits."""
    argv = ["enumerate", "--n", "7", "--infchar", "0,0,0,0,0,0,0", "--json"]
    code, out, _ = run(capsys, argv)
    payload = json.loads(out)
    assert code == 0 and payload["n"] == 7 and payload["count"] == 15
    assert len(payload["params"]) == len(set(payload["params"])) == 15
    limits = [p for p in payload["params"] if p.startswith("pi((0,0,0,0,0,0,0),")]
    assert len(limits) == 2
    assert "pi(0,{},0,0,(1,1,1,1,1,1,1),(0,0,0,0,0,0,0))" in payload["params"]


# -- verify --------------------------------------------------------------------------


def test_verify_suite_reports_success(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "theta4", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True and payload["name"] == "theta4"
    assert all(case["ok"] for case in payload["cases"])


def test_verify_fails_on_corrupted_tables(capsys, tmp_path):
    dest = tmp_path / "tables"
    shutil.copytree(TABLE_DIR, dest)
    path = dest / "appendix_c.tbl"
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.strip() and not l.strip().startswith("#"))
    head, _, rest = lines[idx].partition("=>")
    body, _, cond = rest.rpartition(";")
    first = body.index("(") + 1
    stop = body.index(",", first)
    lines[idx] = (
        head + "=>" + body[:first] + str(int(body[first:stop]) + 1) + body[stop:] + ";" + cond
    )
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, ["--table-dir", str(dest), "verify", "--suite", "appendixC"]
    )
    assert code == 1
    assert "FAIL" in out and "K-type mismatch" in out


# -- first occurrence / inverse lookup --------------------------------------------------


def test_first_occurrence_output(capsys):
    code, out, _ = run(capsys, ["first-occurrence", "--params", DET22, "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["first_occurrence"] == 4
    code, out, _ = run(capsys, ["first-occurrence", "--params", TRIVIAL22])
    assert code == 0 and out.strip() == "0"


def test_inverse_lookup_finds_the_preimage(capsys):
    code, out, _ = run(
        capsys, ["inverse-lookup", "--sp-params", "pi(0,{},0,0,(1),(1))", "--sig", "2,2"]
    )
    assert code == 0
    assert out.splitlines() == ["pi_{1}(0,1,{},0,0,(1,1),(0,1)) @ O(2,2)"]


def test_inverse_lookup_empty_exits_one(capsys):
    code, out, _ = run(
        capsys,
        ["inverse-lookup", "--sp-params", "pi((-1),{-2e1},0,0,0,0)", "--sig", "4,0", "--json"],
    )
    assert code == 1
    assert json.loads(out)["preimages"] == []


def test_inverse_lookup_rejects_other_signatures(capsys):
    code, _, err = run(
        capsys, ["inverse-lookup", "--sp-params", "pi(0,{},0,0,(1),(1))", "--sig", "3,3"]
    )
    assert code == 2 and "p + q = 4" in err


@pytest.mark.parametrize("argv", [["lift", "--n", "1"], ["first-occurrence"]], ids=["lift", "first-occurrence"])
def test_lift_queries_refuse_other_signatures_before_validating(capsys, argv):
    """The O(120,120) discrete series with lam = 0, a 110 kB argument whose
    validation takes over 1 s of CPU time, is refused within 1 s, from a
    cold root-set parse."""
    zeros = ",".join(["0"] * 60)
    text = f"pi_{{1}}(({zeros};{zeros}),1,{_interleaved_roots(60)},0,0,0,0)"
    parse_param_pattern.cache_clear()
    parse_psi.cache_clear()
    _checked_o.cache_clear()
    start = time.process_time()
    code, _, err = run(capsys, argv + ["--params", text])
    assert time.process_time() - start < 1
    assert code == 2 and "unsupported signature O(120,120)" in err
    assert _checked_o.cache_info().currsize == 0


@pytest.mark.parametrize("command", ["infchar", "lkt"])
def test_infchar_and_lkt_refuse_a_large_rank_before_validating(capsys, command):
    """A parameter of rank above 100 (n on the Sp side, (p+q)/2 on the O
    side) is refused on its parsed shape: the O(120,120) discrete series
    with lam = 0, a 110 kB argument, within 1 s of CPU time from cold
    pattern and root-set parses, and no value is validated."""
    zeros = ",".join(["0"] * 60)
    text = f"pi_{{1}}(({zeros};{zeros}),1,{_interleaved_roots(60)},0,0,0,0)"
    parse_param_pattern.cache_clear()
    parse_psi.cache_clear()
    _checked_o.cache_clear()
    start = time.process_time()
    code, out, err = run(capsys, [command, "--params", text])
    assert time.process_time() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {command} supports parameters of rank n <= 100, got O(120,120), of rank 120\n"
    assert _checked_o.cache_info().currsize == 0
    wide = "pi_{1}((1;),1,{},0,0,(" + ",".join(["1"] * 100) + "),(" + ",".join(["0"] * 100) + "))"
    for params, got in ((RANK101_TARGET, "101"), (wide, "O(102,100), of rank 101")):
        code, out, err = run(capsys, [command, "--params", params])
        assert (code, out) == (2, "")
        assert err == f"error: {command} supports parameters of rank n <= 100, got {got}\n"


# One argv argument holds at most 128 kB, its closing NUL included.
ARG_TEXT_MAX = 128 * 1024 - 1


def _largest_fitting(make) -> str:
    """``make(k)`` for the largest k whose text fits in one argv argument,
    found by bisection; the texts grow with k, and ``make(1)`` fits."""
    fits = lambda k: len(make(k).encode()) <= ARG_TEXT_MAX
    low, high = 1, 2
    while fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    return make(low)


# The rank-125 Sp discrete series with lam = (125, ..., 1), the O(130,130)
# one with lam = 0, a U-type of 65 535 entries, an O-type of 65 531 and a
# character of 65 536 zeros: the largest of each kind of text that fits.
ARG_MAX_SP = _largest_fitting(
    lambda m: f"pi(({','.join(map(str, range(m, 0, -1)))}),{_discrete_series_roots(m, True)},0,0,0,0)"
)
ARG_MAX_O = _largest_fitting(
    lambda k: f"pi_{{1}}(({','.join(['0'] * k)};{','.join(['0'] * k)}),1,{_interleaved_roots(k)},0,0,0,0)"
)
ARG_MAX_UTYPE = _largest_fitting(lambda n: "(" + ",".join(["1"] * n) + ")")
ARG_MAX_OTYPE = _largest_fitting(lambda n: "(" + ",".join(["1"] * n) + ";+1)x(;)")
ARG_MAX_INFCHAR = _largest_fitting(lambda n: ",".join(["0"] * n))


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--n", "1", "--params", ARG_MAX_O],
        ["first-occurrence", "--params", ARG_MAX_O],
        ["infchar", "--params", ARG_MAX_SP],
        ["infchar", "--params", ARG_MAX_O],
        ["lkt", "--params", ARG_MAX_SP],
        ["lkt", "--params", ARG_MAX_O],
        ["phi", "--dir", "u2o", "--ktype", ARG_MAX_UTYPE, "--sig", "2,2", "--n", "100"],
        ["phi", "--dir", "o2u", "--ktype", ARG_MAX_OTYPE, "--sig", "2,2", "--n", "100"],
        ["enumerate", "--n", "7", "--infchar", ARG_MAX_INFCHAR],
        ["inverse-lookup", "--sp-params", ARG_MAX_SP, "--sig", "2,2"],
        ["verify", "--suite", "x" * ARG_TEXT_MAX],
    ],
    ids=[
        "lift-o", "first-occurrence-o", "infchar-sp", "infchar-o", "lkt-sp", "lkt-o",
        "phi-u2o", "phi-o2u", "enumerate", "inverse-lookup-sp", "verify",
    ],
)
def test_every_command_bounds_its_work_on_the_largest_argument(capsys, argv):
    """Every subcommand given the largest text of its kind that fits in one
    argv argument answers, or refuses it, within 1 s of CPU time, from cold
    pattern and root-set parses."""
    assert max(len(arg.encode()) for arg in argv) > 120 * 1024
    parse_param_pattern.cache_clear()
    parse_psi.cache_clear()
    start = time.process_time()
    code, _, _ = run(capsys, argv)
    assert time.process_time() - start < 1
    assert code in (0, 1, 2)


# The largest discrete series that infchar and lkt accept: the rank-100 Sp
# one with lam = (100, ..., 1), 78 kB, and the O(100,100) one with lam = 0,
# 76 kB.
RANK100_SP = f"pi(({','.join(map(str, range(100, 0, -1)))}),{_discrete_series_roots(100, True)},0,0,0,0)"
RANK100_O = f"pi_{{1}}(({','.join(['0'] * 50)};{','.join(['0'] * 50)}),1,{_interleaved_roots(50)},0,0,0,0)"


@pytest.mark.parametrize("text", [RANK100_SP, RANK100_O], ids=["sp", "o"])
@pytest.mark.parametrize("command", ["infchar", "lkt"])
def test_accepted_rank_100_texts_answer_in_bounded_time(capsys, command, text):
    """The largest accepted texts are parsed, validated and answered within
    0.5 s of CPU time, from cold parses, root tables and validation memos:
    each root is parsed, sorted, checked and paired in constant time."""
    for memo in (parse_param_pattern, parse_psi, all_roots, root_set, _validate_psi, _checked_sp, _checked_o):
        memo.cache_clear()
    start = time.process_time()
    code, out, err = run(capsys, [command, "--params", text])
    assert time.process_time() - start < 0.5
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "argv, want",
    [
        (["lift", "--params", TRIVIAL22, "--n", "2"], "pi(0,{},0,0,(1,1),(0,1))"),
        (["first-occurrence", "--params", DET22], "4"),
        (
            ["inverse-lookup", "--sp-params", "pi(0,{},0,0,(1),(1))", "--sig", "2,2"],
            "pi_{1}(0,1,{},0,0,(1,1),(0,1)) @ O(2,2)",
        ),
    ],
    ids=["lift", "first-occurrence", "inverse-lookup"],
)
def test_a_query_parses_its_text_once(capsys, argv, want):
    """A query reads its text's pattern to refuse it on its shape, and its
    parse entry then finds that pattern in the memo: with the memo cleared,
    one call misses once and hits once, and answers as before."""
    assert run(capsys, argv) == (0, want + "\n", "")  # imports and the other memos
    parse_param_pattern.cache_clear()
    assert run(capsys, argv) == (0, want + "\n", "")
    info = parse_param_pattern.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_inverse_lookup_refuses_a_large_rank_before_validating(capsys):
    """The rank-150 Sp discrete series, a 193 kB argument whose validation
    takes over 3 s of CPU time, is refused within 1 s, and a bad signature
    before its text is parsed."""
    lam = ",".join(map(str, range(150, 0, -1)))
    target = f"pi(({lam}),{_discrete_series_roots(150, True)},0,0,0,0)"
    start = time.process_time()
    code, _, err = run(capsys, ["inverse-lookup", "--sp-params", target, "--sig", "2,2"])
    assert time.process_time() - start < 1
    assert code == 2 and "rank n <= 100, got 150" in err
    code, _, err = run(capsys, ["inverse-lookup", "--sp-params", "bogus", "--sig", "3,3"])
    assert code == 2 and "p + q = 4" in err


# -- table-directory overrides -----------------------------------------------------------


def test_table_dir_env_override(capsys, monkeypatch):
    monkeypatch.setenv("THETALIFT_TABLE_DIR", "/no/such/table/dir")
    code, _, err = run(capsys, ["lift", "--params", TRIVIAL22, "--n", "1"])
    assert code == 2 and "error:" in err
    # the explicit flag wins over the environment
    code, out, _ = run(
        capsys, ["--table-dir", str(TABLE_DIR), "lift", "--params", TRIVIAL22, "--n", "1"]
    )
    assert code == 0 and out.strip() == "pi(0,{},0,0,(1),(1))"


def test_table_dir_flag_accepts_a_copy(capsys, tmp_path):
    dest = tmp_path / "tables"
    shutil.copytree(TABLE_DIR, dest)
    code, out, _ = run(
        capsys, ["--table-dir", str(dest), "first-occurrence", "--params", DET22]
    )
    assert code == 0 and out.strip() == "4"


# A theta2 row whose loss a table copy can show: with it gone, this
# parameter's rank-2 lift is a table error (exit 2) instead of a value.
DROPPED_ROW_PARAMS = "pi_{1}((2,0;),1,{e1+e2,e1-e2},0,0,0,0)"


def _copy_with_edit(dest: Path, name: str, edit) -> Path:
    shutil.copytree(TABLE_DIR, dest)
    path = dest / name
    path.write_text(edit(path.read_text()))
    return dest


def _copy_without_row(dest: Path) -> Path:
    def drop(text: str) -> str:
        kept = [l for l in text.splitlines() if "pi((m,l)" not in l.replace(" ", "")]
        return "\n".join(kept) + "\n"

    return _copy_with_edit(dest, "theta2.tbl", drop)


def test_relative_table_dir_follows_the_working_directory(capsys, tmp_path, monkeypatch):
    shutil.copytree(TABLE_DIR, tmp_path / "intact" / "tables")
    _copy_without_row(tmp_path / "cut" / "tables")
    argv = ["--table-dir", "tables", "lift", "--params", DROPPED_ROW_PARAMS, "--n", "2"]
    for _ in range(2):
        monkeypatch.chdir(tmp_path / "intact")
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.strip().startswith("pi(")
        monkeypatch.chdir(tmp_path / "cut")
        code, _, err = run(capsys, argv)
        assert code == 2 and "no rank-2 table row matches" in err


def _duplicate_row(text: str) -> str:
    """theta2.tbl with the (m,l) row appended again under m>=l, so that
    the m>l inputs match two rows."""
    row = next(l for l in text.splitlines() if "pi_{1}((m,l;)" in l)
    return text + row.replace("; m>l", "; m>=l") + "\n"


# Table edits that leave a parameter without a rank-2 row, or with two:
# verify reports each as a failed check (exit 1), naming the parameter.
_LIFT_ROW_DEFECTS = {
    "deleted": (
        _copy_without_row,
        "no rank-2 table row matches pi_{1}((1,0;),1,{e1+e2,e1-e2},0,0,0,0) @ O(4,0)",
    ),
    "duplicated": (
        lambda dest: _copy_with_edit(dest, "theta2.tbl", _duplicate_row),
        "pi_{1}((1,0;),1,{e1+e2,e1-e2},0,0,0,0) @ O(4,0) matches rows at lines 9, 25; "
        "rows must be exclusive",
    ),
}


@pytest.mark.parametrize("suite", ["theta12", "props", "all"])
@pytest.mark.parametrize("defect", sorted(_LIFT_ROW_DEFECTS))
def test_verify_reports_a_lift_row_defect(capsys, tmp_path, defect, suite):
    make, message = _LIFT_ROW_DEFECTS[defect]
    dest = make(tmp_path / "tables")
    code, out, err = run(capsys, ["--table-dir", str(dest), "verify", "--suite", suite])
    assert (code, err) == (1, "")
    assert "FAIL  " in out and f"    {message}" in out.splitlines()


def test_verify_reports_a_rank3_template_off_the_classification(capsys, tmp_path):
    """A theta3 template whose character lacks 1 is a classification
    failure, not a crash."""
    row = "pi_{-1}((m;),1,{},0,0,(1),(0)) => pi((m),{2e1},(1),(1),0,0) ; m>=1"
    dest = _copy_with_edit(
        tmp_path / "tables", "theta3.tbl", lambda text: text.replace(row, row.replace("(1),(1)", "(1),(3)"))
    )
    code, out, err = run(capsys, ["--table-dir", str(dest), "verify", "--suite", "theta3"])
    assert (code, err) == (1, "")
    assert "FAIL  each rank-3 lift appears in the classification table" in out
    assert "    line 21: character (1,1,2) of pi((1),{2e1},(1),(3),0,0) lacks 0 or 1" in out


def test_verify_reports_a_wrong_determinant_lift(capsys, tmp_path):
    row = "pi_{-1}(0,1,{},0,0,(1,1),(0,1)) => pi(0,{},(1,1),(1,3),0,0) ; true"
    dest = _copy_with_edit(
        tmp_path / "tables", "theta4.tbl", lambda text: text.replace(row, row.replace("(1,3)", "(1,5)"))
    )
    code, out, err = run(capsys, ["--table-dir", str(dest), "verify", "--suite", "theta4"])
    assert (code, err) == (1, "")
    assert "FAIL  determinant lifts match their frozen values" in out
    assert (
        "    det O(2,2): rank-4 lift pi(0,{},(1,1),(1,5),0,0) expected pi(0,{},(1,1),(1,3),0,0)"
        in out
    )


# Edits of appendix_c.tbl:93 that leave a K-type that is no U(n)-type at b = 2.
_APPENDIX_ROW = "pi(0,{},(b),(b),(1),(1)) => {(b/2+1,0,-b/2),(b/2,0,-b/2-1)} ; b int & b even & b>=2"
_KTYPE_DEFECTS = {
    "non-integral": (("b/2+1,0", "b+1/2+1,0"), "not an integer: 7/2 at b=2"),
    "not-decreasing": (("(b/2,0,", "(0,b/2,"), "U(n) weight not weakly decreasing: (0, 1, -2) at b=2"),
}


@pytest.mark.parametrize("defect", sorted(_KTYPE_DEFECTS))
def test_verify_names_the_appendix_row_of_a_bad_ktype(capsys, tmp_path, defect):
    """A classification K-type that is no U(n)-type at a grid b is a failed
    check naming its row, not an error exit."""
    (old, new), message = _KTYPE_DEFECTS[defect]

    def edit(text: str) -> str:
        assert _APPENDIX_ROW in text
        return text.replace(_APPENDIX_ROW, _APPENDIX_ROW.replace(old, new))

    dest = _copy_with_edit(tmp_path / "tables", "appendix_c.tbl", edit)
    code, out, err = run(capsys, ["--table-dir", str(dest), "verify", "--suite", "all"])
    assert (code, err) == (1, "")
    assert f"    appendix_c.tbl:93: {message}" in out.splitlines()


def test_no_option_value_carries_over_between_calls(capsys, tmp_path):
    """Each ``main`` call reads its options afresh: a call made after
    another one answers as it does alone."""
    cut = str(_copy_without_row(tmp_path / "tables"))
    # (first call, second call): the second must not see the first's options.
    pairs = [
        (["lift", "--params", TRIVIAL22, "--n", "2", "--json"], ["lift", "--params", TRIVIAL22, "--n", "2"]),
        (
            ["--table-dir", cut, "lift", "--params", DROPPED_ROW_PARAMS, "--n", "2"],
            ["lift", "--params", DROPPED_ROW_PARAMS, "--n", "2"],
        ),
        (
            ["lift", "--params", DET22, "--n", "2", "--expect-nonzero"],
            ["lift", "--params", DET22, "--n", "2"],
        ),
        (["lift", "--params", TRIVIAL22], ["lift", "--params", TRIVIAL22, "--n", "1"]),
    ]
    # Each second call made before its first one.
    alone = {tuple(argv): run(capsys, argv) for pair in pairs for argv in reversed(pair)}
    assert [alone[tuple(second)][0] for _, second in pairs] == [0, 0, 0, 0]
    assert [alone[tuple(first)][0] for first, _ in pairs] == [0, 2, 1, 2]
    for first, second in pairs * 2:
        assert run(capsys, first) == alone[tuple(first)], first
        assert run(capsys, second) == alone[tuple(second)], second


# -- usage errors --------------------------------------------------------------------------


def test_bad_parameter_text_exits_two(capsys):
    code, _, err = run(capsys, ["lift", "--params", "pi_{1}(0,1,bogus)", "--n", "1"])
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nonsense"],
        ["lift", "--params", "x", "--n", "1", "--unknown-flag"],
        ["lift", "--n", "1"],
        ["lkt", "--params", "pi(0,{},0,0,(1),(c1))"],
        ["infchar", "--params", "pi(0,{},(1_0),(1),0,0)"],
        ["inverse-lookup", "--sp-params", "pi(0,{},0,0,(1),(1))", "--sig=5,-1"],
        ["phi", "--dir", "u2o", "--ktype", "(1)", "--sig=-2,0", "--n", "1"],
        ["phi", "--dir", "o2u", "--ktype", "(1;+1)x(0;+1)", "--sig", "2,2", "--n", "-3"],
        ["enumerate", "--n", "8", "--infchar", "0,1,2,3,4,5,6,7"],
        ["lift", "--params", "pi_{1}(0,1,{},0,0,(1,1),(0,1))", "--n", "101"],
        ["phi", "--dir", "o2u", "--ktype", "(1;+1)x(0;+1)", "--sig", "2,2", "--n", "101"],
        ["inverse-lookup", "--sp-params", RANK101_TARGET, "--sig", "2,2"],
        ["lift", "--par", TRIVIAL22, "--n", "1"],
        ["lift", "--params", TRIVIAL22, "--n", "1", "--json=1"],
        ["lift", "--params", TRIVIAL22, "--n"],
        ["--table-dir"],
        ["lift", "--params", TRIVIAL22, "--n", "1", "--table-dir", str(TABLE_DIR)],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    """Usage errors, among them an abbreviated option, a flag given a
    value, an option without its value and ``--table-dir`` after the
    command, exit 2 with an error line and no traceback."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "error: " in err and "Traceback" not in err


def test_unknown_suite_names_every_suite(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "bogus"])
    assert code == 2 and err.startswith("error: unknown suite 'bogus'")
    assert all(name in err for name in ("appendixC", "theta12", "theta3", "theta4", "props"))
    assert "Traceback" not in err


@pytest.mark.parametrize("sig", ["O(2, 2)", "O( 2 , 2 )", "O(2,2)"])
def test_spaced_signature_tail_is_accepted(capsys, sig):
    assert run(capsys, ["lkt", "--params", f"{TRIVIAL22} @ {sig}"]) == (0, "(0;+1)x(0;+1)\n", "")


@pytest.mark.parametrize("sig", ["O(2,x)", "O(-2,6)", "Sp(4)"])
def test_bad_signature_tail_is_named(capsys, sig):
    code, _, err = run(capsys, ["lkt", "--params", f"{TRIVIAL22} @ {sig}"])
    assert code == 2 and repr(sig) in err


@pytest.mark.parametrize("sig", ["O(2,2)", "Sp(4)", "Sp(2,R)", ""])
@pytest.mark.parametrize("command", ["infchar", "lkt"])
def test_sp_signature_tail_is_named(capsys, command, sig):
    """Sp parameter text takes no tail, and any tail is refused by name."""
    code, out, err = run(capsys, [command, "--params", f"pi(0,{{}},0,0,(1),(0)) @ {sig}"])
    assert (code, out) == (2, "") and repr(sig) in err


def _many_slots(template, s):
    mu = ",".join(str(2 * i) for i in range(1, s + 1))
    return template.format(mu=mu, nu=",".join(["1"] * s))


@pytest.mark.parametrize(
    "template, at_limit",
    [
        ("pi((1),{{2e1}},({mu}),({nu}),0,0)", 2048),
        ("pi_{{1}}((;),1,{{}},({mu}),({nu}),0,0)", 4096),
    ],
    ids=["sp", "o"],
)
def test_lkt_slot_limit_is_named(capsys, template, at_limit):
    """``lkt`` answers up to 12 (mu, nu) slots and refuses 13, whose answer
    doubles, with a usage error."""
    code, out, _ = run(capsys, ["lkt", "--params", _many_slots(template, 12)])
    assert code == 0 and len(out.splitlines()) == at_limit
    code, out, err = run(capsys, ["lkt", "--params", _many_slots(template, 13)])
    assert (code, out) == (2, "")
    assert err == "error: lkt supports at most 12 (mu, nu) slots, got 13\n"


def test_negative_enumerate_rank_is_named(capsys):
    code, _, err = run(capsys, ["enumerate", "--n", "-1", "--infchar", ""])
    assert code == 2 and err == "error: rank n must be nonnegative, got -1\n"


def test_bad_signature_exits_two(capsys):
    code, _, err = run(
        capsys, ["phi", "--dir", "o2u", "--ktype", "(1;+1)x(0;+1)", "--sig", "2", "--n", "1"]
    )
    assert code == 2 and "signature" in err


@pytest.mark.parametrize(
    "argv,bad",
    [
        (["phi", "--dir", "o2u", "--ktype", "(1;+1)x(0;+1)", "--sig", "2,x", "--n", "1"], "2,x"),
        (["inverse-lookup", "--sp-params", "pi(0,{},0,0,(1),(1))", "--sig", "a,b"], "a,b"),
        (["phi", "--dir", "u2o", "--ktype", "(a)", "--sig", "2,2", "--n", "1"], "(a)"),
        (["phi", "--dir", "o2u", "--ktype", "(a;1)x(0;1)", "--sig", "2,2", "--n", "1"], "(a;1)"),
    ],
)
def test_non_integer_text_is_named(capsys, argv, bad):
    """A non-integer signature, U-type weight or O-factor entry is a usage
    error that quotes the text, not the message of ``int``."""
    code, _, err = run(capsys, argv)
    assert code == 2 and repr(bad) in err and "int()" not in err


@pytest.mark.parametrize("beta", ["1/0", "x", "b", "1e1", "1_0", "0.5"])
def test_bad_beta_names_the_value(capsys, beta):
    code, _, err = run(capsys, ["enumerate", "--n", "3", "--infchar", "b,0,1", "--beta", beta])
    assert code == 2 and f"got {beta!r}" in err


_BAD_ROOT_SP = "pi((2,1),{{{root},e1+e2,2e1,2e2}},0,0,0,0)"
_BAD_ROOT_O = "pi_{{1}}((2,1;),1,{{{root},e1+e2}},0,0,0,0)"


@pytest.mark.parametrize("root", ["e1-e1", "e1+e2+e1", "e1+e1+e1", "e1+e2-e2"])
@pytest.mark.parametrize(
    "argv, template, group",
    [
        (["infchar", "--params"], _BAD_ROOT_SP, "Sp(4,R)"),
        (["lkt", "--params"], _BAD_ROOT_O, "O(4,0)"),
        (["lift", "--n", "1", "--params"], _BAD_ROOT_O, "O(4,0)"),
        (["first-occurrence", "--params"], _BAD_ROOT_O, "O(4,0)"),
        (["inverse-lookup", "--sig", "2,2", "--sp-params"], _BAD_ROOT_SP, "Sp(4,R)"),
    ],
    ids=["infchar", "lkt", "lift", "first-occurrence", "inverse-lookup"],
)
def test_a_sum_that_is_no_root_is_named(capsys, argv, template, group, root):
    """A member of Psi that cancels to zero, or adds up to no root of the
    group, is refused by its text with exit 2."""
    code, out, err = run(capsys, argv + [template.format(root=root)])
    assert (code, out) == (2, "")
    assert err == f"error: bad root {root!r} for {group}\n"


@pytest.mark.parametrize("digit", ["\u0661", "\u0967", "\uff11"], ids=["arabic-indic", "devanagari", "fullwidth"])
@pytest.mark.parametrize(
    "argv",
    [
        ["infchar", "--params", "pi((1),{2e{d}},0,0,0,0)"],
        ["lkt", "--params", "pi(({d}),{2e1},0,0,0,0)"],
        ["lkt", "--params", "pi_{1}((0;),-1,{},0,0,(1),(1)) @ O(3,{d})"],
        ["lift", "--n", "1", "--params", "pi_{1}(0,1,{},0,0,(1,1),(0,{d}))"],
        ["enumerate", "--n", "1", "--infchar", "{d}"],
        ["enumerate", "--n", "1", "--infchar", "b", "--beta", "{d}"],
    ],
    ids=["root", "lam", "signature", "kappa", "infchar", "beta"],
)
def test_non_ascii_digits_exit_two(capsys, argv, digit):
    """Every number the text grammars read is written in ASCII digits: each
    text is accepted with the digit 1 where ``{d}`` stands, and refused with
    the digit one of another script there."""
    assert run(capsys, [arg.replace("{d}", "1") for arg in argv])[0] == 0
    code, out, err = run(capsys, [arg.replace("{d}", digit) for arg in argv])
    assert (code, out) == (2, "") and err.startswith("error:")


def test_help_exits_zero(capsys):
    """``-h`` or ``--help``, before or after the command, prints the usage."""
    for argv in (["--help"], ["-h"], ["lift", "--help"]):
        code, out, err = run(capsys, argv)
        assert code == 0 and "lift" in out and "inverse-lookup" in out, argv
        assert err == "", argv


def test_closed_stdout_ends_quietly():
    """A reader that stops after one line gets no traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    argv = ["enumerate", "--n", "5", "--infchar", "0,1,2,3,4"]
    with subprocess.Popen(
        [sys.executable, "-m", "thetalift.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert first == b"1732 parameters\n"
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Exception ignored" not in err


def test_readme_commands_run(capsys):
    """Every README line that starts with ``thetalift `` runs through
    ``main`` and exits 0, or N where the line ends in ``# exit N``."""
    lines = [
        line for line in (REPO_DIR / "README.md").read_text().splitlines()
        if line.startswith("thetalift ")
    ]
    assert lines
    for line in lines:
        want = re.search(r"#\s*exit (\d+)", line)
        code, _, err = run(capsys, shlex.split(line, comments=True)[1:])
        assert code == (int(want.group(1)) if want else 0), (line, err)


# -- fuzz -------------------------------------------------------------------------------

_O_TEXTS = [
    TRIVIAL22,
    DET22,
    "pi_{1}((1,0;),1,{e1+e2,e1-e2},0,0,0,0) @ O(4,0)",
    "pi_{1}((0;),-1,{},0,0,(1),(1)) @ O(3,1)",
    "pi_{1}((2;1),1,{e1+f1,e1-f1},0,0,0,0)",
    "pi_{1}(0,1,{},(3),(1/2),0,0)",
    "pi_{1}((;0),1,{},0,0,(1),(b))",
]
_SP_TEXTS = [
    "pi(0,{},0,0,(1),(1))",
    "pi(0,{},(1),(1),(1),(2))",
    "pi((1,0),{e1+e2,e1-e2,2e1,2e2},(1),(3),0,0)",
    "pi((2,1),{e1-e2,e1+e2,2e1,-2e2},0,0,(1),(b))",
]
_TOKENS = [
    "(", ")", "{", "}", ",", ";", " ", "0", "1", "-1", "2", "3", "1/2", "-3/2", "b",
    "2b", "i", "c1", "m", "e1", "f1", "2e1", "e1+e2", "-e1-f1", "e3", "pi(", "pi_{1}(",
    "pi_{-1}(", "pi_{2}(", "@ O(2,2)", "@ O(4,0)", "@ O(-1,5)", "@ O( 2 , 2 )", "@ Sp(4)", "@",
    "+1", "-", "x", "", "-e1", "+e1", "-2e1",
]


@st.composite
def _mutated(draw, seeds):
    """A valid text with up to two tokens inserted or put in place of a span."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.sampled_from(_TOKENS)) + text[j:]
    return text


@st.composite
def _foreign_digit(draw, seeds):
    """A valid text with one of its ASCII digits replaced by a decimal digit
    of another script."""
    text = draw(st.sampled_from(seeds))
    k = draw(st.sampled_from([k for k, ch in enumerate(text) if ch in "0123456789"]))
    digit = draw(st.characters(whitelist_categories=("Nd",), min_codepoint=128))
    return text[:k] + digit + text[k + 1 :]


@st.composite
def _underscored(draw, seeds):
    """A valid text with ``_0`` put after one of its ASCII digits, which
    ``int`` would read as a digit separator."""
    text = draw(st.sampled_from(seeds))
    k = draw(st.sampled_from([k for k, ch in enumerate(text) if ch in "0123456789"]))
    return text[: k + 1] + "_0" + text[k + 1 :]


def _integer_texts(seeds):
    digits = [text for text in seeds if any(ch in "0123456789" for ch in text)]
    return st.one_of(_mutated(seeds), _foreign_digit(digits), _underscored(digits))


_RANKS = st.one_of(st.integers(-2, 7).map(str), _foreign_digit(["0", "2", "-1"]), _underscored(["1"]))
_SIGS = _integer_texts(["2,2", "3,1", "4,0", "1,3", "0,4"])
_PHI_ARGS = st.one_of(
    st.tuples(st.just("o2u"), _integer_texts(["(1;+1)x(0;+1)", "(0;-1)x(2;+1)", "(1,0;+1)x(;-1)"])),
    st.tuples(st.just("u2o"), _integer_texts(["(1)", "(1,0)", "(2,0,-1)", "()"])),
)
# The integer arguments: a value that is not ASCII or holds an underscore
# must be refused, as ``int`` alone would not.
_INTEGER_FLAGS = ("--n", "--sig", "--ktype")
_ARGVS = st.one_of(
    st.tuples(st.just("lift"), st.just("--params"), _mutated(_O_TEXTS), st.just("--n"), _RANKS),
    st.tuples(st.just("first-occurrence"), st.just("--params"), _mutated(_O_TEXTS)),
    st.tuples(
        st.sampled_from(["lkt", "infchar"]), st.just("--params"), _mutated(_O_TEXTS + _SP_TEXTS)
    ),
    st.tuples(
        st.sampled_from(["lkt", "infchar"]), st.just("--params"), _foreign_digit(_O_TEXTS + _SP_TEXTS)
    ),
    st.tuples(st.just("first-occurrence"), st.just("--params"), _foreign_digit(_O_TEXTS)),
    st.builds(
        lambda dk, sig, n: ("phi", "--dir", dk[0], "--ktype", dk[1], "--sig", sig, "--n", n),
        _PHI_ARGS,
        _SIGS,
        _RANKS,
    ),
    st.tuples(
        st.just("inverse-lookup"),
        st.just("--sp-params"),
        _mutated(_SP_TEXTS),
        st.just("--sig"),
        _SIGS,
    ),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=_ARGVS, as_json=st.booleans())
@example(argv=("lift", "--params", "pi_{1}(0,1,{},0,0,(1,1),(0,1))", "--n", "1_0"), as_json=False)
@example(argv=("phi", "--dir", "o2u", "--ktype", "(1_0,0;)x(;)", "--sig", "4,0", "--n", "2"), as_json=False)
@example(argv=("phi", "--dir", "u2o", "--ktype", "(\u0661,0)", "--sig", "2,2", "--n", "2"), as_json=False)
def test_fuzzed_argv_exits_cleanly(argv, as_json):
    """Mutated parameter, K-type, signature and rank texts end in a
    documented exit code, never in an exception, and an integer argument
    in other digits than ASCII, or with an underscore, exits 2."""
    argv = list(argv) + (["--json"] if as_json else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
    values = [value for flag, value in zip(argv, argv[1:]) if flag in _INTEGER_FLAGS]
    if any(not value.isascii() or "_" in value for value in values):
        assert code == 2, argv
