"""End-to-end tests of the command-line interface: subcommands, output
formats, table-directory overrides, and exit codes."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalift.cli import main

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
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


@pytest.fixture
def fresh_parser():
    """The parser cache emptied before and after the test."""
    from thetalift import cli

    cli._parser.cache_clear()
    yield cli
    cli._parser.cache_clear()


def test_parser_is_built_once_and_leaks_nothing(capsys, tmp_path, monkeypatch, fresh_parser):
    cli = fresh_parser
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
    # Each call made first, with a parser of its own.
    alone = {}
    for argv in (argv for pair in pairs for argv in pair):
        cli._parser.cache_clear()
        alone[tuple(argv)] = run(capsys, argv)
    assert [alone[tuple(second)][0] for _, second in pairs] == [0, 0, 0, 0]
    assert [alone[tuple(first)][0] for first, _ in pairs] == [0, 2, 1, 2]

    built = []
    real = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for first, second in pairs * 2:
        assert run(capsys, first) == alone[tuple(first)], first
        assert run(capsys, second) == alone[tuple(second)], second
    assert len(built) == 1


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
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    assert run(capsys, argv)[0] == 2


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


@pytest.mark.parametrize("beta", ["1/0", "x", "b"])
def test_bad_beta_names_the_value(capsys, beta):
    code, _, err = run(capsys, ["enumerate", "--n", "3", "--infchar", "b,0,1", "--beta", beta])
    assert code == 2 and f"got {beta!r}" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and "lift" in out and "inverse-lookup" in out


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
    "+1", "-", "x", "",
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


_RANKS = st.integers(-2, 7).map(str)
_SIGS = _mutated(["2,2", "3,1", "4,0", "1,3", "0,4"])
_PHI_ARGS = st.one_of(
    st.tuples(st.just("o2u"), _mutated(["(1;+1)x(0;+1)", "(0;-1)x(2;+1)", "(1,0;+1)x(;-1)"])),
    st.tuples(st.just("u2o"), _mutated(["(1)", "(1,0)", "(2,0,-1)", "()"])),
)
_ARGVS = st.one_of(
    st.tuples(st.just("lift"), st.just("--params"), _mutated(_O_TEXTS), st.just("--n"), _RANKS),
    st.tuples(st.just("first-occurrence"), st.just("--params"), _mutated(_O_TEXTS)),
    st.tuples(
        st.sampled_from(["lkt", "infchar"]), st.just("--params"), _mutated(_O_TEXTS + _SP_TEXTS)
    ),
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
def test_fuzzed_argv_exits_cleanly(argv, as_json):
    """Mutated parameter, K-type and signature texts end in a documented
    exit code, never in an exception."""
    argv = list(argv) + (["--json"] if as_json else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
