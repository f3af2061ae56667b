"""Table-file integrity: content pins, loader structure, row grammar,
and fault injection through the --table-dir override."""

import hashlib
import shutil
from pathlib import Path

import pytest

from thetalift import langlands
from thetalift import theta as theta_module
from thetalift.enumeration import (
    BETA_GRID,
    _instantiated_row_cases,
    beta_scalar,
    regenerate_appendix_c,
    verify_tables,
)
from thetalift.exact import GENERIC_B, Scalar
from thetalift.langlands import ParamError, parse_expr, parse_o, parse_param_pattern, parse_params, render_o
from thetalift.roots import PositiveSystem, SpKind, parse_psi
from thetalift.theta import (
    ENV_TABLE_DIR,
    TableError,
    appendix_rows_at,
    default_table_dir,
    first_occurrence,
    instantiate_lkt_row,
    load_tables,
    lookup_lift,
    theta_n,
)

TABLE_DIR = Path(__file__).resolve().parents[1] / "src" / "thetalift" / "tables"

# Audited content pins: any edit to the data files must be deliberate and
# re-audited against the written tables before updating these.
SHA256 = {
    "theta1.tbl": "f861e11d2c8efeacddd57bc5b2ec2735e0acbacb5ef8b898afddd93176a95c68",
    "theta2.tbl": "41866553a098113be333479f4269d699ecb01ecc81ee7bed28e9c46593a7a3a8",
    "theta3.tbl": "d94f19cafa1682f8474381ed5112d4846faa4778a75ac0a63448ce7edf0f9a6d",
    "theta4.tbl": "34c577eac7829eb0c802fbe1b7cb8487c9a2395ae0beef2c895c46dde9c68f5f",
    "appendix_c.tbl": "d4edba1a13d1a5811df339bc3ef7b2b78618e43987e07cfae7154e867032c896",
}

ROW_COUNTS = {1: 6, 2: 10, 3: 11, 4: 3}
APPENDIX_ROWS = 95


def test_table_files_pinned():
    for name, want in SHA256.items():
        digest = hashlib.sha256((TABLE_DIR / name).read_bytes()).hexdigest()
        assert digest == want, f"{name} changed; re-audit before repinning"


def test_loader_row_counts():
    tables = load_tables()
    for rank, count in ROW_COUNTS.items():
        assert len(tables.theta(rank).rows) == count
    assert len(tables.appendix_c) == APPENDIX_ROWS


def test_loader_uses_packaged_dir_and_caches():
    assert load_tables() is load_tables()
    assert Path(load_tables().source) == default_table_dir().resolve()


def test_environment_directory_takes_effect_and_reverts(tmp_path, monkeypatch):
    packaged = load_tables()
    dest = _copy_tables(tmp_path)
    monkeypatch.setenv(ENV_TABLE_DIR, str(dest))
    copied = load_tables()
    assert copied.source == str(dest.resolve())
    assert load_tables() is copied
    monkeypatch.delenv(ENV_TABLE_DIR)
    assert load_tables() is packaged


def test_every_lift_row_has_condition_and_sides():
    tables = load_tables()
    for rank in (1, 2, 3, 4):
        for row in tables.theta(rank).rows:
            assert row.pattern.side == "o"
            assert row.template.side == "sp"
            assert row.cond


def test_appendix_rows_are_sp_patterns_with_ktypes():
    tables = load_tables()
    for row in tables.appendix_c:
        assert row.pattern.side == "sp"
        assert row.lkts
        assert row.pattern.var_names() <= {"b"}


def test_missing_directory_errors():
    with pytest.raises(TableError):
        load_tables("/no/such/table/dir")


def _copy_tables(tmp_path: Path) -> Path:
    dest = tmp_path / "tables"
    shutil.copytree(TABLE_DIR, dest)
    return dest


def _log_calls(monkeypatch, owner, name: str, log: list) -> None:
    """Route the calls of ``owner.name`` through a wrapper that logs their
    arguments."""
    fn = getattr(owner, name)

    def logged(*args):
        log.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, staticmethod(logged) if isinstance(owner, type) else logged)


def test_load_tables_parses_each_distinct_text_once(monkeypatch, tmp_path):
    """Loading the tables parses each distinct row text once, and so asks
    for 869 slot-token and 140 root-set parses, but parses each of the 31
    distinct tokens and 20 distinct (root set, kind) pairs once."""
    parse_param_pattern.cache_clear()
    parse_expr.cache_clear()
    parse_psi.cache_clear()
    tokens, root_sets, scalars, systems = [], [], [], []
    _log_calls(monkeypatch, langlands, "parse_expr", tokens)
    _log_calls(monkeypatch, langlands, "parse_psi", root_sets)
    # each token parse reads one scalar, and each root-set parse builds
    # one positive system
    _log_calls(monkeypatch, langlands, "parse_scalar", scalars)
    _log_calls(monkeypatch, PositiveSystem, "of", systems)
    load_tables(_copy_tables(tmp_path))
    assert (len(tokens), len(set(tokens)), len(scalars)) == (869, 31, 31)
    assert (len(root_sets), len(set(root_sets)), len(systems)) == (140, 20, 20)
    assert (parse_expr.cache_info().misses, parse_psi.cache_info().misses) == (31, 20)


def test_cached_parses_equal_uncached(monkeypatch, tmp_path, lift_pool):
    """On every row text of the shipped tables and every one of the 341
    pool texts, and on each of their slot tokens and (root set, kind)
    pairs, the cached parse equals the uncached one, and bad text raises
    the same error on every call."""
    parse_param_pattern.cache_clear()
    tokens, root_sets, rows = [], [], []
    _log_calls(monkeypatch, langlands, "parse_expr", tokens)
    _log_calls(monkeypatch, langlands, "parse_psi", root_sets)
    _log_calls(monkeypatch, theta_module, "parse_param_pattern", rows)
    load_tables(_copy_tables(tmp_path))
    pool = [render_o(pi) for pi in lift_pool]
    for text in pool:
        parse_params(text)
    monkeypatch.undo()
    assert (len(lift_pool), len(set(tokens)), len(set(root_sets))) == (341, 37, 24)
    for (text,) in set(tokens):
        assert parse_expr(text) == parse_expr.__wrapped__(text), text
    for text, kind in set(root_sets):
        assert parse_psi(text, kind) == parse_psi.__wrapped__(text, kind), text
    texts = {text for (text,) in rows}
    assert (len(rows), len(texts)) == (155, 140)
    for text in texts | set(pool):
        assert parse_param_pattern(text) == parse_param_pattern.__wrapped__(text), text

    def message(error, parse, *args) -> str:
        with pytest.raises(error) as err:
            parse(*args)
        return str(err.value)

    for text in ("1e5", "0/0"):
        want = message(ParamError, parse_expr.__wrapped__, text)
        assert message(ParamError, parse_expr, text) == message(ParamError, parse_expr, text) == want
    bad = ("{e1+e3}", SpKind(2))
    want = message(ValueError, parse_psi.__wrapped__, *bad)
    assert message(ValueError, parse_psi, *bad) == message(ValueError, parse_psi, *bad) == want
    for text in ("pi_{1}(0,1,bogus)", "pi((1,0),{e1+e3},0,0,0,0)", "pi_{1}(0,1,{},0,0,(1,1),(0,1)) @ O(3,1)"):
        want = message(ParamError, parse_param_pattern.__wrapped__, text)
        got = [message(ParamError, parse_param_pattern, text) for _ in range(2)]
        assert got == [want, want], text


def _corrupt_first_ktype(tmp_path: Path) -> tuple[Path, int]:
    """A copy of the tables whose first classification row has the first
    entry of its first K-type shifted by one, and that row's line."""
    dest = _copy_tables(tmp_path)
    path = dest / "appendix_c.tbl"
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.strip() and not l.strip().startswith("#"))
    head, _, cond = lines[idx].partition("=>")
    body, _, cond = cond.rpartition(";")
    # shift the first K-type entry by one: still well-formed, now wrong
    assert body.strip().startswith("{(")
    first = body.index("(") + 1
    stop = body.index(",", first)
    bumped = str(int(body[first:stop]) + 1)
    lines[idx] = head + "=>" + body[:first] + bumped + body[stop:] + ";" + cond
    path.write_text("\n".join(lines) + "\n")
    return dest, idx + 1


def test_corrupt_ktype_value_reported_as_mismatch(tmp_path):
    dest, _ = _corrupt_first_ktype(tmp_path)
    tables = load_tables(dest)
    report = regenerate_appendix_c(0, tables)
    assert not report.ok
    assert any("K-type mismatch" in d for c in report.cases for d in c.details)


def test_theta3_keeps_nothing_from_a_run_on_other_tables(tmp_path):
    """The theta3 suite builds each b's classification rows once per run: after
    a run on the shipped tables, a run in the same process on a copy with
    a corrupted K-type in a row that a rank-3 lift lands on reports it."""
    shipped = load_tables()
    assert verify_tables("theta3", shipped).ok
    dest, line = _corrupt_first_ktype(tmp_path)
    lifts = {want for _, _, want in _instantiated_row_cases(shipped, 3)[0]}
    (row,) = [row for row in shipped.appendix_c if row.line == line]
    assert any(
        hit is not None and hit[0] in lifts
        for hit in (instantiate_lkt_row(row, beta_scalar(b)) for b in BETA_GRID)
    )
    report = verify_tables("theta3", load_tables(dest))
    assert any("classification K-types differ" in d for c in report.cases for d in c.details)


def test_verify_keeps_nothing_from_a_run_on_other_tables(tmp_path):
    """The check inputs ``verify_tables`` shares among its suites last one
    call: after a run on the shipped tables, a run in the same process on a
    copy with a corrupted K-type fails both the b = 0 regeneration and the
    rank-3 classification check."""
    assert verify_tables("all").ok
    dest, _ = _corrupt_first_ktype(tmp_path)
    report = verify_tables("all", load_tables(dest))

    def failed(label: str) -> tuple[str, ...]:
        (case,) = [c for c in report.cases if c.label.startswith(label)]
        assert not case.ok
        return case.details

    assert any("K-type mismatch" in d for d in failed("appendix-c: appendix-c[b=0]: "))
    assert any("classification K-types differ" in d for d in failed("theta3: each rank-3 lift appears"))


@pytest.mark.parametrize(
    "name, line, binding",
    [("theta3.tbl", 8, "m=2"), ("theta3.tbl", 25, "c1=2"), ("theta2.tbl", 14, "m=1")],
    ids=["theta3.tbl:8", "theta3.tbl:25", "theta2.tbl:14"],
)
def test_template_that_no_longer_instantiates_fails_verify(tmp_path, name, line, binding):
    """Negating e1+e2 in the template Psi of a lift-table row leaves no
    positive system, so the row's lift is no parameter where its pattern is
    one: ``verify`` fails that row by file, line and binding, and every
    suite, ``props`` among them, still runs its other checks."""
    dest = _copy_tables(tmp_path)
    path = dest / name
    lines = path.read_text().splitlines()
    pattern, _, template = lines[line - 1].partition("=>")
    assert "{e1+e2," in template
    lines[line - 1] = pattern + "=>" + template.replace("{e1+e2,", "{-e1-e2,", 1)
    path.write_text("\n".join(lines) + "\n")
    report = verify_tables("all", load_tables(dest))
    suite = "theta3" if name == "theta3.tbl" else "theta12"
    failed = {c.label: c.details for c in report.cases if not c.ok}
    label = f"{suite}: {name}:{line}: template instantiates where the pattern does"
    assert failed[label][0] == f"at {{{binding}}}: Psi is not a positive system"
    for each in ("theta3", "theta12", "props"):
        assert f"{each}: suite runs without a table, lift or parameter error" not in failed
    if suite == "theta3":
        assert list(failed) == [label]


def test_corrupt_condition_creates_duplicate_row_error(tmp_path):
    dest = _copy_tables(tmp_path)
    path = dest / "appendix_c.tbl"
    lines = path.read_text().splitlines()
    data = [i for i, l in enumerate(lines) if l.strip() and not l.strip().startswith("#")]
    # clone a data row with its condition widened to 'true': now two rows
    # cover the same parameter at its original b values
    src = lines[data[0]]
    head, _, _ = src.rpartition(";")
    lines.append(head + "; true")
    path.write_text("\n".join(lines) + "\n")
    tables = load_tables(dest)
    report = regenerate_appendix_c(0, tables)
    assert not report.ok


def test_deleted_lift_row_breaks_coverage(tmp_path):
    dest = _copy_tables(tmp_path)
    path = dest / "theta2.tbl"
    lines = [
        l
        for l in path.read_text().splitlines()
        if "pi((m,l)" not in l.replace(" ", "")
    ]
    path.write_text("\n".join(lines) + "\n")
    tables = load_tables(dest)
    pi = parse_o("pi_{1}((2,0;),1,{e1+e2,e1-e2},0,0,0,0)")
    assert lookup_lift(load_tables().theta(2), pi) is not None
    assert lookup_lift(tables.theta(2), pi) is None


def test_lifts_follow_an_edited_copy_of_the_tables(tmp_path):
    """A remembered table match belongs to the table's rows, not to its rank
    or directory: after lifts on the shipped tables, the same queries in
    the same process answer from a copy with a rank-1 template changed to
    another parameter, and from one with that rank-1 row and the rank-2 row
    of pi deleted."""
    pi = parse_o("pi_{1}((2,0;),1,{e1+e2,e1-e2},0,0,0,0)")
    row1 = "pi_{1}((m,0;),1,{e1+e2,e1-e2},0,0,0,0) => pi((m),{2e1},0,0,0,0) ; m>=1"
    row2 = "pi_{1}((m,l;),1,{e1+e2,e1-e2},0,0,0,0) => pi((m,l),{e1+e2,e1-e2,2e1,2e2},0,0,0,0) ; m>l"
    shipped = load_tables()
    for _ in range(2):
        assert first_occurrence(pi, shipped) == 1
        assert theta_n(pi, 1, shipped).render() == "pi((2),{2e1},0,0,0,0)"
        assert theta_n(pi, 3, shipped).provenance == "theta2 table + induct_n(k=1)"

    def edited(name: str, edits: dict) -> Path:
        dest = _copy_tables(tmp_path / name)
        for file, (row, new) in edits.items():
            text = (dest / file).read_text()
            assert text.count(row + "\n") == 1
            (dest / file).write_text(text.replace(row + "\n", new))
        return dest

    negated = row1.replace("pi((m),{2e1}", "pi((-m),{-2e1}") + "\n"
    changed = load_tables(edited("changed", {"theta1.tbl": (row1, negated)}))
    assert first_occurrence(pi, changed) == 1
    assert theta_n(pi, 1, changed).render() == "pi((-2),{-2e1},0,0,0,0)"
    deleted = load_tables(edited("deleted", {"theta1.tbl": (row1, ""), "theta2.tbl": (row2, "")}))
    assert first_occurrence(pi, deleted) == 2
    assert theta_n(pi, 1, deleted).is_zero
    with pytest.raises(TableError, match="^no rank-2 table row matches"):
        theta_n(pi, 3, deleted)
    assert theta_n(pi, 1, shipped).render() == "pi((2),{2e1},0,0,0,0)"


def test_malformed_row_raises(tmp_path):
    dest = _copy_tables(tmp_path)
    path = dest / "theta1.tbl"
    path.write_text(path.read_text() + "\npi_{1}((m;),1,{},0,0,0,0)\n")
    with pytest.raises(TableError, match=r"theta1\.tbl:\d+: row has no '=>'"):
        load_tables(dest)


_PAIR_ROW = "pi_{1}(0,1,{},0,0,(1,s1),(0,c1)) => pi(0,{},0,0,(s1),(c1))"


@pytest.mark.parametrize(
    "name,row,message",
    [
        ("theta1.tbl", "pi_{1}((m;),1,{},0,0,0) => pi((m),{2e1},0,0,0,0) ; true", "need 7 fields"),
        ("theta1.tbl", "pi_{1}((m;),1,{},0,0,0,0) => pi((l),{2e1},0,0,0,0) ; true", "l are not bound"),
        ("appendix_c.tbl", "pi((c1),{2e1},0,0,0,0) => {(1,0,0)} ; true", "b alone, got c1"),
        ("appendix_c.tbl", "pi((b),{2e1},0,0,0,0) => {(m,0,0)} ; true", "b alone, got m"),
        ("theta1.tbl", "pi_{1}((m;),1,{e1-e9},0,0,0,0) => pi((m),{2e1},0,0,0,0) ; true", "bad root 'e1-e9'"),
        ("theta1.tbl", "pi_{1}((m;),1,{},0,0,0,0) => pi((m),{2e1},0,0,0,0) ; m>>l", "unrecognized condition atom"),
        ("theta1.tbl", "pi_{1}((m;),1,{},0,0,0,0) => pi((m),{2e1},0,0,0,0) ; q>=l", "unbound variable 'q'"),
        ("theta1.tbl", "pi_{1}((m;),1,{},0,0,0,0) => pi((m),{2e1},0,0,0,0) ; m notin {1,x}", "bad scalar"),
        ("appendix_c.tbl", "pi((b),{2e1},0,0,0,0) => {(1,0,0)} ; m>=1", "unbound variable 'm'"),
        ("theta1.tbl", f"{_PAIR_ROW} ; pair(s1,c1)!=(1_0,0)", "bad integer '1_0'"),
        ("theta1.tbl", f"{_PAIR_ROW} ; pair(s1,c1)!=(-\u0661,0)", "bad integer"),
    ],
)
def test_row_defects_fail_at_load_naming_the_line(tmp_path, name, row, message):
    dest = _copy_tables(tmp_path)
    path = dest / name
    lines = path.read_text().splitlines() + [row]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableError, match=rf"{name}:{len(lines)}: .*{message}"):
        load_tables(dest)


def test_lift_pattern_psi_must_hold_the_compact_positives(tmp_path):
    """Matching a row flips its Psi only where a flip keeps the compact
    positives, so a row whose Psi lacks one fails at load:
    {e1+e2,-e1+e2} is a positive system of O(4,0) without e1-e2."""
    dest = _copy_tables(tmp_path)
    path = dest / "theta1.tbl"
    lines = path.read_text().splitlines()
    assert "{e1+e2,e1-e2}" in lines[8]
    lines[8] = lines[8].replace("{e1+e2,e1-e2}", "{e1+e2,-e1+e2}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableError, match=r"theta1\.tbl:9: .*compact positives"):
        load_tables(dest)


def test_appendix_b_values_partition():
    """Every row is active somewhere on the sample grid, and no two rows
    produce the same parameter at the same b."""
    from fractions import Fraction as Q

    from thetalift.theta import instantiate_lkt_row

    tables = load_tables()
    active = set()
    grid = [Scalar.of(x) for x in (0, 1, 2, 3, 4, 5, Q(1, 2))] + [GENERIC_B]
    for beta in grid:
        seen = appendix_rows_at(tables, beta)
        assert seen  # non-empty and duplicate-free by construction
        for row in tables.appendix_c:
            if instantiate_lkt_row(row, beta) is not None:
                active.add(row.line)
    assert len(active) == APPENDIX_ROWS
