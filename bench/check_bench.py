"""Tests of the benchmark itself.

    python3 -m pytest bench/check_bench.py -q

The file name keeps these out of the repository's own test run: they run
every workload once untraced under two hash seeds and once traced, which
takes a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, hashseed: str = "0", cwd: Path = ROOT):
    argv = [sys.executable, *SPEC["command"][1:]]
    argv += ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def workload_inputs(ref: dict, workload: str, seed: int, passes: int = 2) -> bytes:
    """The inputs of the first passes of a run, serialized."""
    descs = [[op.desc for op in run.WORKLOADS[workload](ref, seed, i)] for i in range(passes)]
    return json.dumps(descs, sort_keys=True).encode()


def input_digest(workload: str, seed: int, hashseed: str) -> str:
    """The digest of ``workload_inputs`` computed in a fresh interpreter."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import check_bench; "
        f"print(__import__('hashlib').sha256(check_bench.workload_inputs("
        f"check_bench.run.load_reference(), {workload!r}, {seed})).hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def ref():
    return run.load_reference()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, ref):
    sys.path.insert(0, str(ROOT / "src"))
    here = hashlib.sha256(workload_inputs(ref, workload, 5)).hexdigest()
    assert input_digest(workload, 5, "0") == here
    assert input_digest(workload, 5, "1") == here


def test_seeds_draw_different_inputs(ref):
    sys.path.insert(0, str(ROOT / "src"))
    for workload in ("lift-queries", "census"):
        assert workload_inputs(ref, workload, 1) != workload_inputs(ref, workload, 2)
    lift = json.loads(workload_inputs(ref, "lift-queries", 1))
    assert lift[0] != lift[1]  # each pass draws a fresh block


def test_lift_query_mix_is_fixed(ref):
    ops = run.lift_query_ops(ref, 7, 0)
    kinds = [op.desc[0] for op in ops]
    assert {k: kinds.count(k) for k in set(kinds)} == dict(run.LIFT_MIX)
    ranks = [op.desc[4] for op in ops if op.desc[0] == "lift"]
    assert {r: ranks.count(r) for r in set(ranks)} == {str(n): 100 for n in range(7)}


def test_checks_reject_wrong_answers(ref):
    sys.path.insert(0, str(ROOT / "src"))
    entry = ref["lift_pool"][0]
    op = run.lift_query_ops({"lift_pool": [entry]}, 1, 0)[0]
    code, text = op.run()
    assert op.check((code, text))
    payload = json.loads(text)
    payload["provenance"] = "ignored"
    assert op.check((code, json.dumps(payload)))
    key = next(k for k in ("params", "first_occurrence", "lkts", "infchar") if k in payload)
    payload[key] = "wrong"
    assert not op.check((code, json.dumps(payload)))
    assert not op.check((1, text))

    expected = ref["verify"]["report"]
    report = json.loads(json.dumps(expected))
    report["elapsed"] = 1.0  # a key added later is not an answer
    assert run.check_verify(expected, (0, json.dumps(report)))
    report["cases"][0]["ok"] = not report["cases"][0]["ok"]
    assert not run.check_verify(expected, (0, json.dumps(report)))

    from thetalift.exact import parse_infchar

    census = min(ref["census"], key=lambda c: len(c["members"]))
    groups = run.census(census["n"], parse_infchar(census["infchar"]))
    assert run.check_census(census["members"], groups)
    key = next(iter(groups))
    groups[key] = groups[key][1:]
    assert not run.check_census(census["members"], groups)


@pytest.mark.parametrize("hashseed", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_emits_end_to_end_metrics(workload, hashseed):
    result = result_of(bench(workload, 0, hashseed))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    result = result_of(bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    value = {k: v["value"] for k, v in metrics.items()}
    if workload == "census":
        assert value["theta.theta_n.calls"] == 0
        assert value["enumeration.candidates"] > 0
    if workload == "lift-queries":
        assert value["enumeration.candidates"] == 0
        assert value["theta.theta_n.calls"] > 0
    if workload == "verify":
        assert value["ktypes.phi.calls"] > 0
    assert value["exact.scalar_ops"] > 0


def test_fails_without_the_source_tree():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
