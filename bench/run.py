"""The thetalift benchmark.

    python3 bench/run.py --workload lift-queries --seed 1 --seconds 30 --trace 0

A single-process, single-threaded, closed-loop benchmark: one client calls
thetalift's public functions in-process and sends the next operation only
after the last one returned.  Run it from the root of a source checkout;
it imports the package from ``src/``.

Workloads (inputs come from ``data/reference.json.gz``, drawn by the seed):

  lift-queries  ``cli.main(argv)`` with stdout captured: 70% ``lift --n k``
                (k in 0..6), 15% ``first-occurrence``, 10% ``lkt``, 5%
                ``infchar``, over the stored pool of O(p,q) parameters.
  census        ``enumerate_sp_reps`` at a fixed set of rank-4/5
                infinitesimal characters, then ``lowest_ktypes_sp`` on
                every member, grouped by lowest-K-type set.
  verify        ``cli.main(["verify", "--suite", "all", "--json"])``.

Every answer is checked against the reference taken at the seed commit.

A run repeats passes over the workload until ``--seconds`` are used up.
``lift-queries`` draws a fresh block of queries for each pass; ``census``
and ``verify`` repeat the same operations.  Each timing metric is the
median over the run's passes.

Times are scaled to a reference speed.  The speed of this 2-core box
drifts by up to ±25% over seconds to minutes, with other tenants' load, and
no choice of pass within a run removes a drift that lasts the whole run.
So a fixed pure-Python loop (``reference_work``) is timed before a pass,
after every few operations in it and after it, and every time measured in
the pass is multiplied by ``CAL_REFERENCE_S`` over the loop's mean time:
the values read as if the loop took ``CAL_REFERENCE_S``.  The unscaled
figures are printed to stderr.  ``setup_s`` is the median of several fresh
interpreters, each scaled by the loop timed around it.

``op_p99_ms`` is the 99th percentile of a pass's latencies (inclusive
method).  Only ``lift-queries`` has the 1000 operations per pass that give
it ten samples beyond; on ``census`` and ``verify`` it is in effect the
slowest operation of a pass.

With ``--trace 1`` the run instead times one pass untraced, the same pass
with every layer traced (see ``tracing.py``), and the same pass again with
``Scalar`` operations counted, and reports per-operation layer metrics.
Spans are written to ``out/``.  ``--profile N`` runs one pass under
cProfile and prints the top N functions; it reports no metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import gzip
import io
import json
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "data" / "reference.json.gz"
OUT = BENCH / "out"

# One lift-queries pass: exactly this many queries of each kind, so that
# every pass and every seed has the same mix.  1000 queries give the p99
# ten samples beyond it.
LIFT_MIX = (("lift", 700), ("first-occurrence", 150), ("lkt", 100), ("infchar", 50))
LIFT_RANKS = 7
SETUP_REPEATS = 9
TRACED_SETUP_REPEATS = 3
# Seconds the reference loop takes at the reference speed: about what it
# takes on a 2-core Xeon at 2.1 GHz.
CAL_REFERENCE_S = 0.008

SETUP_CODE = """\
import time
t = time.perf_counter()
import thetalift
thetalift.load_tables()
print(time.perf_counter() - t)
"""

TRACED_SETUP_CODE = """\
import sys
sys.path.insert(0, {bench!r})
import thetalift
from tracing import LayerTracer
tracer = LayerTracer()
tracer.install()
thetalift.load_tables()
print(tracer.self_time["theta.load_tables"] * 1e3)
"""


@dataclass(frozen=True)
class Op:
    desc: object  # JSON-able description of the input
    run: Callable[[], object]
    check: Callable[[object], bool]


# -- operations ----------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int, str]:
    from thetalift import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def check_cli_fields(expected: dict, result) -> bool:
    code, text = result
    if code != 0:
        return False
    payload = json.loads(text)
    return all(payload.get(k) == v for k, v in expected.items())


def census(n: int, chi) -> dict:
    """The members of the census at chi, grouped by lowest-K-type set."""
    from thetalift import enumeration, lkt

    groups: dict = {}
    for pi in enumeration.enumerate_sp_reps(n, chi):
        groups.setdefault(frozenset(lkt.lowest_ktypes_sp(pi)), []).append(pi)
    return groups


def check_census(members: list, groups: dict) -> bool:
    from thetalift.langlands import render_sp

    got = sorted(
        [render_sp(pi), sorted(k.render() for k in key)]
        for key, pis in groups.items()
        for pi in pis
    )
    return got == members


def project_verify(report: dict) -> dict:
    """The answer keys of a verify report; keys added later are ignored."""
    return {
        "name": report["name"],
        "ok": report["ok"],
        "cases": [
            {"label": c["label"], "ok": c["ok"], "details": c["details"]}
            for c in report["cases"]
        ],
    }


def check_verify(expected: dict, result) -> bool:
    code, text = result
    return code == 0 and project_verify(json.loads(text)) == expected


# -- workloads -----------------------------------------------------------


def lift_query_ops(ref: dict, seed: int, index: int) -> list[Op]:
    rng = random.Random(seed * 1_000_003 + index)
    kinds = [kind for kind, count in LIFT_MIX for _ in range(count)]
    rng.shuffle(kinds)
    pool = ref["lift_pool"]
    ops = []
    lift_count = 0
    for kind in kinds:
        entry = rng.choice(pool)
        argv = [kind, "--params", entry["params"]]
        if kind == "lift":
            # Ranks cycle over the lift queries so that each pass holds
            # the same number of each rank.
            n = lift_count % LIFT_RANKS
            lift_count += 1
            argv += ["--n", str(n)]
            expected = entry["lift"][n]
        elif kind == "first-occurrence":
            expected = {"first_occurrence": entry["first_occurrence"]}
        elif kind == "lkt":
            expected = {"lkts": entry["lkts"]}
        else:
            expected = {"infchar": entry["infchar"]}
        argv.append("--json")
        ops.append(Op(argv, partial(call_cli, argv), partial(check_cli_fields, expected)))
    return ops


def census_ops(ref: dict, seed: int, index: int) -> list[Op]:
    from thetalift.exact import parse_infchar

    entries = list(ref["census"])
    random.Random(seed).shuffle(entries)
    return [
        Op(e["infchar"], partial(census, e["n"], parse_infchar(e["infchar"])),
           partial(check_census, e["members"]))
        for e in entries
    ]


def verify_ops(ref: dict, seed: int, index: int) -> list[Op]:
    # verify takes no input: every seed runs the same operation.
    argv = ["verify", "--suite", "all", "--json"]
    return [Op(argv, partial(call_cli, argv), partial(check_verify, ref["verify"]["report"]))]


WORKLOADS = {"lift-queries": lift_query_ops, "census": census_ops, "verify": verify_ops}
# Operations between two calibrations: about 0.8 s of lift queries; census
# and verify operations take about that or longer on their own.
CHUNKS = {"lift-queries": 250, "census": 1, "verify": 1}


# -- running -------------------------------------------------------------


class Tally:
    """Operations checked and failed across a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ops: list[Op], results: list) -> int:
        """Check each result against its reference; returns the number correct."""
        correct = 0
        for op, result in zip(ops, results):
            ok = not isinstance(result, str)
            if ok:
                try:
                    ok = op.check(result)
                except (ValueError, KeyError, TypeError):
                    ok = False
            if ok:
                correct += 1
            elif self.failed < 5:
                print(f"failed operation {op.desc!r}: {result!r}"[:2000], file=sys.stderr)
            self.failed += not ok
        self.attempted += len(ops)
        return correct


@dataclass(frozen=True)
class _Vector:
    coords: tuple


def reference_work() -> None:
    """A fixed pure-Python loop with the program's kind of work: frozen
    dataclasses of fraction tuples, hashed into a set and sorted by their
    text."""
    vectors = set()
    for i in range(400):
        coords = tuple(Fraction(i * (j + 1) % 13, j % 3 + 1) for j in range(4))
        vectors.add(_Vector(coords))
        vectors.add(_Vector(tuple(-c for c in coords)))
    sorted(vectors, key=lambda v: ",".join(str(c) for c in v.coords))


def calibrate() -> float:
    """Seconds the reference loop takes now, median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def execute(ops: list[Op], chunk: int, on_op=None) -> tuple[list[float], list, float]:
    """Run the operations in order, calibrating before the first and after
    every ``chunk`` of them.  Returns per-operation latencies, results (an
    operation that raised has its traceback text as result), and the
    factor that scales this pass's times to the reference speed."""
    latencies, results = [], []
    clock = time.perf_counter
    calibrations = [calibrate()]
    for lo in range(0, len(ops), chunk):
        for i in range(lo, min(lo + chunk, len(ops))):
            if on_op is not None:
                on_op(i)
            t0 = clock()
            try:
                results.append(ops[i].run())
            except Exception:  # an operation that raises is a failed operation
                results.append(traceback.format_exc())
            latencies.append(clock() - t0)
        calibrations.append(calibrate())
    return latencies, results, CAL_REFERENCE_S / statistics.fmean(calibrations)


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_times(code: str, repeats: int) -> tuple[list[float], list[float]]:
    """Run ``code`` in fresh interpreters; it prints a time as its last
    line.  Returns the times and the factors scaling each to the
    reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, scales = [], []
    before = calibrate()
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        after = calibrate()
        scales.append(2 * CAL_REFERENCE_S / (before + after))
        before = after
    return times, scales


def timed_run(ref: dict, workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    # A fresh interpreter's import and table load, measured before this
    # process touches the tables.
    times, scales = child_times(SETUP_CODE, SETUP_REPEATS)
    setup = statistics.median(t * f for t, f in zip(times, scales))
    from thetalift import load_tables

    load_tables()
    make_ops, chunk = WORKLOADS[workload], CHUNKS[workload]
    rates, p50s, p99s, raw_rates = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        ops = make_ops(ref, seed, index)
        latencies, results, scale = execute(ops, chunk)
        correct = tally.check(ops, results)
        scaled = [t * scale for t in latencies]
        rates.append(correct / sum(scaled))
        p50s.append(statistics.median(scaled) * 1e3)
        p99s.append(quantile(scaled, 99) * 1e3)
        raw_rates.append(correct / sum(latencies))
        index += 1
        elapsed = time.perf_counter() - start
        # Start another pass only if it should end before half a pass
        # past the deadline.
        if elapsed + elapsed / index / 2 > seconds:
            break
    print(f"{workload}: {index} passes of {len(ops)} operations in {elapsed:.1f} s;"
          f" unscaled ops/s by pass {[round(r, 4) for r in raw_rates]},"
          f" unscaled setup {statistics.median(times):.4f} s", file=sys.stderr)
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(p50s), "ms"),
        "op_p99_ms": (statistics.median(p99s), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(ref: dict, workload: str, seed: int, tally: Tally) -> dict:
    from thetalift import load_tables
    from tracing import LayerTracer, ScalarCounter

    load_tables()
    ops = WORKLOADS[workload](ref, seed, 0)
    plain, results, plain_scale = execute(ops, CHUNKS[workload])
    tally.check(ops, results)

    # Checks run after each uninstall, so that they add no spans or counts.
    tracer = LayerTracer()
    tracer.install()
    try:
        traced, results, traced_scale = execute(
            ops, CHUNKS[workload], on_op=lambda i: setattr(tracer, "op", i)
        )
    finally:
        tracer.uninstall()
    tally.check(ops, results)

    counter = ScalarCounter()
    counter.install()
    try:
        _, results, _ = execute(ops, CHUNKS[workload])
    finally:
        counter.uninstall()
    tally.check(ops, results)

    load_ms = statistics.median(
        child_times(TRACED_SETUP_CODE.format(bench=str(BENCH)), TRACED_SETUP_REPEATS)[0]
    )
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(path)
    print(f"{workload}: {len(tracer.spans)} spans written to {path}"
          f" ({tracer.dropped} beyond the cap dropped)", file=sys.stderr)
    metrics = tracer.layer_metrics(len(ops))
    metrics["theta.load_tables.self_ms"] = (load_ms, "ms")
    metrics["exact.scalar_ops"] = (counter.count / len(ops), "count")
    metrics["trace.overhead_ratio"] = (
        sum(traced) * traced_scale / (sum(plain) * plain_scale), "ratio"
    )
    return metrics


def profile_run(ref: dict, workload: str, seed: int, top: int) -> None:
    from thetalift import load_tables

    load_tables()
    ops = WORKLOADS[workload](ref, seed, 0)
    profiler = cProfile.Profile()
    profiler.enable()
    for op in ops:
        op.run()
    profiler.disable()
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(top)


def load_reference() -> dict:
    return json.loads(gzip.decompress(REFERENCE.read_bytes()))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="thetalift benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="N", default=0,
                        help="print the top N functions of one pass under cProfile instead")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thetalift" / "__init__.py").is_file():
        print(f"error: no thetalift source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing reference data {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = load_reference()
    # The reference data is most of the heap; keep the collector from
    # traversing it again and again while the program is timed.
    gc.collect()
    gc.freeze()
    if args.profile:
        profile_run(ref, args.workload, args.seed, args.profile)
        return 0
    tally = Tally()
    if args.trace:
        metrics = traced_run(ref, args.workload, args.seed, tally)
    else:
        metrics = timed_run(ref, args.workload, args.seed, args.seconds, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
