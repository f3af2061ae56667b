"""Generate the benchmark's inputs and reference answers.

Run once, at the commit whose answers the benchmark holds every later
commit to:

    python3 bench/make_reference.py --commit "$(git rev-parse HEAD)"

It writes ``bench/data/reference.json.gz``: the ``lift-queries`` parameter
pool with every query's answer, the ``census`` infinitesimal characters
with their members and lowest K-types, and the ``verify`` report.  The
workloads draw only from this file, so a later change to the enumerator
cannot change what the benchmark runs.  The output is byte-identical
across runs and hash seeds.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from thetalift import enumeration  # noqa: E402
from thetalift.exact import GENERIC_B, InfChar, Scalar, parse_infchar  # noqa: E402
from thetalift.langlands import render_o, render_sp  # noqa: E402
from run import LIFT_RANKS, call_cli, census, project_verify  # noqa: E402

REFERENCE = BENCH / "data" / "reference.json.gz"

# Rank-2 infinitesimal characters of the O(p,q), p + q = 4, parameters in
# the lift-queries pool: every pair from an integral, half-integral and
# generic-b grid.
POOL_GRID = (0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), GENERIC_B)
SIGNATURES = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))

# The census characters: regular integral, generic b, half-integral and
# singular at rank 4, and at rank 5 the regular integral (0,1,2,3,4)
# census the rank-5 speed target is stated on, with generic-b and
# half-integral companions.  One pass over all seven takes 7-10 s at the
# seed commit on a 2-core Xeon at 2.1 GHz, so a 36 s run repeats it four or
# five times.
CENSUS = (
    "(0,1,2,3)",
    "(b,0,1,2)",
    "(1/2,3/2,1,2)",
    "(1,1,2,2)",
    "(0,1,2,3,4)",
    "(b,0,1,2,3)",
    "(1/2,3/2,5/2,7/2,9/2)",
)

# SHA-256 of the full `verify --suite all --json` output at the seed commit.
VERIFY_ORACLE_SHA256 = "51a9e5edc2000eae9720c4fdc3f9b17911defe26100838ed586595ba58046e00"


def run_cli(argv: list[str]) -> str:
    code, text = call_cli(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return text


def lift_pool() -> list[str]:
    chis = {InfChar.of(pair) for pair in itertools.combinations_with_replacement(
        [Scalar.of(x) for x in POOL_GRID], 2)}
    pool = {
        render_o(pi)
        for p, q in SIGNATURES
        for chi in chis
        for pi in enumeration.enumerate_o_reps(p, q, chi)
    }
    return sorted(pool)


def lift_answers(params: str) -> dict:
    lifts = []
    for n in range(LIFT_RANKS):
        out = json.loads(run_cli(["lift", "--params", params, "--n", str(n), "--json"]))
        lifts.append({"zero": out["zero"], "params": out["params"]})
    fo = json.loads(run_cli(["first-occurrence", "--params", params, "--json"]))
    lkts = json.loads(run_cli(["lkt", "--params", params, "--json"]))
    chi = json.loads(run_cli(["infchar", "--params", params, "--json"]))
    return {
        "params": params,
        "lift": lifts,
        "first_occurrence": fo["first_occurrence"],
        "lkts": lkts["lkts"],
        "infchar": chi["infchar"],
    }


def census_answers(text: str) -> dict:
    chi = parse_infchar(text)
    n = len(chi.entries)
    members = [
        [render_sp(pi), sorted(k.render() for k in key)]
        for key, pis in census(n, chi).items()
        for pi in pis
    ]
    return {"infchar": text, "n": n, "members": sorted(members)}


def verify_answer() -> dict:
    text = run_cli(["verify", "--suite", "all", "--json"])
    sha = hashlib.sha256(text.encode()).hexdigest()
    if sha != VERIFY_ORACLE_SHA256:
        raise SystemExit(f"verify output SHA-256 {sha} is not the oracle {VERIFY_ORACLE_SHA256}")
    return {"oracle_sha256": sha, "report": project_verify(json.loads(text))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the answers are taken at")
    args = parser.parse_args()
    reference = {
        "commit": args.commit,
        "lift_pool": [lift_answers(p) for p in lift_pool()],
        "census": [census_answers(c) for c in CENSUS],
        "verify": verify_answer(),
    }
    data = json.dumps(reference, sort_keys=True, separators=(",", ":")).encode()
    REFERENCE.write_bytes(gzip.compress(data, mtime=0))
    print(f"wrote {REFERENCE}: {len(reference['lift_pool'])} pool parameters, "
          f"{sum(len(c['members']) for c in reference['census'])} census members")
    return 0


if __name__ == "__main__":
    sys.exit(main())
