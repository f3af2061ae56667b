"""Acceptance gate: the seven contract criteria, one pass/fail line each.

Every comparison is exact — canonical parameter equality, integer
equality, or set equality of K-types; there are no numeric tolerances.
Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion; each criterion also asserts, so a plain pytest run fails
on any regression.
"""

from fractions import Fraction as Q
from itertools import combinations_with_replacement

from thetalift.enumeration import (
    EXCEPTIONAL_THETA3_INPUT,
    enumerate_o_reps,
    regenerate_appendix_c,
    verify_tables,
    verify_unique_by_invariants,
)
from thetalift.exact import GENERIC_B, InfChar, Scalar, infchars_dual
from thetalift.ktypes import sigma_prime_add
from thetalift.langlands import (
    canonicalize_o,
    canonicalize_sp,
    det_o,
    infchar_o,
    infchar_sp,
    parse_sp,
    render_o,
    render_sp,
    tensor_det_o,
    trivial_o,
)
from thetalift.lkt import lowest_ktypes_sp
from thetalift.theta import (
    ThetaError,
    appendix_rows_at,
    first_occurrence,
    induct_n,
    load_tables,
    theta_n,
)

TABLES = load_tables()
CONTRACT_BETAS = (0, 1, 2, 5, Q(1, 2), "generic")
SIGS = ((4, 0), (3, 1), (2, 2))
ALL_SIGS = SIGS + ((0, 4), (1, 3))
SCALAR_GRID = (Scalar.of(0), Scalar.of(1), Scalar.of(2), Scalar.of(5), Scalar.of(Q(1, 2)), GENERIC_B)


def _criterion(num: int, label: str, failures: list[str]) -> None:
    line = f"{'PASS' if not failures else 'FAIL'} criterion {num}: {label}"
    print(line)
    assert not failures, "\n".join([line] + failures[:25])


def _flatten(report) -> list[str]:
    out = []
    for case in report.cases:
        if case.ok:
            continue
        out.extend(f"{case.label}: {d}" for d in case.details)
        if not case.details:
            out.append(case.label)
    return out


def test_criterion_1_classification_regeneration():
    failures = []
    for beta in CONTRACT_BETAS:
        report = regenerate_appendix_c(beta, TABLES)
        failures.extend(f"b={beta}: {line}" for line in _flatten(report))
    _criterion(
        1,
        "rank-3 classification regenerates exactly at the six contract values of b",
        failures,
    )


def test_criterion_2_rank_four_determinant_lifts():
    frozen = {
        (2, 2): "pi(0,{},(1,1),(1,3),0,0)",
        (3, 1): "pi((1,0),{e1+e2,e1-e2,2e1,2e2},(1),(3),0,0)",
        (4, 0): "pi((2,1,0),{e1+e2,e1-e2,e1+e3,e1-e3,e2+e3,e2-e3,2e1,2e2,2e3},0,0,(-1),(1))",
    }
    failures = []
    for (p, q), text in frozen.items():
        want = canonicalize_sp(parse_sp(text))
        res = theta_n(det_o(p, q), 4, TABLES)
        if res.is_zero or res.params != want:
            failures.append(f"O({p},{q}): lift {res.render()} expected {render_sp(want)}")
            continue
        selected = verify_unique_by_invariants(4, infchar_sp(want), lowest_ktypes_sp(want))
        if selected != (want,):
            failures.append(
                f"O({p},{q}): invariants select {[render_sp(x) for x in selected]}"
            )
    _criterion(
        2,
        "rank-4 determinant lifts match the three frozen records and are "
        "unique for their invariants",
        failures,
    )


def test_criterion_3_rank_three_lifts_and_exceptional_case():
    failures = _flatten(verify_tables("theta3", TABLES))
    if not theta_n(canonicalize_o(det_o(2, 2)), 3, TABLES).is_zero:
        failures.append("det O(2,2) lifted below its occurrence rank")
    want = canonicalize_sp(parse_sp("pi(0,{},(1),(1),(1),(2))"))
    got = verify_unique_by_invariants(3, infchar_sp(want), lowest_ktypes_sp(want))
    if len(got) != 2:
        failures.append(f"exceptional family has {len(got)} candidates, expected 2")
    resolved = theta_n(EXCEPTIONAL_THETA3_INPUT, 3, TABLES)
    if resolved.is_zero or resolved.params != want:
        failures.append(f"exceptional input resolved to {resolved.render()}")
    _criterion(
        3,
        "every tabulated rank-3 lift matches, and the dispatcher resolves "
        "the one two-candidate family",
        failures,
    )


def test_criterion_4_infinitesimal_character_duality():
    failures = []
    pairs = 0
    for p, q in ALL_SIGS:
        for entries in combinations_with_replacement(SCALAR_GRID, 2):
            chi = InfChar.of(entries)
            for pi in enumerate_o_reps(p, q, chi):
                for n in range(0, 7):
                    res = theta_n(pi, n, TABLES)
                    if res.is_zero:
                        continue
                    pairs += 1
                    if not infchars_dual(infchar_o(pi), infchar_sp(res.params), 2, n):
                        failures.append(f"{render_o(pi)} at n={n}")
    _criterion(
        4,
        f"infinitesimal characters are dual for all {pairs} dispatcher pairs "
        "(five signatures, ranks up to 6)",
        failures,
    )


def test_criterion_5_lowest_ktype_propagation():
    sources = set()
    for beta in (0, 1, 2, 5):
        sources.update(appendix_rows_at(TABLES, Scalar.of(beta)))
    for p, q in SIGS:
        for entries in ([Q(0), Q(1)], [Q(1), Q(3)], [GENERIC_B, Q(1)], [Q(1, 2), Q(1)], [Q(2), Q(5)]):
            for pi in enumerate_o_reps(p, q, InfChar.of(entries)):
                res = theta_n(pi, 2, TABLES)
                if not res.is_zero:
                    sources.add(res.params)
    failures = []
    tried = 0
    for src in sorted(sources, key=render_sp):
        for p, q in SIGS:
            try:
                up = induct_n(src, p, q, 1)
            except ThetaError:
                continue
            tried += 1
            want = {sigma_prime_add(s, (p - q) // 2) for s in lowest_ktypes_sp(src)}
            if want != set(lowest_ktypes_sp(up)):
                failures.append(f"{render_sp(src)} -> O({p},{q})")
    _criterion(
        5,
        f"lowest K-types propagate through all {tried} applicable one-step inductions",
        failures,
    )


def test_criterion_6_property_suites():
    failures = _flatten(verify_tables("props", TABLES))
    _criterion(
        6,
        "property suites hold (norm oracle, joint harmonics, canonical "
        "idempotence, modification confluence, involutions)",
        failures,
    )


def test_criterion_7_first_occurrence():
    failures = []
    for p, q in ALL_SIGS:
        n_triv = first_occurrence(trivial_o(p, q), TABLES)
        n_det = first_occurrence(det_o(p, q), TABLES)
        if n_triv != 0:
            failures.append(f"trivial O({p},{q}) occurs at {n_triv}")
        if n_det != 4:
            failures.append(f"det O({p},{q}) occurs at {n_det}")
        if n_triv + n_det != 4:
            failures.append(f"O({p},{q}): conservation broken for the characters")
    checked = 0
    for p, q in ALL_SIGS:
        de = canonicalize_o(det_o(p, q))
        for entries in combinations_with_replacement(SCALAR_GRID, 2):
            for pi in enumerate_o_reps(p, q, InfChar.of(entries)):
                checked += 1
                n0 = first_occurrence(pi, TABLES)
                twisted = first_occurrence(tensor_det_o(pi), TABLES)
                if n0 + twisted != 4:
                    failures.append(f"{render_o(pi)}: occurrence sum {n0 + twisted}")
                slot = any(
                    e == 1 and k.is_zero for e, k in zip(pi.eps, pi.kappa)
                )
                in_family = pi != de and (pi.xi == -1 or (pi.zeta == -1 and slot))
                if (n0 == 3) != in_family:
                    failures.append(
                        f"{render_o(pi)}: occurrence {n0} vs rank-3 family membership {in_family}"
                    )
    _criterion(
        7,
        f"first occurrence: characters at 0/4 with conservation, and the "
        f"rank-3 families match over {checked} sampled parameters",
        failures,
    )
