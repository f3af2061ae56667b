"""Tests for the enumerators, classification-table regeneration,
uniqueness-by-invariants, and the verification suites."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction as Q
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest

from thetalift import cli, enumeration
from thetalift.enumeration import (
    BETA_GRID,
    EXCEPTIONAL_THETA3_INPUT,
    EXCEPTIONAL_THETA3_OTHER,
    SUITES,
    beta_scalar,
    enumerate_o_reps,
    enumerate_sp_reps,
    regenerate_appendix_c,
    verify_tables,
    verify_unique_by_invariants,
)
from thetalift.exact import GENERIC_B, InfChar, Scalar, parse_infchar
from thetalift.ktypes import OFactor, UKType, phi_n, phi_pq
from thetalift.langlands import (
    _checked_o,
    _checked_sp,
    OParams,
    ParamError,
    SpParams,
    canonicalize_o,
    canonicalize_sp,
    det_o,
    infchar_o,
    infchar_sp,
    parse_o,
    parse_sp,
    render_o,
    render_params,
    render_sp,
    swap_pq,
    tensor_det_o,
    trivial_o,
    validate_o,
    validate_sp,
)
from thetalift.lkt import lowest_ktypes_sp
from thetalift.roots import OKind, SpKind, enumerate_positive_systems
from thetalift import theta as theta_module
from thetalift.theta import DET11_THETA3, TableSet, first_occurrence, load_tables, theta_n


# -- enumerators --------------------------------------------------------------


def test_rank_zero_census_is_the_empty_parameter():
    (only,) = enumerate_sp_reps(0, InfChar.of([]))
    assert only == parse_sp("pi(0,{},0,0,0,0)")


def test_rank_one_census_is_frozen():
    got = sorted(render_sp(pi) for pi in enumerate_sp_reps(1, InfChar.of([Q(5)])))
    assert got == [
        "pi((-5),{-2e1},0,0,0,0)",
        "pi((5),{2e1},0,0,0,0)",
        "pi(0,{},0,0,(-1),(5))",
        "pi(0,{},0,0,(1),(5))",
    ]


# Census sizes frozen after a manual audit of the rank-3 classification.
RANK3_COUNTS = {0: 23, 1: 31, 2: 62, 5: 62, Q(1, 2): 26, "generic": 26}


def test_rank_three_census_counts_are_frozen():
    for beta, want in RANK3_COUNTS.items():
        chi = InfChar.of([beta_scalar(beta), Q(0), Q(1)])
        got = enumerate_sp_reps(3, chi)
        assert len(got) == len(set(got)) == want, beta


def test_rank_four_census_count_is_frozen():
    got = enumerate_sp_reps(4, InfChar.of([Q(0), Q(1), Q(1), Q(2)]))
    assert len(got) == len(set(got)) == 159


def test_enumerated_sp_parameters_are_canonical_with_matching_infchar():
    chi = InfChar.of([Q(1), Q(3)])
    reps = enumerate_sp_reps(2, chi)
    assert len(set(reps)) == len(reps)
    for pi in reps:
        assert canonicalize_sp(pi) == pi
        assert infchar_sp(pi) == chi


@pytest.mark.parametrize("sig", [(4, 0), (3, 1), (2, 2), (0, 4), (1, 3)])
def test_enumerated_o_parameters_are_canonical_with_matching_infchar(sig):
    p, q = sig
    chi = InfChar.of([Q(1), Q(3)])
    reps = enumerate_o_reps(p, q, chi)
    assert reps and len(set(reps)) == len(reps)
    for pi in reps:
        assert canonicalize_o(pi) == pi
        assert infchar_o(pi) == chi
        assert (pi.p, pi.q) == (p, q)


def test_one_dimensional_parameters_appear_in_their_census():
    chi = InfChar.of([Q(0), Q(1)])
    for p, q in ((4, 0), (3, 1), (2, 2), (0, 4), (1, 3)):
        reps = enumerate_o_reps(p, q, chi)
        assert trivial_o(p, q) in reps
        assert det_o(p, q) in reps


# -- construction against generate-and-filter ------------------------------------
#
# The enumerators build only parameters that validate.  The reference below
# is the generate-and-filter enumerator they replaced: it tries every sign,
# (zeta, xi) and positive-system choice on every slot split and keeps the
# canonical forms that validate.


def _ref_matchings(idxs):
    if not idxs:
        yield ()
        return
    first, rest = idxs[0], idxs[1:]
    for i in range(len(rest)):
        for tail in _ref_matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, rest[i]),) + tail


def _ref_pair_options(x, y):
    out = set()
    for u in {x, -x}:
        for w in {y, -y}:
            mu = u - w
            if mu.is_integer() and mu.as_int() >= 0:
                out.add((mu.as_int(), u + w))
    return out


def _ref_slot_splits(entries, v, s, discrete):
    indices = tuple(range(len(entries)))
    for lam_idx in combinations(indices, v):
        if not all(entries[i].is_integer() for i in lam_idx):
            continue
        options = discrete([abs(entries[i].as_int()) for i in lam_idx])
        rest = tuple(i for i in indices if i not in lam_idx)
        for pair_idx in combinations(rest, 2 * s):
            kappa = tuple(entries[i] for i in rest if i not in pair_idx)
            for matching in _ref_matchings(pair_idx):
                per_pair = [_ref_pair_options(entries[i], entries[j]) for i, j in matching]
                for pairs in product(*per_pair):
                    yield options, tuple(x[0] for x in pairs), tuple(x[1] for x in pairs), kappa


def _ref_signed_lams(mags):
    return sorted({tuple(sorted(c, reverse=True)) for c in product(*({x, -x} for x in mags))})


def _ref_halves(a, mags):
    out = set()
    for left_pos in combinations(range(len(mags)), a):
        left = [mags[i] for i in left_pos]
        right = [x for i, x in enumerate(mags) if i not in left_pos]
        out.add((tuple(sorted(left, reverse=True)), tuple(sorted(right, reverse=True))))
    return out


def _ref_census(candidates, validate, canonical, render):
    found = set()
    for params in candidates:
        try:
            validate(params)
        except ParamError:
            continue
        found.add(canonical(params))
    return tuple(sorted(found, key=render))


def reference_sp_reps(n, chi):
    entries = InfChar.of(chi.entries).entries

    def candidates():
        for v in range(n + 1):
            for s in range((n - v) // 2 + 1):
                t = n - v - 2 * s
                psis = enumerate_positive_systems(SpKind(v))
                for lams, mu, nu, kappa in _ref_slot_splits(entries, v, s, _ref_signed_lams):
                    for lam, eps, psi in product(lams, product((1, -1), repeat=t), psis):
                        yield SpParams(lam, psi, mu, nu, eps, kappa)

    return _ref_census(candidates(), validate_sp, canonicalize_sp, render_sp)


def reference_o_reps(p, q, chi):
    entries = InfChar.of(chi.entries).entries

    def candidates():
        for t in range(min(p, q) + 1):
            if (p - t) % 2 != 0:
                continue
            for s in range((min(p, q) - t) // 2 + 1):
                a, d = (p - t - 2 * s) // 2, (q - t - 2 * s) // 2
                if a < 0 or d < 0:
                    continue
                psis = enumerate_positive_systems(OKind(a, d))
                splits = _ref_slot_splits(entries, a + d, s, partial(_ref_halves, a))
                for halves, mu, nu, kappa in splits:
                    for (left, right), eps, (zeta, xi), psi in product(
                        halves, product((1, -1), repeat=t), product((1, -1), repeat=2), psis
                    ):
                        yield OParams(zeta, xi, left, right, psi, mu, nu, eps, kappa)

    return _ref_census(candidates(), validate_o, canonicalize_o, render_o)


# the rank-4 census characters of the benchmark
BENCH_RANK4 = ("(0,1,2,3)", "(b,0,1,2)", "(1/2,3/2,1,2)", "(1,1,2,2)")
POOL_GRID = (0, 1, 2, 3, Q(1, 2), Q(3, 2), GENERIC_B)
SIGNATURES = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))


@pytest.mark.parametrize("text", BENCH_RANK4)
def test_sp_construction_equals_generate_and_filter_at_rank_four(text):
    chi = parse_infchar(text)
    got = enumerate_sp_reps(4, chi)
    assert got and got == reference_sp_reps(4, chi)


@pytest.mark.parametrize("beta", BETA_GRID, ids=str)
def test_sp_construction_equals_generate_and_filter_on_beta_grid(beta):
    chi = InfChar.of([beta_scalar(beta), Q(0), Q(1)])
    got = enumerate_sp_reps(3, chi)
    assert got and got == reference_sp_reps(3, chi)


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_o_construction_equals_generate_and_filter_on_pool_grid(sig):
    grid = [Scalar.of(x) for x in POOL_GRID]
    chis = {InfChar.of(pair) for pair in combinations_with_replacement(grid, 2)}
    total = 0
    for chi in sorted(chis, key=lambda c: c.entries):
        got = enumerate_o_reps(*sig, chi)
        assert got == reference_o_reps(*sig, chi), chi.render()
        total += len(got)
    assert total > 0


# On O(4,2) and O(2,4) a block can hold two zeros, and flipping the first of
# them takes a compact positive out of Psi: the orbit representative must
# not be such a flip.
@pytest.mark.parametrize("sig", [(4, 2), (2, 4)], ids=str)
@pytest.mark.parametrize("text", ["(0,0,0)", "(0,0,1)", "(0,1,2)", "(0,0,b)"])
def test_o_construction_equals_generate_and_filter_at_p_plus_q_six(sig, text):
    chi = parse_infchar(text)
    got = enumerate_o_reps(*sig, chi)
    want = reference_o_reps(*sig, chi)
    for pi in want:
        validate_o(pi)
    assert got and got == want


# -- canonical by construction, ordered by text ----------------------------------
#
# The enumerators build every member in canonical form and sort the census
# by its rendered text; canonicalize_* must return each member itself.

BENCH_CENSUS = [(4, text) for text in BENCH_RANK4] + [
    (5, "(0,1,2,3,4)"),
    (5, "(b,0,1,2,3)"),
    (5, "(1/2,3/2,5/2,7/2,9/2)"),
]


def _assert_built_canonical(reps, canonical, render):
    assert reps
    for pi in reps:
        assert canonical(pi) is pi, render(pi)
    texts = [render(pi) for pi in reps]
    assert texts == sorted(texts)


@pytest.mark.parametrize("n,text", BENCH_CENSUS, ids=[t for _, t in BENCH_CENSUS])
def test_bench_census_members_are_built_canonical(n, text):
    reps = enumerate_sp_reps(n, parse_infchar(text))
    _assert_built_canonical(reps, canonicalize_sp, render_sp)


def test_beta_grid_census_members_are_built_canonical():
    for beta in BETA_GRID:
        reps = enumerate_sp_reps(3, InfChar.of([beta_scalar(beta), Q(0), Q(1)]))
        _assert_built_canonical(reps, canonicalize_sp, render_sp)


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_o_pool_grid_census_members_are_built_canonical(sig):
    grid = [Scalar.of(x) for x in POOL_GRID]
    censuses = [enumerate_o_reps(*sig, InfChar.of(pair)) for pair in combinations_with_replacement(grid, 2)]
    assert any(censuses)
    for reps in filter(None, censuses):
        _assert_built_canonical(reps, canonicalize_o, render_o)


FACTOR_CHECKS = ("validate_sp", "validate_o", "validate_continuous", "validate_zeta_xi")


def _count_factor_checks(monkeypatch) -> dict[str, list]:
    """Record the arguments of each check made through enumeration's
    namespace, by check name."""
    calls: dict[str, list] = {name: [] for name in FACTOR_CHECKS}
    for name, seen in calls.items():
        original = getattr(enumeration, name)

        def counting(*args, original=original, seen=seen):
            seen.append(args)
            original(*args)

        monkeypatch.setattr(enumeration, name, counting)
    return calls


# The census's memos of continuous factors and (mu, nu) pairs, held here so
# that they can be emptied while a test has patched enumeration's names.
CENSUS_MEMOS = (enumeration._continuous_factor, enumeration._pair_options)


def _clear_census_memos() -> None:
    for memo in CENSUS_MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold_census_memos():
    """A test that plants a defect in the census starts from empty census
    memos and leaves them empty, whatever ran before or runs after it."""
    _clear_census_memos()
    yield
    _clear_census_memos()


def _assert_factors_checked_once(calls: dict[str, list], census) -> tuple[tuple, tuple]:
    """Build ``census`` from empty census memos while ``calls`` records its
    checks, build it again from the memos the first build left, and return
    both builds, which have the same members.  Each build is checked by
    ``_assert_census_checks``: the first checks each continuous part of
    its members exactly once, and the second checks none."""
    _clear_census_memos()
    reps = _assert_census_checks(calls, census, cold=True)
    again = _assert_census_checks(calls, census, cold=False)
    assert again == reps
    return reps, again


def _assert_census_checks(calls: dict[str, list], census, cold: bool) -> tuple:
    """Build ``census`` while ``calls`` records its checks and return it.
    No member is built twice; each of its (lam, Psi) data is checked
    exactly once, as a discrete-series parameter, and, from ``cold``
    census memos, each of its continuous parts exactly once, and nothing
    else is; every (zeta, xi) of an O member goes through the (zeta, xi)
    rule; every member passes the public validation."""
    for seen in calls.values():
        seen.clear()
    reps = census()
    assert len(set(reps)) == len(reps)
    sp = census.func is enumerate_sp_reps
    assert not calls["validate_o" if sp else "validate_sp"]
    discrete = [params for (params,) in calls["validate_sp" if sp else "validate_o"]]
    assert all(not (d.mu or d.nu or d.eps or d.kappa) for d in discrete)
    parts = Counter(calls["validate_continuous"])
    if sp:
        data = Counter((d.lam, d.psi) for d in discrete)
        assert set(data) == {(pi.lam, pi.psi) for pi in reps}
        members = {(pi.mu, pi.nu, pi.eps, pi.kappa, (-1) ** pi.v) for pi in reps}
    else:
        assert all(d.zeta == d.xi == 1 for d in discrete)
        data = Counter((d.lam_left, d.lam_right, d.psi) for d in discrete)
        assert set(data) == {(pi.lam_left, pi.lam_right, pi.psi) for pi in reps}
        members = {(pi.mu, pi.nu, pi.eps, pi.kappa, None) for pi in reps}
        signs = set(calls["validate_zeta_xi"])
        assert all((pi.zeta, pi.xi, pi.zeros, pi.kappa) in signs for pi in reps)
    assert set(parts) == (members if cold else set())
    assert set(data.values()) <= {1} and set(parts.values()) <= {1}
    for pi in reps:
        (validate_sp if sp else validate_o)(pi)
    return reps


@pytest.mark.parametrize(
    "call",
    [
        partial(enumerate_sp_reps, 5, InfChar.of([0, 1, 2, 3, 4])),
        partial(enumerate_sp_reps, 4, parse_infchar("(1,1,2,2)")),
        partial(enumerate_sp_reps, 4, parse_infchar("(0,0,1,1)")),
        partial(enumerate_o_reps, 2, 2, parse_infchar("(1,1)")),
    ],
    ids=["sp5-(0,1,2,3,4)", "sp4-(1,1,2,2)", "sp4-(0,0,1,1)", "o22-(1,1)"],
)
def test_census_validates_little_more_than_it_keeps(monkeypatch, call):
    """Construction emits only members that validate, each once, and the
    checks made from enumeration are those of the members' factors, each
    factor checked once: each continuous part once from empty census memos
    and not again when the census is built a second time."""
    assert _assert_factors_checked_once(_count_factor_checks(monkeypatch), call)[0]


# Every character of each size on this grid, at Sp ranks 0-5 and on every
# O(p,q) with p+q in {4, 6}: no member is built twice, and each factor is
# checked once.
ONCE_GRID = (0, 1, 2, Q(1, 2), GENERIC_B)
ONCE_SIGNATURES = SIGNATURES + tuple((p, 6 - p) for p in range(7))

# Member count and SHA-256 of the census texts of each part of the once
# grid, in census order, one line each, taken before the census built its
# texts from factor texts.
ONCE_GRID_TEXTS = {
    "sp": (17184, "76a34bd68af6b4f86fcf60d985107de624992fc830bdf621a601993d58162723"),
    (4, 0): (5, "fce180c8b734046d87d0c992841496a11901ea852a2d5effc1da0f40600cc36a"),
    (3, 1): (44, "eb466e920c087d5ce9b1d2e2a6523bf0c99f2aad0dfe2562297bf2f3e2aafd3e"),
    (2, 2): (95, "a99431a1530157eaa8cc361fca04103c404ffb820ee3ac075f6642abf73e4125"),
    (1, 3): (44, "b8265cb61d8c7abbe8a50191c5359d28b9f3fdc3144e624d4f57bfc96d0ddb68"),
    (0, 4): (5, "e7e1d0d4bdcba2f73603be00102f17c6a0a4bb0b4851ec6663e3214990bbee42"),
    (0, 6): (2, "8d3773d7dd5979dbc2a062506763a88dcffcf9eb4996a95e16a7469fe4b1782b"),
    (1, 5): (52, "4ed37e559e83129fe758119cd5c33507edf301380e777789fa0a94f356bedc8c"),
    (2, 4): (302, "31645aaf954c43ed722ec69f424d6c728ccd7599ce5f17e5dfe51b301b498201"),
    (3, 3): (552, "8da2174a0a0d918cc42c6c7fd795c00827ebf0df9239fe92fb7f2780bf0c61fb"),
    (4, 2): (302, "6e582e2bbddb56c402860d76ca8d22d2eb83ef2066da73b8d86f858c05ad1f4d"),
    (5, 1): (52, "57545353077790260ebee3b287bb0acf14d451f11438b9ac093c9488a2a106b1"),
    (6, 0): (2, "d14e4350c46106ac57e8662abfcf82d6c3faf17172a0fad6df55ee88970d1da2"),
}


def _grid_characters(size):
    grid = [Scalar.of(x) for x in ONCE_GRID]
    return [InfChar.of(c) for c in combinations_with_replacement(grid, size)]


def _assert_each_census_checks_factors_once(monkeypatch, censuses, part):
    """Each census, built from empty census memos and then again from warm
    ones, checks each factor once, and the texts of either build, in
    order, are the pinned ones of ``part``."""
    calls = _count_factor_checks(monkeypatch)
    builds = [_assert_factors_checked_once(calls, census) for census in censuses]
    for reps in ([pi for build in builds for pi in build[k]] for k in (0, 1)):
        lines = [render_params(pi) for pi in reps]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == ONCE_GRID_TEXTS[part]


def test_sp_census_validates_each_member_once(monkeypatch):
    _assert_each_census_checks_factors_once(
        monkeypatch,
        [partial(enumerate_sp_reps, n, chi) for n in range(6) for chi in _grid_characters(n)],
        "sp",
    )


@pytest.mark.parametrize("sig", ONCE_SIGNATURES, ids=str)
def test_o_census_validates_each_member_once(monkeypatch, sig):
    chis = _grid_characters(sum(sig) // 2)
    _assert_each_census_checks_factors_once(
        monkeypatch, [partial(enumerate_o_reps, *sig, chi) for chi in chis], sig
    )


# -- planted defects: each factor check catches what a broken builder emits -----


# Member count and SHA-256 of the texts, in census order, of every O(p,q)
# census with p+q in {4, 6, 8} on the grid (0, 1, 2, b).
WIDE_O_CENSUS_TEXTS = (4965, "7e85bdb99db41b62dc085392a0405ecd1a2eaec6f8d94350c98a35278d5bd855")


def test_wide_o_censuses_are_canonical_forms():
    """Each member of every O(p,q) census up to p+q = 8 is its own canonical
    form and text, and swap_pq and tensoring with det are involutions on it."""
    grid = [Scalar.of(x) for x in (0, 1, 2)] + [GENERIC_B]
    lines = []
    for n in (4, 6, 8):
        for p, chi in product(range(n + 1), combinations_with_replacement(grid, n // 2)):
            for pi in enumerate_o_reps(p, n - p, InfChar.of(chi)):
                assert swap_pq(swap_pq(pi)) == pi
                assert canonicalize_o(pi) is pi
                assert tensor_det_o(tensor_det_o(pi)) == pi
                text = render_o(pi)
                assert parse_o(text) == pi
                lines.append(text)
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == WIDE_O_CENSUS_TEXTS


def test_census_rejects_a_discrete_datum_that_is_not_decreasing(monkeypatch, cold_census_memos):
    """The dominance filter drops a lam out of order, so the planted builder
    reverses each lam after the filter has judged it in order."""
    signed, dominant = enumeration._signed_lams, enumeration.check_dominance_f1
    monkeypatch.setattr(enumeration, "_signed_lams", lambda mags: [lam[::-1] for lam in signed(mags)])
    monkeypatch.setattr(
        enumeration, "check_dominance_f1", lambda lam, psi: dominant(tuple(sorted(lam, reverse=True)), psi)
    )
    with pytest.raises(ParamError, match="weakly decreasing"):
        enumerate_sp_reps(2, InfChar.of([1, 2]))


@pytest.mark.parametrize(
    "census",
    [partial(enumerate_sp_reps, 2, InfChar.of([1, 2])), partial(enumerate_o_reps, 2, 2, InfChar.of([1, 2]))],
    ids=["sp", "o"],
)
def test_census_rejects_a_datum_whose_positive_system_does_not_fit(monkeypatch, cold_census_memos, census):
    monkeypatch.setattr(enumeration, "check_dominance_f1", lambda lam, psi: True)
    with pytest.raises(ParamError, match="F-1"):
        census()


def _plant_a_wrong_eps_on_kappa_zero(monkeypatch) -> None:
    original = enumeration._eps_options
    monkeypatch.setattr(
        enumeration, "_eps_options", lambda kappa, zero_sign: original(kappa, zero_sign and -zero_sign)
    )


def test_census_rejects_a_wrong_eps_on_kappa_zero(monkeypatch, cold_census_memos):
    _plant_a_wrong_eps_on_kappa_zero(monkeypatch)
    with pytest.raises(ParamError, match="kappa_1=0 forces eps"):
        enumerate_sp_reps(1, InfChar.of([0]))


def test_census_rejects_a_wrong_eps_and_keeps_nothing_of_it(monkeypatch, cold_census_memos):
    """A defect planted inside the continuous factor raises and is not
    remembered: the unpatched census then gives its true members."""
    _plant_a_wrong_eps_on_kappa_zero(monkeypatch)
    with pytest.raises(ParamError, match="kappa_1=0 forces eps"):
        enumerate_sp_reps(1, InfChar.of([0]))
    monkeypatch.undo()
    got = [render_sp(pi) for pi in enumerate_sp_reps(1, InfChar.of([0]))]
    assert got == ["pi((0),{-2e1},0,0,0,0)", "pi((0),{2e1},0,0,0,0)", "pi(0,{},0,0,(1),(0))"]


def test_census_rejects_a_wrong_nu(monkeypatch, cold_census_memos):
    original = enumeration._pair_options
    monkeypatch.setattr(
        enumeration, "_pair_options", lambda x, y: {(mu, nu + 2) for mu, nu in original(x, y)}
    )
    with pytest.raises(AssertionError, match="wrong infinitesimal character"):
        enumerate_sp_reps(2, InfChar.of([1, 2]))


# -- uniqueness by invariants ---------------------------------------------------


def test_determinant_lifts_are_unique_for_their_invariants():
    chi = InfChar.of([Q(0), Q(1), Q(1), Q(2)])
    for lkt, want in (
        ((1, 1, -1, -1), "pi(0,{},(1,1),(1,3),0,0)"),
        ((2, 2, 2, 0), "pi((1,0),{e1+e2,e1-e2,2e1,2e2},(1),(3),0,0)"),
        (
            (3, 3, 3, 3),
            "pi((2,1,0),{e1+e2,e1-e2,e1+e3,e1-e3,e2+e3,e2-e3,2e1,2e2,2e3},0,0,(-1),(1))",
        ),
    ):
        got = verify_unique_by_invariants(4, chi, {UKType.of(lkt)})
        assert got == (canonicalize_sp(parse_sp(want)),)


def test_exceptional_rank_three_invariants_select_exactly_two_parameters():
    chi = InfChar.of([Q(2), Q(0), Q(1)])
    got = verify_unique_by_invariants(3, chi, {UKType.of((1, 0, -1))})
    assert set(got) == {
        canonicalize_sp(DET11_THETA3),
        canonicalize_sp(EXCEPTIONAL_THETA3_OTHER),
    }
    # The dispatcher resolves the ambiguity to the lift of the input below.
    assert theta_n(EXCEPTIONAL_THETA3_INPUT, 3).params == canonicalize_sp(DET11_THETA3)


# -- occurrence conservation ----------------------------------------------------


def test_occurrence_ranks_of_twisted_pairs_sum_to_four():
    chi = InfChar.of([Q(0), Q(1)])
    for p, q in ((4, 0), (3, 1), (2, 2)):
        for pi in enumerate_o_reps(p, q, chi):
            assert first_occurrence(pi) + first_occurrence(tensor_det_o(pi)) == 4


# -- table regeneration ----------------------------------------------------------


def test_beta_grid_leads_with_the_contract_values():
    assert BETA_GRID[:6] == (0, 1, 2, 5, Q(1, 2), "generic")


def test_beta_scalar_handles_generic_and_rationals():
    assert beta_scalar("generic") == GENERIC_B
    assert beta_scalar(Q(1, 2)) == Scalar.of(Q(1, 2))
    assert beta_scalar(3) == Scalar.of(3)


@pytest.mark.parametrize("beta", [0, 1, Q(1, 2), "generic"])
def test_regeneration_matches_the_stored_table(beta):
    rep = regenerate_appendix_c(beta, load_tables())
    assert rep.ok, rep.render()
    assert len(rep.cases) == 1 and "table rows match" in rep.cases[0].label


def test_regeneration_report_renders_and_serializes():
    rep = regenerate_appendix_c(2)
    text = rep.render()
    assert text.startswith("PASS") and "1/1 checks passed" in text
    js = rep.to_json()
    assert js["ok"] is True and js["name"] == rep.name
    assert all(set(c) == {"label", "ok", "details"} for c in js["cases"])


# -- joint-harmonics sample sets --------------------------------------------------


@pytest.mark.parametrize("p,q", enumeration._ALL_SIGS)
def test_occurring_uktypes_are_the_box_filtered_by_phi_pq(p, q):
    """The U(n)-types built from the occurrence count are exactly those of
    the weakly decreasing [-6,6]^n box that phi_pq accepts, n <= 5, in the
    box's decreasing order."""
    for n in range(6):
        box = [UKType.of(w) for w in combinations_with_replacement(range(6, -7, -1), n)]
        want = [u for u in box if phi_pq(u, p, q) is not None]
        assert enumeration._occurring_uktypes(n, p, q, 6) == want


@pytest.mark.parametrize("size", range(6))
def test_sample_ktype_sets_equal_the_filtered_products(size):
    """The sample O-factors are built directly as weakly decreasing tuples;
    they come out as the filtered full products did, in the same order."""
    factors = {
        OFactor.of(size, sorted(c, reverse=True), sign)
        for c in product(range(7), repeat=size // 2)
        for sign in (1, -1)
    }
    assert enumeration._all_ofactors(size, 6) == sorted(factors, key=lambda f: (f.entries, f.sign))


# -- suite driver ----------------------------------------------------------------


def test_verify_tables_runs_a_named_suite():
    rep = verify_tables("theta4")
    assert rep.ok, rep.render()
    labels = [c.label for c in rep.cases]
    assert any("determinant lifts match" in label for label in labels)
    assert any("conservation" in label for label in labels)


def test_verify_builds_each_check_input_once(monkeypatch):
    """One ``verify_tables("all")`` run, all five suites together, builds
    each census, each b's classification rows, each (pi, n) lift, each
    first occurrence and each lowest K-type set at most once, and each
    joint-harmonics image once: phi_n's memo misses 1140 times and phi_pq's
    once per distinct U(n)-type, 760 times.  It
    tries each lift-table row on each pi at most once, for the exclusivity
    check, the first occurrence and the lifts alike.  It instantiates a
    rank-1 or rank-2 template once per distinct sampled input (41 and 214
    of 45 and 325 sampled cases) and every rank-3 one (40 cases)."""
    calls = Counter()
    matched = Counter()
    row_lift = theta_module.row_lift
    tables = load_tables()
    template_rank = {id(row.template): rank for rank in (1, 2, 3) for row in tables.theta(rank).rows}
    templates = Counter()
    instantiate = enumeration.instantiate_pattern

    def counted_instantiate(pattern, env):
        templates[template_rank.get(id(pattern))] += 1
        return instantiate(pattern, env)

    monkeypatch.setattr(enumeration, "instantiate_pattern", counted_instantiate)

    def counted_row_lift(row, pi):
        matched[id(row), pi] += 1
        return row_lift(row, pi)

    monkeypatch.setattr(theta_module, "row_lift", counted_row_lift)
    theta_module.matching_rows.cache_clear()
    phi_n.cache_clear()
    phi_pq.cache_clear()

    def counted(name, key=lambda args: args):
        fn = getattr(enumeration, name)

        def call(*args):
            calls[name, key(args)] += 1
            return fn(*args)

        monkeypatch.setattr(enumeration, name, call)

    counted("enumerate_sp_reps")
    counted("enumerate_o_reps")
    counted("appendix_rows_at", lambda args: args[1])
    counted("theta_n", lambda args: args[:2])
    counted("first_occurrence", lambda args: args[0])
    counted("lowest_ktypes_sp")
    assert verify_tables("all", tables).ok
    built = Counter()
    for (name, _), count in calls.items():
        built[name] += count
    assert built["appendix_rows_at"] == len(BETA_GRID)
    assert built["enumerate_sp_reps"] and built["theta_n"] and built["first_occurrence"]
    assert (phi_n.cache_info().misses, phi_pq.cache_info().misses) == (1140, 760)
    assert [key for key, count in calls.items() if count > 1] == []
    assert matched and [key for key, count in matched.items() if count > 1] == []
    assert (templates[1], templates[2], templates[3]) == (41, 214, 40)


def test_second_verify_run_asks_phi_for_nothing_new():
    """The joint-harmonics images outlive a verification run: a second
    ``verify_tables("all")`` in the same process finds every phi_n and
    phi_pq image in their memos."""
    assert verify_tables("all").ok
    before = phi_n.cache_info().misses, phi_pq.cache_info().misses
    assert verify_tables("all").ok
    assert (phi_n.cache_info().misses, phi_pq.cache_info().misses) == before


def test_verify_drops_its_inputs_when_it_returns(monkeypatch):
    """The check inputs of a run are freed by reference counting when
    ``verify_tables`` returns, not left for the cycle collector."""
    made = []

    class Recorded(enumeration._Inputs):
        def __init__(self, tables):
            super().__init__(tables)
            made.append(weakref.ref(self))

    monkeypatch.setattr(enumeration, "_Inputs", Recorded)
    gc.disable()
    try:
        assert verify_tables("theta4").ok
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()


def test_loaded_tables_keep_no_match(monkeypatch):
    """The tables hold no match: a ``TableSet`` is its three fields, and a
    match is kept by ``matching_rows`` alone.  After ``verify_tables("all")``
    and a ``theta_n`` call on the tables of ``load_tables``, each lift on
    them asks ``matching_rows`` again, which answers without trying a row."""
    tables = load_tables()
    pi = trivial_o(2, 2)
    assert verify_tables("all", tables).ok
    theta_n(pi, 2, tables)
    assert not hasattr(tables, "__dict__") and tables == TableSet(*tables)
    match, row_lift = theta_module.matching_rows, theta_module.row_lift
    matched, tried = [], []

    def spy(table, target):
        matched.append(table)
        return match(table, target)

    def spy_row(row, target):
        tried.append(row)
        return row_lift(row, target)

    monkeypatch.setattr(theta_module, "matching_rows", spy)
    monkeypatch.setattr(theta_module, "row_lift", spy_row)
    for _ in range(2):
        assert not theta_n(pi, 2, tables).is_zero
    assert matched == [tables.theta(2)] * 2 and tried == []


def test_verify_tables_rejects_unknown_suites():
    with pytest.raises(ValueError):
        verify_tables("nonsense")


# SHA-256 of `thetalift verify --suite all --json`, the behaviour oracle.
ORACLE_SHA256 = "51a9e5edc2000eae9720c4fdc3f9b17911defe26100838ed586595ba58046e00"


def test_verify_tables_all_is_green(capsys):
    """The oracle is the CLI's own stdout, through its ``--json`` writer."""
    code = cli.main(["verify", "--suite", "all", "--json"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256


def test_verify_tables_all_is_the_same_from_cold_and_warm_value_memos():
    """Two runs in one process, the first from empty memos of checked_sp
    and checked_o and the second from the memos the first left, both give
    the oracle.  The table-match memo and the census memos start empty
    too."""
    _checked_sp.cache_clear()
    _checked_o.cache_clear()
    theta_module.matching_rows.cache_clear()
    _clear_census_memos()
    for _ in range(2):
        text = json.dumps(verify_tables("all").to_json(), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_SHA256


def test_verify_all_merges_the_suites_in_order():
    """The ``all`` report is every suite's report, in ``SUITES`` order, each
    label prefixed with the name of the suite's report."""
    tables = load_tables()
    want = []
    for name in SUITES:
        rep = verify_tables(name, tables)
        want += [
            {"label": f"{rep.name}: {c['label']}", "ok": c["ok"], "details": c["details"]}
            for c in rep.to_json()["cases"]
        ]
    got = verify_tables("all", tables).to_json()
    assert got == {"name": "all", "ok": all(c["ok"] for c in want), "cases": want}


def test_oracle_ignores_hash_seed_and_optimize_flag():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-O", "-m", "thetalift.cli", "verify", "--suite", "all", "--json"],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == ORACLE_SHA256
