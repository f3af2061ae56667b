"""Lift engine: expression/pattern matching, row conditions, the
induction principles, the modification rule, first occurrence, and the
dispatcher, against hand-frozen values."""

import random
from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement

import pytest

from thetalift.exact import GENERIC_B, InfChar, Scalar, infchars_dual, parse_scalar
from thetalift.langlands import (
    ParamError,
    SpParams,
    canonicalize_o,
    canonicalize_sp,
    contragredient_sp,
    det_o,
    expr_eval,
    infchar_o,
    infchar_sp,
    instantiate_pattern,
    parse_expr,
    parse_o,
    parse_param_pattern,
    parse_sp,
    render_o,
    render_sp,
    swap_pq,
    trivial_o,
    validate_continuous,
)
from thetalift.enumeration import enumerate_o_reps, enumerate_sp_reps
from thetalift.lkt import lowest_ktypes_sp
from thetalift.roots import PositiveSystem, SpKind
from thetalift import theta as theta_module
from thetalift.theta import (
    DET11_THETA3,
    TableError,
    ThetaError,
    _bind_pairs,
    _bind_tuple,
    _shape,
    apply_modification,
    cond_eval,
    cond_lambda,
    dual_infchar,
    expr_bind,
    first_occurrence,
    induct_n,
    induct_pq,
    load_tables,
    lookup_lift,
    match_o_pattern,
    matching_rows,
    o_infchar_from_sp,
    parse_cond,
    row_lift,
    theta_n,
)


# -- expressions -------------------------------------------------------------


def test_parse_expr_literal_and_variables():
    assert parse_expr("3").var is None
    assert parse_expr("3").form == Scalar.of(3)
    e = parse_expr("m")
    assert e.var == "m" and e.form == GENERIC_B
    e = parse_expr("b-1")
    assert e.var == "b"
    assert expr_eval(e, {"b": Scalar.of(4)}) == Scalar.of(3)
    e = parse_expr("b/2+3/2")
    assert expr_eval(e, {"b": Scalar.of(5)}) == Scalar.of(4)
    e = parse_expr("-c1")
    assert e.var == "c1"
    assert expr_eval(e, {"c1": Scalar.of(Q(1, 2))}) == Scalar.of(Q(-1, 2))


def test_expr_bind_solves_and_type_checks():
    env = expr_bind(parse_expr("m"), Scalar.of(3), {})
    assert env == {"m": 3}
    assert expr_bind(parse_expr("m"), Scalar.of(Q(1, 2)), {}) is None
    assert expr_bind(parse_expr("s1"), Scalar.of(2), {}) is None
    assert expr_bind(parse_expr("s1"), Scalar.of(-1), {}) == {"s1": -1}
    env = expr_bind(parse_expr("c1"), GENERIC_B, {})
    assert env == {"c1": GENERIC_B}
    # already-bound variables must agree
    assert expr_bind(parse_expr("m"), Scalar.of(3), {"m": 4}) is None
    assert expr_bind(parse_expr("m"), Scalar.of(4), {"m": 4}) == {"m": 4}
    # affine solve
    env = expr_bind(parse_expr("b+1"), Scalar.of(3), {})
    assert env["b"] == Scalar.of(2)
    assert expr_bind(parse_expr("2"), Scalar.of(2), {}) == {}
    assert expr_bind(parse_expr("2"), Scalar.of(3), {}) is None


# -- conditions --------------------------------------------------------------


def test_cond_atoms():
    env = {"m": 3, "s1": -1, "c1": Scalar.of(0), "b": Scalar.of(Q(1, 2)), "l": 1}
    assert cond_eval(parse_cond("true"), env)
    assert cond_eval(parse_cond("m>=1 & m>l"), env)
    assert not cond_eval(parse_cond("m>=4"), env)
    assert cond_eval(parse_cond("pair(s1,c1)!=(1,0)"), env)
    assert not cond_eval(parse_cond("pair(s1,c1)!=(-1,0)"), env)
    assert cond_eval(parse_cond("b notin {0,1,-1}"), env)
    assert not cond_eval(parse_cond("m notin {3}"), env)
    assert not cond_eval(parse_cond("b int"), env)
    assert cond_eval(parse_cond("m int & m odd"), env)
    assert not cond_eval(parse_cond("m even"), env)
    assert cond_eval(parse_cond("m=3"), env)
    assert cond_eval(parse_cond("b!=1"), env)


def test_cond_symbolic_scalars_are_generic():
    env = {"c1": GENERIC_B}
    assert not cond_eval(parse_cond("c1 int"), env)
    assert not cond_eval(parse_cond("c1>=1"), env)
    assert not cond_eval(parse_cond("c1=2"), env)
    assert cond_eval(parse_cond("c1!=2"), env)
    assert cond_eval(parse_cond("c1 notin {0,1,-1}"), env)


def test_cond_unknown_atom_and_unbound_variable():
    with pytest.raises(TableError):
        cond_eval(parse_cond("m ~ 3"), {"m": 1})
    with pytest.raises(TableError):
        cond_eval(parse_cond("m>=1"), {})


# -- patterns ----------------------------------------------------------------


def test_pattern_parse_and_instantiate_roundtrip():
    pat = parse_param_pattern("pi_{1}((m,0;),1,{e1+e2,e1-e2},0,0,0,0)")
    assert pat.side == "o" and pat.var_names() == {"m"}
    pi = instantiate_pattern(pat, {"m": 2})
    assert pi == parse_o("pi_{1}((2,0;),1,{e1+e2,e1-e2},0,0,0,0)")
    envs = match_o_pattern(pat, pi)
    assert envs == ({"m": 2},)
    # mismatched shape/invariants
    assert match_o_pattern(pat, trivial_o(2, 2)) == ()


def test_pattern_matching_tries_pair_permutations():
    pat = parse_param_pattern("pi_{1}(0,1,{},0,0,(1,s1),(0,c1))")
    pi = parse_o("pi_{1}(0,1,{},0,0,(1,1),(0,5))")
    envs = match_o_pattern(pat, pi)
    assert envs == ({"s1": 1, "c1": Scalar.of(5)},)
    # the (kappa=0) slot may be taken by either pair when both are zero
    pi2 = parse_o("pi_{1}(0,1,{},0,0,(-1,-1),(0,0))")
    pat2 = parse_param_pattern("pi_{1}(0,1,{},0,0,(-1,s2),(0,c2))")
    envs2 = match_o_pattern(pat2, pi2)
    assert envs2 == ({"s2": -1, "c2": Scalar.of(0)},)


def test_instantiate_rejects_invalid_parameters():
    pat = parse_param_pattern("pi((b),{2e1},0,0,0,0)")
    with pytest.raises(ParamError):
        instantiate_pattern(pat, {"b": GENERIC_B})  # symbolic discrete datum
    pat2 = parse_param_pattern("pi(0,{},(m),(0),0,0)")
    with pytest.raises(ParamError):
        instantiate_pattern(pat2, {"m": 2})  # nu=0 needs odd mu


# -- infinitesimal character duality ----------------------------------------


def test_dual_infchar_directions():
    chi = InfChar.of([Scalar.of(Q(1, 2)), Scalar.of(3)])
    assert dual_infchar(chi, 2, 2) == chi
    assert dual_infchar(chi, 2, 4).entries == InfChar.of([Q(1, 2), 1, 2, 3]).entries
    chi2 = InfChar.of([0, 3])
    assert dual_infchar(chi2, 2, 1).entries == InfChar.of([3]).entries
    with pytest.raises(ThetaError):
        dual_infchar(InfChar.of([Q(1, 2), 3]), 2, 1)  # no zero entry to remove
    back = o_infchar_from_sp(InfChar.of([3]), 2, 1)
    assert back.entries == InfChar.of([0, 3]).entries
    assert o_infchar_from_sp(dual_infchar(chi, 2, 5), 2, 5) == chi


# -- modification rule -------------------------------------------------------


def _sp0(eps, kappa):
    return SpParams((), PositiveSystem.of(SpKind(0), ()), (), (), eps, kappa)


def test_modification_example():
    probe = _sp0((1, -1, -1), (Scalar.of(3), Scalar.of(-3), Scalar.of(5)))
    out = apply_modification(probe)
    assert out.eps == (-1,)
    assert out.kappa == (Scalar.of(5),)
    assert out.mu == (0,)
    assert out.nu == (Scalar.of(6),)


def test_modification_fixpoint_and_noop():
    probe = _sp0((1, 1), (Scalar.of(2), Scalar.of(2)))
    assert apply_modification(probe) == probe  # equal signs: no clash
    probe = _sp0((1, -1, 1, -1), (Scalar.of(1), Scalar.of(1), Scalar.of(4), Scalar.of(4)))
    out = apply_modification(probe)
    assert out.eps == () and out.kappa == ()
    assert sorted(x.render() for x in out.nu) == ["2", "8"]
    assert out.mu == (0, 0)


# -- kappa classes against the pairwise references -----------------------------


def _reference_continuous_kappa(params):
    """The pairwise rule: kappas equal up to sign force equal eps."""
    for i, j in combinations(range(len(params.kappa)), 2):
        ki, kj = params.kappa[i], params.kappa[j]
        if (ki == kj or ki == -kj) and params.eps[i] != params.eps[j]:
            return False
    return True


def _reference_modification(params):
    """The leftmost clash resolved first, rescanning to a fixed point."""
    eps, kappa = list(params.eps), list(params.kappa)
    mu, nu = list(params.mu), list(params.nu)
    while True:
        clash = next(
            (
                (i, j)
                for i in range(len(eps))
                for j in range(i + 1, len(eps))
                if eps[i] != eps[j] and (kappa[i] == kappa[j] or kappa[i] == -kappa[j])
            ),
            None,
        )
        if clash is None:
            break
        i, j = clash
        fresh_nu = kappa[i].normalized_sign().scale(2)
        for idx in (j, i):
            del eps[idx]
            del kappa[idx]
        mu.append(0)
        nu.append(fresh_nu)
    return params._replace(mu=tuple(mu), nu=tuple(nu), eps=tuple(eps), kappa=tuple(kappa))


_KAPPA_VALUES = [Scalar.of(x) for x in (0, 1, 2, 3, Q(1, 2))] + [Scalar(im=1), GENERIC_B]


def _random_slots(rng):
    """Up to 7 (eps, kappa) slots over the values above with both signs,
    and up to two (mu, nu) pairs."""
    def signed():
        return rng.choice(_KAPPA_VALUES).scale(rng.choice((1, -1)))

    t, s = rng.randrange(8), rng.randrange(3)
    eps = tuple(rng.choice((1, -1)) for _ in range(t))
    kappa = tuple(signed() for _ in range(t))
    mu = tuple(rng.randrange(4) for _ in range(s))
    return SpParams((), PositiveSystem.of(SpKind(0), ()), mu, tuple(signed() for _ in mu), eps, kappa)


def test_kappa_classes_match_the_pairwise_references(monkeypatch):
    """Grouping slots by sign-normalized kappa accepts and rejects exactly
    the parameters the pairwise check does, and the modification rule's
    per-class pairing leaves the same slots, in order, and the same
    canonical form as resolving the leftmost clash first.  It returns its
    input itself exactly when there is no clash, on the Sp side and on the
    O side that ``induct_pq`` hands it."""
    rng = random.Random(20)
    rejected = clashes = 0
    for _ in range(4000):
        probe = _random_slots(rng)
        try:
            validate_continuous(probe.mu, probe.nu, probe.eps, probe.kappa, None)
            accepted = True
        except ParamError:
            accepted = False
        want_mu_nu_ok = all(m % 2 or not nu.is_zero for m, nu in zip(probe.mu, probe.nu))
        assert accepted == (want_mu_nu_ok and _reference_continuous_kappa(probe)), probe
        rejected += not accepted
        out, want = apply_modification(probe), _reference_modification(probe)
        assert (out.eps, out.kappa) == (want.eps, want.kappa), probe
        assert canonicalize_sp(out) == canonicalize_sp(want), probe
        clash = len(want.mu) > len(probe.mu)
        assert (out is probe) == (not clash), probe
        clashes += clash
    assert rejected > 500 and clashes > 500
    calls = []

    def spy(params):
        calls.append((params, apply_modification(params)))
        return calls[-1][1]

    monkeypatch.setattr(theta_module, "apply_modification", spy)
    for eps, clash in (((1, 1), False), ((1, -1), True)):
        induct_pq(parse_o(f"pi_{{1}}(0,1,{{}},0,0,{eps},(0,1))"), 3, 1)
        (probe, out), = calls[-1:]
        want = _reference_modification(probe)
        assert (out.eps, out.kappa) == (want.eps, want.kappa), probe
        assert canonicalize_o(out) == canonicalize_o(want), probe
        assert (len(want.mu) > len(probe.mu)) == clash, probe
        assert (out is probe) == (not clash), probe


# -- condition on the discrete datum -----------------------------------------


def test_cond_lambda_cases():
    tables = load_tables()
    full = parse_sp("pi((1,0),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)")
    # case 1: the half-difference equals the signed count directly
    assert cond_lambda(full.lam, full.psi, 1)
    assert not cond_lambda(full.lam, full.psi, 3)
    # case 2/3: one zero entry; membership of the doubled coordinate root
    plus = parse_sp("pi((0),{2e1},0,0,0,0)")
    assert cond_lambda(plus.lam, plus.psi, 0)  # case 1
    assert cond_lambda(plus.lam, plus.psi, 1)  # case 2: 2e1 in Psi
    assert not cond_lambda(plus.lam, plus.psi, -1)  # case 3 fails: 2e1 in Psi
    minus = parse_sp("pi((0),{-2e1},0,0,0,0)")
    assert cond_lambda(minus.lam, minus.psi, -1)
    assert not cond_lambda(minus.lam, minus.psi, 1)
    # two zeros: the connecting root e_{k+1}+e_{k+z}
    two = parse_sp("pi((0,0),{e1+e2,e1-e2,2e1,-2e2},0,0,0,0)")
    assert cond_lambda(two.lam, two.psi, 1) == two.psi.contains((0, 1, 1, 1))
    assert cond_lambda(two.lam, two.psi, -1) == (not two.psi.contains((0, 1, 1, 1)))


# -- induction principles ----------------------------------------------------


def test_induct_n_spec_example():
    base = theta_n(det_o(2, 2), 4).params
    out = induct_n(base, 2, 2, 1)
    assert out == parse_sp("pi(0,{},(1,1),(1,3),(1),(3))")


def test_induct_n_fires_modification():
    base = parse_sp("pi((0),{2e1},0,0,(1),(1))")  # a rank-2 lift over O(3,1)
    out = induct_n(base, 3, 1, 1)
    assert out == parse_sp("pi((0),{2e1},(0),(2),0,0)")


def test_induct_n_guards():
    base = parse_sp("pi(0,{},0,0,(1),(1))")
    with pytest.raises(ThetaError):
        induct_n(base, 2, 2, 0)  # k >= 1
    with pytest.raises(ThetaError):
        induct_n(base, 3, 2, 1)  # odd p+q
    with pytest.raises(ThetaError):
        induct_n(base, 2, 2, 1)  # p+q = 2n+2
    with pytest.raises(ThetaError):
        induct_n(parse_sp("pi(0,{},0,0,0,0)"), 2, 2, 2)  # window hit: m in {n0+1..n0+k}
    with pytest.raises(ThetaError):
        induct_n(parse_sp("pi((1),{2e1},0,0,0,0)"), 0, 4, 1)  # discrete datum fails


def test_induct_pq_spec_example():
    out = induct_pq(trivial_o(2, 2), 1, 1)
    assert out == parse_o("pi_{1}(0,1,{},0,0,(1,1,1),(0,1,1))")
    assert (out.p, out.q) == (3, 3)


def test_induct_pq_guards():
    with pytest.raises(ThetaError):
        induct_pq(trivial_o(2, 2), 1, 0)
    with pytest.raises(ThetaError):
        induct_pq(det_o(2, 2), 5, 1)  # zeta/xi guard (det has zeta=-1)
    with pytest.raises(ThetaError):
        induct_pq(trivial_o(2, 2), 2, 1)  # window hit: n = m
    with pytest.raises(ThetaError):
        # this parameter first occurs at rank 1, so rank 0 is below occurrence
        induct_pq(parse_o("pi_{1}((1;0),1,{e1+f1,e1-f1},0,0,0,0)"), 0, 1)
    with pytest.raises(ThetaError):
        # no zero in the discrete datum and no (+1, 0) slot
        induct_pq(parse_o("pi_{1}((2,1;),1,{e1+e2,e1-e2},0,0,0,0)"), 5, 1)


# -- first occurrence ---------------------------------------------------------


def test_first_occurrence_classes():
    assert first_occurrence(trivial_o(4, 0)) == 0
    assert first_occurrence(trivial_o(1, 3)) == 0
    assert first_occurrence(det_o(2, 2)) == 4
    assert first_occurrence(det_o(0, 4)) == 4
    # xi = -1 families occur at 3
    assert first_occurrence(parse_o("pi_{1}((2,0;),-1,{e1+e2,e1-e2},0,0,0,0)")) == 3
    # zeta = -1 with a (+1, 0) slot occurs at 3
    assert first_occurrence(parse_o("pi_{-1}(0,1,{},0,0,(1,1),(0,5))")) == 3
    # rank-1 table rows occur at 1
    assert first_occurrence(parse_o("pi_{1}((3,0;),1,{e1+e2,e1-e2},0,0,0,0)")) == 1
    assert first_occurrence(parse_o("pi_{1}(0,1,{},0,0,(1,-1),(0,5))")) == 1
    # everything else at 2
    assert first_occurrence(parse_o("pi_{1}((2,1;),1,{e1+e2,e1-e2},0,0,0,0)")) == 2
    assert first_occurrence(parse_o("pi_{1}(0,1,{},(3),(1/2),0,0)")) == 2
    with pytest.raises(ThetaError):  # O(2,4) is outside the tabulated range
        first_occurrence(parse_o("pi_{1}((1;1,0),1,{e1+f1,e1-f1,e1+f2,e1-f2,f1+f2,f1-f2},0,0,0,0)"))


# -- dispatcher ---------------------------------------------------------------


FROZEN_LIFTS = {
    ("trivial", 4, 0, 1): "pi((1),{2e1},0,0,0,0)",
    ("trivial", 4, 0, 2): "pi((1,0),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)",
    ("trivial", 3, 1, 1): "pi(0,{},0,0,(-1),(1))",
    ("trivial", 3, 1, 2): "pi((0),{2e1},0,0,(-1),(1))",
    ("trivial", 2, 2, 1): "pi(0,{},0,0,(1),(1))",
    ("trivial", 2, 2, 2): "pi(0,{},0,0,(1,1),(0,1))",
    ("trivial", 2, 2, 3): "pi(0,{},0,0,(1,1,1),(0,1,1))",
    ("det", 2, 2, 4): "pi(0,{},(1,1),(1,3),0,0)",
    ("det", 3, 1, 4): "pi((1,0),{e1+e2,e1-e2,2e1,2e2},(1),(3),0,0)",
    ("det", 4, 0, 4): "pi((2,1,0),{e1+e2,e1-e2,e1+e3,e1-e3,e2+e3,e2-e3,2e1,2e2,2e3},0,0,(-1),(1))",
}


def test_dispatcher_frozen_values():
    for (which, p, q, n), want in FROZEN_LIFTS.items():
        pi = trivial_o(p, q) if which == "trivial" else det_o(p, q)
        res = theta_n(pi, n)
        assert not res.is_zero
        assert res.params == parse_sp(want), (which, p, q, n)


def test_dispatcher_zero_below_first_occurrence():
    for rank in (1, 2, 3):
        assert theta_n(det_o(2, 2), rank).is_zero
    res = theta_n(det_o(2, 2), 3)
    assert res.render() == "0" and "occurrence" in res.provenance


def test_dispatcher_rank_zero():
    res = theta_n(trivial_o(3, 1), 0)
    assert res.params == parse_sp("pi(0,{},0,0,0,0)")
    assert theta_n(det_o(3, 1), 0).is_zero


def test_dispatcher_exceptional_case():
    pi = parse_o("pi_{-1}(0,1,{},0,0,(1,1),(0,2))")
    res = theta_n(pi, 3)
    assert res.params == canonicalize_sp(DET11_THETA3)
    assert res.params == parse_sp("pi(0,{},(1),(1),(1),(2))")


def test_dispatcher_swapped_signatures_are_contragredient():
    for (p, q) in ((0, 4), (1, 3)):
        pi = trivial_o(p, q)
        for n in (1, 2, 4):
            res = theta_n(pi, n)
            other = theta_n(swap_pq(pi), n)
            assert res.params == canonicalize_sp(contragredient_sp(other.params))
    with pytest.raises(ThetaError):  # O(2,4) is outside the tabulated range
        theta_n(parse_o("pi_{1}((1;1,0),1,{e1+f1,e1-f1,e1+f2,e1-f2,f1+f2,f1-f2},0,0,0,0)"), 2)
    with pytest.raises(ThetaError):
        theta_n(trivial_o(2, 2), -1)


def test_dispatcher_high_ranks_factor_through_rank_four():
    tr = trivial_o(2, 2)
    five = theta_n(tr, 5)
    assert five.params == parse_sp("pi(0,{},0,0,(1,1,1,1,1),(0,1,1,2,3))")
    assert five.params == induct_n(theta_n(tr, 4).params, 2, 2, 1)
    z = parse_o("pi_{-1}(0,1,{},0,0,(1,1),(0,5))")
    assert theta_n(z, 5).params == parse_sp("pi(0,{},(1),(1),(1,1,1),(2,3,5))")


_INVALID_O = {
    "lam halves must be weakly decreasing": ("pi_{1}((2,1;),1,{e1+e2,e1-e2},0,0,0,0)", dict(lam_left=(1, 2))),
    "block multiplicities": ("pi_{1}((2,1;),1,{e1+e2,e1-e2},0,0,0,0)", dict(lam_left=(2, 2))),
    "zeta=-1 requires some kappa=0": ("pi_{1}(0,1,{},0,0,(1,1),(1,2))", dict(zeta=-1)),
    "xi=-1 requires a zero entry": ("pi_{1}((2,1;),1,{e1+e2,e1-e2},0,0,0,0)", dict(xi=-1)),
}


@pytest.mark.parametrize("message", sorted(_INVALID_O))
def test_invalid_input_raises_param_error(message):
    """The public entry points validate their input once, so an invalid
    parameter raises ParamError at every rank instead of lifting to 0 at
    low ranks and failing a table lookup above them."""
    text, change = _INVALID_O[message]
    pi = parse_o(text)._replace(**change)
    with pytest.raises(ParamError, match=message):
        first_occurrence(pi)
    for n in range(7):
        with pytest.raises(ParamError, match=message):
            theta_n(pi, n)


def test_lookup_is_exhaustive_over_rank2_bases():
    """Every valid parameter with occurrence <= 2 must hit exactly one
    rank-2 row (completeness of the rank-2 table)."""
    tables = load_tables()
    count = 0
    for (p, q) in ((4, 0), (3, 1), (2, 2)):
        for entries in ([0, 1], [1, 2], [Q(1, 2), Q(5, 2)], [2, 2]):
            for pi in enumerate_o_reps(p, q, InfChar.of(entries)):
                if first_occurrence(pi, tables) <= 2:
                    count += 1
                    assert lookup_lift(tables.theta(2), pi) is not None
    assert count > 20


def test_duality_across_dispatcher():
    for pi in (trivial_o(3, 1), det_o(4, 0), parse_o("pi_{-1}((2;),1,{},0,0,(-1),(0))")):
        chi = infchar_o(pi)
        for n in range(7):
            res = theta_n(pi, n)
            if res.is_zero:
                continue
            assert infchars_dual(chi, infchar_sp(res.params), 2, n)


# -- the pair-grid pool of O(p,q) parameters ------------------------------------


@pytest.fixture(scope="module")
def pool():
    """Every O(p,q), p+q=4, parameter whose infinitesimal character is a
    pair from {0,1,2,3,1/2,3/2,b}; enumerated parameters are canonical."""
    grid = [Scalar.of(x) for x in (0, 1, 2, 3, Q(1, 2), Q(3, 2))] + [GENERIC_B]
    chis = {InfChar.of(pair) for pair in combinations_with_replacement(grid, 2)}
    params = [
        pi
        for p, q in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
        for chi in chis
        for pi in enumerate_o_reps(p, q, chi)
    ]
    assert len(params) == 341
    return params


def test_shape_index_equals_a_full_scan(pool):
    tables = load_tables()
    for rank in (1, 2, 3, 4):
        table = tables.theta(rank)
        grouped = [row for group in table.by_shape.values() for row in group]
        assert sorted(r.line for r in grouped) == sorted(r.line for r in table.rows)
        hits = 0
        for pi in pool:
            scan = tuple((row, lift) for row in table.rows if (lift := row_lift(row, pi)) is not None)
            assert matching_rows(table, pi) == scan, (rank, pi)
            hits += len(scan)
        assert hits > 0, rank


def _scrambled_pairs(params) -> dict:
    """The (mu, nu) and (eps, kappa) pairs in reverse order, with nu and
    kappa negated: the same parameter, written out of canonical form."""
    mn = [(m, -nu) for m, nu in zip(params.mu, params.nu)][::-1]
    ek = [(e, -k) for e, k in zip(params.eps, params.kappa)][::-1]
    return dict(
        mu=tuple(m for m, _ in mn),
        nu=tuple(nu for _, nu in mn),
        eps=tuple(e for e, _ in ek),
        kappa=tuple(k for _, k in ek),
    )


def _scrambled_o(pi):
    """pi with its pairs scrambled and Psi flipped on every zero coordinate."""
    zeros = {i for i, x in enumerate(pi.lam_left + pi.lam_right) if x == 0}
    roots = ((i, -ci if i in zeros else ci, j, -cj if j in zeros else cj) for i, ci, j, cj in pi.psi.roots)
    return pi._replace(psi=PositiveSystem.of(pi.psi.kind, roots), **_scrambled_pairs(pi))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ThetaError as err:
        return f"ThetaError: {err}"


def test_non_canonical_input_gives_the_canonical_answers(pool):
    """The public entry points accept a parameter out of canonical form
    and answer as for its canonical form."""
    tables = load_tables()
    scrambled = psi_flipped = 0
    for pi in pool:
        odd = _scrambled_o(pi)
        assert canonicalize_o(odd) == pi
        if odd == pi:
            continue
        scrambled += 1
        psi_flipped += odd.psi != pi.psi
        assert first_occurrence(odd, tables) == first_occurrence(pi, tables), pi
        for n in range(7):
            lift = theta_n(pi, n, tables)
            assert theta_n(odd, n, tables) == lift, (pi, n)
            assert _outcome(induct_pq, odd, n, 1, tables) == _outcome(induct_pq, pi, n, 1, tables)
            if lift.is_zero or n > 4:
                continue
            odd_sp = lift.params._replace(**_scrambled_pairs(lift.params))
            assert canonicalize_sp(odd_sp) == lift.params
            for k in (1, 2):
                want = _outcome(induct_n, lift.params, pi.p, pi.q, k)
                assert _outcome(induct_n, odd_sp, pi.p, pi.q, k) == want, (pi, n, k)
    assert scrambled > 200 and psi_flipped > 0


def _instantiating_match(pat, target) -> tuple[dict, ...]:
    """The row matcher as it was before matching by binding alone: bind,
    then confirm each distinct binding by instantiating the pattern and
    comparing the canonical result with the target."""
    if _shape(pat) != _shape(target):
        return ()
    lam_vals = tuple(Scalar.of(x) for x in target.lam_left + target.lam_right)
    base = _bind_tuple(pat.lam_left + pat.lam_right, lam_vals, {})
    if base is None:
        return ()
    envs = _bind_pairs([base], pat.mu, pat.nu, [(Scalar.of(m), v) for m, v in zip(target.mu, target.nu)])
    envs = _bind_pairs(envs, pat.eps, pat.kappa, [(Scalar.of(e), k) for e, k in zip(target.eps, target.kappa)])
    out: list[dict] = []
    for env in envs:
        if env in out:
            continue
        try:
            if instantiate_pattern(pat, env) == target:
                out.append(env)
        except ParamError:
            continue
    return tuple(out)


def test_matching_by_binding_equals_instantiating_match():
    """Every lift row, against every canonical O(p,q), p+q=4, parameter
    whose infinitesimal character is a pair from {0,1,2,3,4,5,1/2,3/2,b},
    binds exactly as the instantiate-and-compare matcher does."""
    grid = [Scalar.of(x) for x in (0, 1, 2, 3, 4, 5, Q(1, 2), Q(3, 2))] + [GENERIC_B]
    chis = {InfChar.of(pair) for pair in combinations_with_replacement(grid, 2)}
    params = [
        pi
        for p, q in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
        for chi in chis
        for pi in enumerate_o_reps(p, q, chi)
    ]
    assert len(params) == 599
    tables = load_tables()
    bindings = 0
    for rank in (1, 2, 3, 4):
        for row in tables.theta(rank).rows:
            for pi in params:
                envs = match_o_pattern(row.pattern, pi)
                assert envs == _instantiating_match(row.pattern, pi), (rank, row.line, render_o(pi))
                bindings += len(envs)
    assert bindings == 674


def test_lifts_instantiate_no_orthogonal_pattern(pool, monkeypatch):
    """Row matching never rebuilds the parameter it matches: the only
    patterns instantiated on the lift path are Sp templates."""
    original = theta_module.instantiate_pattern
    sides = set()

    def spy(pat, env):
        sides.add(pat.side)
        return original(pat, env)

    monkeypatch.setattr(theta_module, "instantiate_pattern", spy)
    theta_module.matching_rows.cache_clear()  # a remembered match instantiates nothing
    tables = load_tables()
    for pi in pool:
        for n in range(7):
            theta_n(pi, n, tables)
    assert sides == {"sp"}


def test_census_and_lifts_construct_no_fraction(pool):
    """Scalars compute on integers: with the tables warm, neither a rank-5
    census with its lowest K-types nor the lifts of the pool at ranks 0-6
    construct a single Fraction."""
    tables = load_tables()
    census = InfChar.of([0, 1, 2, 3, 4])

    def work():
        for pi in enumerate_sp_reps(5, census):
            lowest_ktypes_sp(pi)
        for pi in pool:
            for n in range(7):
                theta_n(pi, n, tables)

    work()
    original = Q.__dict__["__new__"]
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Q.__new__ = staticmethod(counting)
    try:
        work()
        assert built == []
        assert Scalar.of(1).half().re == Q(1, 2)
        assert built, "the counter saw no Fraction at all"
    finally:
        Q.__new__ = original


def test_one_induction_from_the_table_rank_equals_a_stop_at_rank_four(pool):
    """theta_n raises the table lift at rank max(n0, 2) to rank n in one
    induction step; stopping at rank 4 on the way gives the same lift."""
    tables = load_tables()
    cases = 0
    for pi in pool:
        if (pi.p, pi.q) not in ((4, 0), (3, 1), (2, 2)):
            continue
        n0 = first_occurrence(pi, tables)
        if n0 > 3:
            continue
        start = max(n0, 2)
        base = lookup_lift(tables.theta(start), pi)
        via_four = induct_n(base, pi.p, pi.q, 4 - start)
        for n in range(5, 9):
            direct = induct_n(base, pi.p, pi.q, n - start)
            assert direct == induct_n(via_four, pi.p, pi.q, n - 4), (render_o(pi), n)
            assert theta_n(pi, n, tables).params == direct
            cases += 1
    assert cases == 1012


# -- the value memos ----------------------------------------------------------


def test_value_memos_weaken_no_check():
    """After valid queries have filled the memos of checked_o, checked_sp
    and matching_rows, a twin that holds floats or bools where ints belong,
    equal to a remembered value and hashing alike, raises as validation
    does; and an invalid parameter raises on every call, since no failure
    is stored."""
    pi = parse_o("pi_{1}((2,0;),1,{e1+e2,e1-e2},0,0,0,0)")
    slots = parse_o("pi_{1}(0,1,{},0,0,(1,1),(0,2))")
    base = parse_sp("pi((0),{2e1},0,0,(1),(1))")
    assert not theta_n(pi, 2).is_zero and first_occurrence(pi) == 1
    assert not theta_n(slots, 2).is_zero and first_occurrence(slots) == 1
    assert induct_n(base, 3, 1, 1) == parse_sp("pi((0),{2e1},(0),(2),0,0)")
    twins = [
        (pi._replace(lam_left=(2.0, 0)), "lam halves must be nonnegative integers"),
        (pi._replace(zeta=True), r"zeta and xi must be \+-1"),
        (slots._replace(eps=(1.0, 1.0)), r"eps entries must be \+-1, got 1.0"),
    ]
    for twin, error in twins:
        assert twin in (pi, slots) and hash(twin) in (hash(pi), hash(slots))
        with pytest.raises(ParamError, match=f"^{error}$"):
            theta_n(twin, 2)
        with pytest.raises(ParamError, match=f"^{error}$"):
            first_occurrence(twin)
    with pytest.raises(ParamError, match="^lam entries must be integers$"):
        induct_n(base._replace(lam=(0.0,)), 3, 1, 1)
    bad = pi._replace(zeta=-1)
    for _ in range(2):
        with pytest.raises(ParamError, match="^zeta=-1 requires lam without zero entries$"):
            theta_n(bad, 2)
