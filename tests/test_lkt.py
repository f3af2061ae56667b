import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from thetalift.enumeration import enumerate_o_reps, enumerate_sp_reps
from thetalift.exact import GENERIC_B, InfChar, Scalar, parse_infchar
from thetalift.ktypes import OKType, UKType, sigma_one_one
from thetalift.langlands import (
    _checked_o,
    _checked_sp,
    _validate_psi,
    OParams,
    SpParams,
    det_o,
    parse_o,
    parse_sp,
    render_o,
    render_sp,
    swap_pq,
    tensor_det_o,
    trivial_o,
    validate_sp,
)
from thetalift.lkt import (
    _pos_value_data,
    _sign_pairs,
    _sp_lowest,
    lowest_ktypes_o,
    lowest_ktypes_sp,
    multiplicity_o31,
)
from thetalift.roots import (
    OKind,
    PositiveSystem,
    SpKind,
    pair_root,
    rho_shift,
    twice_rho_shift,
)
from thetalift.theta import ThetaError, first_occurrence, induct_pq, matching_rows, theta_n


def test_one_dimensionals_have_one_dimensional_lkt():
    for p, q in [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
        assert lowest_ktypes_o(trivial_o(p, q)) == (
            OKType.of(p, q, (0,) * (p // 2), (0,) * (q // 2), 1, 1),
        )
        dets = lowest_ktypes_o(det_o(p, q))
        assert dets == (OKType.of(p, q, (0,) * (p // 2), (0,) * (q // 2), -1, -1),)


def test_lkt_o22_discrete_series():
    x = parse_o("pi_{1}((3;1),1,{e1+f1,e1-f1},0,0,0,0) @ O(2,2)")
    assert lowest_ktypes_o(x) == (OKType.of(2, 2, (4,), (1,), 1, 1),)
    y = parse_o("pi_{1}((1;3),1,{e1+f1,-e1+f1},0,0,0,0) @ O(2,2)")
    assert lowest_ktypes_o(y) == (OKType.of(2, 2, (1,), (4,), 1, 1),)


def test_lkt_o31_zeta_minus():
    for m in (1, 2, 5):
        x = parse_o(f"pi_{{-1}}(({m};),1,{{}},0,0,(1),(0)) @ O(3,1)")
        assert lowest_ktypes_o(x) == (OKType.of(3, 1, (m,), (), -1, -1),)


def test_lkt_o31_xi_minus():
    x = parse_o("pi_{1}((0;),-1,{},0,0,(-1),(b)) @ O(3,1)")
    assert lowest_ktypes_o(x) == (OKType.of(3, 1, (0,), (), -1, 1),)
    # same parameter seen through O(1,3)
    y = swap_pq(x)
    assert lowest_ktypes_o(y) == (OKType.of(1, 3, (), (0,), 1, -1),)


def test_lkt_sp_spherical_split():
    base = SpParams((), PositiveSystem.of(SpKind(0), ()), (1,), (GENERIC_B,), (), ())
    plus = SpParams(
        (), PositiveSystem.of(SpKind(0), ()), (1,), (GENERIC_B,), (1,), (GENERIC_B,)
    )
    minus = SpParams(
        (), PositiveSystem.of(SpKind(0), ()), (1,), (GENERIC_B,), (-1,), (GENERIC_B,)
    )
    assert lowest_ktypes_sp(base) == (UKType.of((1, -1)),)
    assert lowest_ktypes_sp(plus) == (UKType.of((1, 0, -1)),)
    assert lowest_ktypes_sp(minus) == (UKType.of((1, -1, -1)), UKType.of((1, 1, -1)))


def test_lkt_sp_discrete_series():
    x = parse_sp("pi((2,1),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)")
    assert lowest_ktypes_sp(x) == (UKType.of((3, 3)),)
    y = parse_sp("pi((0),{2e1},0,0,(-1),(1))")
    assert lowest_ktypes_sp(y) == (UKType.of((1, 1)),)
    z = parse_sp("pi((0),{-2e1},0,0,(-1),(1))")
    assert lowest_ktypes_sp(z) == (UKType.of((-1, -1)),)


def test_lkt_tensor_det_flips_signs():
    """pi (x) det has the sign-flipped lowest K-types, which pins down the
    parameter-level det twist."""
    for x in [
        trivial_o(2, 2),
        parse_o("pi_{1}((3;1),1,{e1+f1,e1-f1},0,0,0,0) @ O(2,2)"),
        parse_o("pi_{-1}((1;),1,{},0,0,(1),(0)) @ O(3,1)"),
    ]:
        flipped = {
            OKType.of(t.p, t.q, t.left.entries, t.right.entries, -t.left.sign, -t.right.sign)
            for t in lowest_ktypes_o(x)
        }
        assert set(lowest_ktypes_o(tensor_det_o(x))) == flipped


def test_multiplicity_o31():
    assert multiplicity_o31(OKType.of(3, 1, (1,), (), -1, 1), sign_variant=False) == 1
    assert multiplicity_o31(OKType.of(3, 1, (1,), (), -1, -1), sign_variant=False) == 0
    assert multiplicity_o31(OKType.of(3, 1, (0,), (), -1, -1), sign_variant=False) == 1
    assert multiplicity_o31(OKType.of(3, 1, (1,), (), -1, -1), sign_variant=True) == 1
    assert multiplicity_o31(OKType.of(3, 1, (0,), (), 1, -1), sign_variant=True) == 0
    with pytest.raises(ValueError):
        multiplicity_o31(OKType.of(2, 2, (0,), (0,), 1, 1), sign_variant=False)


def test_signature_raising_induction_adds_a_harmonic_variable_to_each_side():
    """For every pool parameter pi and rank n <= 6 with a nonzero lift that
    induct_pq accepts, the lowest K-types of induct_pq(pi, n, 1) are
    sigma_one_one of those of pi."""
    cases = 0
    for pi in _o_pool():
        want = {sigma_one_one(s, pi.p, pi.q) for s in lowest_ktypes_o(pi)}
        for n in range(7):
            if theta_n(pi, n).is_zero:
                continue
            try:
                up = induct_pq(pi, n, 1)
            except ThetaError:
                continue
            cases += 1
            assert set(lowest_ktypes_o(up)) == want, f"{render_o(pi)} at n={n}"
    assert cases == 310


def test_lowest_ktypes_commute_with_the_swap_when_the_discrete_datum_has_a_zero():
    """Every O(p,q), p+q=6, parameter on the character grid {0,1,2,1/2,b}
    with a zero in its discrete datum: swap_pq swaps the factors of each
    lowest K-type, whether the zero is on one side or both."""
    grid = [Scalar.of(x) for x in (0, 1, 2, Fraction(1, 2))] + [GENERIC_B]
    checked = 0
    for p in range(7):
        for triple in combinations_with_replacement(grid, 3):
            for pi in enumerate_o_reps(p, 6 - p, InfChar.of(triple)):
                if 0 not in pi.lam_left + pi.lam_right:
                    continue
                checked += 1
                swapped = {OKType(k.right, k.left) for k in lowest_ktypes_o(pi)}
                assert set(lowest_ktypes_o(swap_pq(pi))) == swapped, render_o(pi)
    assert checked == 488


# SHA-256 of the rendered ``params lkts`` lines below.  Any change to a
# lowest-K-type, enumeration or rendering rule moves it.
CENSUS_LKT_SHA256 = "0989d8b0248189d4877f2bbc8bbfd6d5ccd92bb3316a4bf7d8039ad204891cb4"


def _census_lkt_lines(before_each=lambda: None) -> list[str]:
    """The pinned lines; ``before_each`` runs before each member's lowest
    K-types."""
    grid = [Scalar.of(x) for x in (0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2))] + [GENERIC_B]
    chis = sorted(
        {InfChar.of(pair) for pair in combinations_with_replacement(grid, 2)},
        key=lambda c: c.entries,
    )
    lines = []
    for p, q in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)):
        for chi in chis:
            for pi in enumerate_o_reps(p, q, chi):
                before_each()
                kts = ",".join(k.render() for k in lowest_ktypes_o(pi))
                lines.append(f"{render_o(pi)} {kts}")
    for text in ("(0,1,2,3)", "(b,0,1,2)", "(1/2,3/2,1,2)", "(1,1,2,2)"):
        for pi in enumerate_sp_reps(4, parse_infchar(text)):
            before_each()
            kts = ",".join(k.render() for k in lowest_ktypes_sp(pi))
            lines.append(f"{render_sp(pi)} {kts}")
    return lines


def _clear_census_caches():
    """Empty the caches that hold per-datum census work."""
    for cached in (_validate_psi, twice_rho_shift, _sp_lowest):
        cached.cache_clear()


def _census_lkt_digest(before_each=lambda: None) -> str:
    lines = _census_lkt_lines(before_each)
    assert len(lines) == 341 + 666
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_census_lowest_ktypes_are_pinned():
    """Every O(p,q), p+q=4, parameter over the pair grid of {0,1,2,3,1/2,3/2,b}
    and every member of four rank-4 Sp censuses keeps its lowest K-types."""
    assert _census_lkt_digest() == CENSUS_LKT_SHA256


def test_census_lowest_ktypes_are_pinned_with_caches_cleared():
    """The same lines with the per-datum caches emptied before each member."""
    assert _census_lkt_digest(_clear_census_caches) == CENSUS_LKT_SHA256


# SHA-256 of one line per lift-pool parameter: its text, its first
# occurrence and theta_0 ... theta_6.  Any change to a lift, an occurrence,
# the O census or rendering moves it.
POOL_ANSWERS_SHA256 = "883251d5f722b5c532051561a05cb1f05b7a4ffce73aac9c5463b09e7a4a310c"


def _pool_answers_digest(lift_pool, before_each=lambda: None) -> str:
    def cold(query, *args):
        before_each()
        return query(*args)

    lines = []
    for pi in lift_pool:
        lifts = " ".join(cold(theta_n, pi, n).render() for n in range(7))
        lines.append(f"{render_o(pi)} {cold(first_occurrence, pi)} {lifts}")
    assert len(lines) == 341
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _clear_value_memos():
    """Empty the memos of checked_sp, checked_o and matching_rows."""
    _checked_sp.cache_clear()
    _checked_o.cache_clear()
    matching_rows.cache_clear()


def test_pool_answers_are_pinned(lift_pool):
    """Every O(p,q), p+q=4, parameter over the pair grid of
    {0,1,2,3,1/2,3/2,b}, in text order, keeps its first occurrence and its
    lifts to ranks 0-6."""
    assert _pool_answers_digest(lift_pool) == POOL_ANSWERS_SHA256


def test_pool_answers_are_pinned_with_value_memos_cleared(lift_pool):
    """The same answers when every ``theta_n`` and ``first_occurrence``
    call starts from empty value memos."""
    assert _pool_answers_digest(lift_pool, _clear_value_memos) == POOL_ANSWERS_SHA256


def test_rank_five_census_is_the_same_with_caches_cleared():
    """With the per-datum caches emptied before each member of the rank-5
    census at (0,...,4), every member still validates and gets the lowest
    K-types that warm caches give."""
    reps = enumerate_sp_reps(5, InfChar.of([0, 1, 2, 3, 4]))
    assert len(reps) == 1732
    warm = [lowest_ktypes_sp(pi) for pi in reps]
    assert [lowest_ktypes_sp(pi) for pi in reps] == warm
    for pi, want in zip(reps, warm):
        _clear_census_caches()
        validate_sp(pi)
        _clear_census_caches()
        assert lowest_ktypes_sp(pi) == want, render_sp(pi)


def test_rank_five_census_assembles_each_lowest_ktype_key_once():
    """Over the rank-5 census at (0,...,4), the lowest K-types are assembled
    once per distinct (lam, mu, t, Psi, h_eps), and the rho shift once per
    distinct 2*lambda_a (326), not once per distinct (lam, mu, t) (515)."""
    reps = enumerate_sp_reps(5, InfChar.of([0, 1, 2, 3, 4]))
    assert len(reps) == 1732
    _clear_census_caches()
    for pi in reps:
        lowest_ktypes_sp(pi)
    assert len({(pi.lam, pi.mu, pi.t) for pi in reps}) == 515

    def lam2(pi):
        return tuple(sorted([2 * x for x in pi.lam] + list(pi.mu) + [0] * pi.t + [-m for m in pi.mu]))

    assert len({lam2(pi) for pi in reps}) == 326
    assert twice_rho_shift.cache_info().misses == 326

    def key(pi):
        u_minus_r = sum(1 for x in pi.lam if x > 0) - sum(1 for x in pi.lam if x < 0)
        h_eps = sum(1 for e in pi.eps if e == (-1) ** (u_minus_r + 1))
        return pi.lam, pi.mu, pi.t, pi.psi, h_eps

    assert len({key(pi) for pi in reps}) == 1296
    info = _sp_lowest.cache_info()
    assert (info.misses, info.hits) == (1296, 1732 - 1296)


def test_pool_lowest_ktypes_compute_each_rho_shift_once(lift_pool):
    """The lowest K-types of the 341 pool parameters read the rho shift
    through the memo the symplectic side uses: 39 computed, one per
    distinct (2*lambda_a, kind)."""
    assert len(lift_pool) == 341
    twice_rho_shift.cache_clear()
    for pi in lift_pool:
        lowest_ktypes_o(pi)
    info = twice_rho_shift.cache_info()
    assert (info.misses, info.hits) == (39, 341 - 39)


# -- doubled integers against the Fraction computation ---------------------------
#
# ``lkt`` works on 2*lambda_a as integers.  The reference below is the same
# computation in Fractions: lambda_a itself, the Fraction ``rho_shift``,
# delta_L in {0, +-1/2} and eta in {0, +-1}.


def _ref_block_values(vec):
    return sorted({abs(x) for x in vec if x != 0}, reverse=True)


def _ref_delta_options(lam_a, base, avals, psi, block_root):
    alphas = _ref_block_values(lam_a)
    options = []
    for al in alphas:
        idx = lam_a.index(al) if al in lam_a else lam_a.index(-al)
        if base[idx].denominator == 1:
            options.append([Fraction(0)])
        elif al in avals:
            sign = 1 if psi.contains(block_root(avals.index(al))) else -1
            options.append([Fraction(sign, 2)])
        else:
            options.append([Fraction(1, 2), Fraction(-1, 2)])
    return [dict(zip(alphas, combo)) for combo in product(*options)]


def _ref_assemble_half(lam_a_half, base_half, by_value, eta, orient):
    assert len(eta) == lam_a_half.count(0)
    entries, zi = [], 0
    for val, b in zip(lam_a_half, base_half):
        if val != 0:
            delta = by_value[abs(val)]
            entries.append(b + delta if orient > 0 else b - delta)
        else:
            entries.append(b + eta[zi])
            zi += 1
    assert all(x.denominator == 1 for x in entries)
    return [int(x) for x in entries]


def reference_lowest_ktypes_sp(params):
    lam, mu = params.lam, params.mu
    v, t, n = params.v, params.t, params.n
    half_mus = [Fraction(m, 2) for m in mu]
    lam_a = sorted(
        [Fraction(x) for x in lam] + half_mus + [Fraction(0)] * t + [-h for h in half_mus],
        reverse=True,
    )
    base = [x + s for x, s in zip(lam_a, rho_shift(lam_a, SpKind(n)))]
    w = lam_a.count(0)
    u_minus_r = sum(1 for x in lam if x > 0) - sum(1 for x in lam if x < 0)
    avals, ktil, ltil = _pos_value_data(lam)
    k, z = (ktil[-1] if ktil else 0), lam.count(0)
    by_values = _ref_delta_options(
        lam_a,
        base,
        avals,
        params.psi,
        lambda j: pair_root(ktil[j - 1] if j > 0 else 0, v - ltil[j], 1, 1),
    )
    h = (
        sum(1 for e in params.eps if e == (-1) ** (u_minus_r + 1))
        + sum(1 for m in mu if m == 0)
        + (z + 1) // 2
    )
    first = [Fraction(1)] * h + [Fraction(0)] * (w - h)
    second = [Fraction(0)] * (w - h) + [Fraction(-1)] * h
    if z == 0:
        etas = [first] if first == second else [first, second]
    else:
        etas = [first] if params.psi.contains(pair_root(k, k + z - 1, 1, 1)) else [second]
    out = {
        UKType.of(tuple(_ref_assemble_half(lam_a, base, by_value, eta, +1)))
        for by_value in by_values
        for eta in etas
    }
    return tuple(sorted(out, key=lambda kt: kt.weights))


def reference_lowest_ktypes_o(params):
    p, q = params.p, params.q
    p0, q0 = p // 2, q // 2
    kind = OKind(p0, q0, odd=p % 2 == 1)
    left_d, right_d = params.lam_left, params.lam_right
    a, d = len(left_d), len(right_d)
    z, z2 = left_d.count(0), right_d.count(0)
    mu = params.mu
    half_mus = [Fraction(m, 2) for m in mu]
    pad = [Fraction(0)] * (params.t // 2)
    lam_a_left = sorted([Fraction(x) for x in left_d] + half_mus + pad, reverse=True)
    lam_a_right = sorted([Fraction(x) for x in right_d] + half_mus + pad, reverse=True)
    vec = lam_a_left + lam_a_right
    base = [x + s for x, s in zip(vec, rho_shift(vec, kind))]
    base_left, base_right = base[:p0], base[p0:]
    x_zeros, y_zeros = lam_a_left.count(0), lam_a_right.count(0)
    avals, ktil, ltil = _pos_value_data(left_d + tuple(-x for x in right_d))
    by_values = _ref_delta_options(
        vec,
        base,
        avals,
        params.psi,
        lambda j: pair_root(ktil[j] - 1, a + ltil[j] - 1, 1, -1),
    )
    beta_count = sum(1 for e in params.eps if e == 1)
    gamma_count = sum(1 for e in params.eps if e == -1)
    h = min(z, z2) + sum(1 for m in mu if m == 0) + min(beta_count, gamma_count)
    form1 = ([Fraction(1)] * h + [Fraction(0)] * (x_zeros - h), [Fraction(0)] * y_zeros)
    form2 = ([Fraction(0)] * x_zeros, [Fraction(1)] * h + [Fraction(0)] * (y_zeros - h))
    if z + z2 == 0:
        eta_forms = [form1] if form1 == form2 else [form1, form2]
    elif a == 0:
        eta_forms = [form1]
    elif d == 0:
        eta_forms = [form2]
    else:
        root = pair_root(a - 1, a + d - 1, 1, -1)
        eta_forms = [form1] if params.psi.contains(root) else [form2]
    zero_pairs = any(k.is_zero for k in params.kappa)
    out = set()
    for by_value in by_values:
        for eta_left, eta_right in eta_forms:
            lft = _ref_assemble_half(lam_a_left, base_left, by_value, eta_left, +1)
            rgt = _ref_assemble_half(lam_a_right, base_right, by_value, eta_right, -1)
            for s1, s2 in _sign_pairs(
                params, z + z2, beta_count, gamma_count, zero_pairs, lft, rgt
            ):
                out.add(OKType.of(p, q, tuple(lft), tuple(rgt), s1, s2))
    return tuple(
        sorted(out, key=lambda kt: (kt.left.entries, kt.left.sign, kt.right.entries, kt.right.sign))
    )


@pytest.mark.parametrize("text", ["(0,1,2,3,4)", "(1/2,3/2,5/2,7/2,9/2)", "(b,0,1,2,3)"])
def test_integer_lkt_matches_fraction_reference_on_rank_five_census(text):
    reps = enumerate_sp_reps(5, parse_infchar(text))
    assert reps
    for pi in reps:
        assert lowest_ktypes_sp(pi) == reference_lowest_ktypes_sp(pi), render_sp(pi)


def _o_pool() -> list[OParams]:
    """Every O(p,q), p+q=4, parameter whose infinitesimal character is a
    pair from {0,1,2,3,1/2,3/2,b}."""
    grid = [Scalar.of(x) for x in (0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2))] + [GENERIC_B]
    chis = {InfChar.of(pair) for pair in combinations_with_replacement(grid, 2)}
    pool = [
        pi
        for p, q in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
        for chi in chis
        for pi in enumerate_o_reps(p, q, chi)
    ]
    assert len(pool) == 341
    return pool


def test_integer_lkt_matches_fraction_reference_on_the_o_pool():
    for pi in _o_pool():
        assert lowest_ktypes_o(pi) == reference_lowest_ktypes_o(pi), render_o(pi)
