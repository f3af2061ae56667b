"""Property-based tests for the exact-arithmetic layer, the K-type
combinatorics, and the parameter enumeration invariants."""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_roots import dense
from thetalift.enumeration import enumerate_sp_reps
from thetalift.exact import (
    GENERIC_B,
    InfChar,
    Scalar,
    parse_infchar,
    parse_scalar,
)
from thetalift.ktypes import (
    OFactor,
    OKType,
    UKType,
    degree_o,
    degree_u,
    ktype_norm,
    parse_oktype,
    parse_uktype,
    phi_n,
    phi_pq,
)
from thetalift.langlands import canonicalize_sp, infchar_sp, parse_sp, render_sp
from thetalift.roots import OKind, SpKind, delta_c_plus

fractions = st.fractions(min_value=Q(-6), max_value=Q(6), max_denominator=4)
scalars = st.builds(Scalar, re=fractions, im=fractions, bre=fractions, bim=fractions)
concrete_scalars = st.builds(Scalar, re=fractions, im=fractions)
symbolic_scalars = st.builds(
    Scalar, re=fractions, im=fractions, bre=fractions.filter(lambda x: x != 0), bim=fractions
)


# -- scalar arithmetic ---------------------------------------------------------


@given(scalars, scalars, scalars)
def test_scalar_addition_group_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + Scalar.of(0) == a
    assert (a + (-a)).is_zero
    assert a - b == -(b - a)


@given(scalars, scalars, fractions)
def test_scalar_scaling_is_linear(a, b, c):
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)
    assert a.scale(1) == a
    assert a.scale(-1) == -a
    assert a.scale(0).is_zero
    assert a.half() + a.half() == a


@given(scalars, scalars, scalars)
def test_substitution_is_linear_and_composes(a, b, v):
    assert a.substitute(GENERIC_B) == a
    assert (a + b).substitute(v) == a.substitute(v) + b.substitute(v)
    if v.is_concrete:
        assert a.substitute(v).is_concrete


@given(scalars, scalars, concrete_scalars)
def test_substitution_is_a_monoid_action(a, u, v):
    assert a.substitute(u).substitute(v) == a.substitute(u.substitute(v))


@given(symbolic_scalars)
def test_symbolic_scalars_fail_every_specialness_predicate(s):
    assert not s.is_concrete
    assert not s.is_integer()
    assert not s.is_even()
    assert not s.is_odd()
    with pytest.raises(ValueError):
        s.as_fraction()


@given(fractions)
def test_integrality_predicates_are_coherent(x):
    s = Scalar.of(x)
    assert s.as_fraction() == x
    assert s.is_integer() == (x.denominator == 1)
    if s.is_integer():
        assert s.is_even() != s.is_odd()
    else:
        assert not s.is_even() and not s.is_odd()


@given(scalars)
def test_sign_normalization_is_canonical(s):
    ns = s.normalized_sign()
    assert ns in (s, -s)
    assert ns == (-s).normalized_sign()
    assert ns == ns.normalized_sign()
    assert ns >= -ns


@given(scalars)
def test_scalar_render_parse_round_trip(s):
    assert parse_scalar(s.render()) == s


# -- infinitesimal characters ----------------------------------------------------


@st.composite
def infchar_inputs(draw):
    xs = draw(st.lists(scalars, min_size=0, max_size=5))
    perm = draw(st.permutations(xs))
    signs = [draw(st.sampled_from((1, -1))) for _ in xs]
    return xs, perm, signs


@given(infchar_inputs())
def test_infchar_is_invariant_under_permutation_and_signs(inputs):
    xs, perm, signs = inputs
    chi = InfChar.of(xs)
    assert chi == InfChar.of(perm)
    assert chi == InfChar.of([x.scale(s) for x, s in zip(xs, signs)])
    assert parse_infchar(chi.render()) == chi


@given(st.lists(scalars, max_size=4), st.lists(scalars, max_size=4))
def test_infchar_extension_agrees_with_concatenation(xs, ys):
    assert InfChar.of(xs).extended(ys) == InfChar.of(xs + ys)


# -- K-types ---------------------------------------------------------------------


def _oracle_norm(weights, kind):
    dim = kind.dim if isinstance(kind, OKind) else kind.rank
    rho = [0] * dim
    for root in delta_c_plus(kind):
        rho = [r + c for r, c in zip(rho, dense(root, dim))]
    return sum((int(w) + int(r)) ** 2 for w, r in zip(weights, rho))


@given(st.lists(st.integers(-6, 6), max_size=6))
def test_u_type_norm_matches_root_oracle(raw):
    t = UKType.of(sorted(raw, reverse=True))
    assert parse_uktype(t.render()) == t
    assert ktype_norm(t, SpKind(t.n)) == _oracle_norm(t.weights, SpKind(t.n))


@st.composite
def oktypes(draw):
    p = draw(st.integers(0, 5))
    q = draw(st.integers(0, 5))
    if (p + q) % 2 != 0:
        q += 1
    left = sorted((draw(st.integers(0, 6)) for _ in range(p // 2)), reverse=True)
    right = sorted((draw(st.integers(0, 6)) for _ in range(q // 2)), reverse=True)
    eps = draw(st.sampled_from((1, -1)))
    eta = draw(st.sampled_from((1, -1)))
    return OKType.of(p, q, left, right, eps, eta)


@given(oktypes())
def test_o_type_norm_matches_root_oracle(sigma):
    p, q = sigma.p, sigma.q
    kind = OKind(p // 2, q // 2, p % 2 == 1)
    assert parse_oktype(sigma.render(), p, q) == sigma
    weights = sigma.left.entries + sigma.right.entries
    assert ktype_norm(sigma, kind) == _oracle_norm(weights, kind)


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=6))
def test_u_type_constructor_rejects_unsorted_weights(raw):
    assume(tuple(raw) != tuple(sorted(raw, reverse=True)))
    with pytest.raises(ValueError):
        UKType.of(raw)


@given(oktypes().filter(lambda s: (s.p, s.q) in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))),
       st.integers(0, 5))
def test_joint_harmonics_round_trip_preserves_degree(sigma, n):
    p, q = sigma.p, sigma.q
    prime = phi_n(sigma, p, q, n)
    assume(prime is not None)
    assert phi_pq(prime, p, q) == sigma
    assert degree_u(prime, p - q) == degree_o(sigma, p, q)


# -- enumeration invariants --------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from((0, 1, 2, 5, Q(1, 2), Q(3, 2), "generic")), min_size=2, max_size=2))
def test_rank_two_census_is_canonical_and_round_trips(entries):
    chi = InfChar.of([GENERIC_B if e == "generic" else Scalar.of(e) for e in entries])
    reps = enumerate_sp_reps(2, chi)
    assert len(set(reps)) == len(reps)
    for pi in reps:
        assert canonicalize_sp(pi) == pi
        assert infchar_sp(pi) == chi
        assert parse_sp(render_sp(pi)) == pi
