import random

import pytest

from thetalift import ktypes
from thetalift.enumeration import _ALL_SIGS, _all_ofactors, _occurring_uktypes
from thetalift.ktypes import (
    OFactor,
    OKType,
    UKType,
    degree_o,
    degree_u,
    ktype_norm,
    o_from_u,
    parse_oktype,
    parse_uktype,
    phi_n,
    phi_pq,
    sigma_one_one,
    sigma_prime_add,
    u_from_o,
)
from thetalift.roots import OKind, SpKind, two_rho_c


def test_ofactor_canonical_sign():
    # O(even) with all entries positive: the two sign choices coincide
    assert OFactor.of(4, (2, 1), -1) == OFactor.of(4, (2, 1), 1)
    assert OFactor.of(4, (2, 0), -1).sign == -1
    assert OFactor.of(3, (2,), -1).sign == -1
    assert OFactor.of(0, (), -1).sign == 1
    with pytest.raises(ValueError):
        OFactor.of(4, (1, 2), 1)
    with pytest.raises(ValueError):
        OFactor.of(4, (1,), 1)


def test_ktype_text_forms():
    kt = OKType.of(4, 2, (2, 0), (0,), -1, -1)
    assert kt.render() == "(2,0;-1)x(0;-1)"
    assert parse_oktype("(2,0;-1)x(0;-1)", 4, 2) == kt
    assert parse_oktype("(2,0;-1) x (0;-1)", 4, 2) == kt
    assert OKType.of(0, 4, (), (2, 1), 1, 1).render() == "(;)x(2,1;+1)"
    assert parse_oktype("(;)x(2,1;1)", 0, 4) == OKType.of(0, 4, (), (2, 1), 1, 1)
    assert parse_uktype("(3,1,-2)") == UKType.of((3, 1, -2))
    assert UKType.of((3, 1, -2)).render() == "(3,1,-2)"


def test_norm_closed_forms():
    assert ktype_norm(UKType.of((2, 1, 0)), SpKind(3)) == 21
    assert ktype_norm(OKType.of(4, 2, (2, 0), (1,), 1, -1), OKind(2, 1)) == 17


def _norm_oracle(weights, kind):
    # |Lambda + 2 rho_c|^2 computed straight from the compact positives
    return sum(x * x for x in (w + t for w, t in zip(weights, two_rho_c(kind))))


def test_norm_matches_root_oracle():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        kind = SpKind(n)
        w = sorted((rng.randint(-4, 6) for _ in range(n)), reverse=True)
        t = UKType.of(w)
        assert ktype_norm(t, kind) == _norm_oracle(t.weights, kind)
    for _ in range(100):
        p0, q0 = rng.randint(0, 3), rng.randint(0, 3)
        odd = rng.random() < 0.5
        kind = OKind(p0, q0, odd=odd)
        p, q = 2 * p0 + (1 if odd else 0), 2 * q0 + (1 if odd else 0)
        left = sorted((rng.randint(0, 5) for _ in range(p0)), reverse=True)
        right = sorted((rng.randint(0, 5) for _ in range(q0)), reverse=True)
        t = OKType.of(p, q, left, right, 1, 1)
        assert ktype_norm(t, kind) == _norm_oracle(tuple(left) + tuple(right), kind)


def test_u_from_o_and_back():
    f = OFactor.of(4, (1, 0), -1)
    assert u_from_o(f) == UKType.of((1, 1, 1, 0))
    assert o_from_u(UKType.of((1, 1, 1, 0)), 4) == f
    assert o_from_u(UKType.of((2, 1, 0, 0)), 4) == OFactor.of(4, (2, 1), 1)
    assert o_from_u(UKType.of((2, 1, 1, 1)), 4) is None
    assert o_from_u(UKType.of((2, 2, 2, 0)), 4) is None
    assert o_from_u(UKType.of((1, 0, -1)), 3) is None
    # every O(p)-factor round-trips through its U(p) realization
    for p in range(0, 6):
        for f in _all_factors(p, 3):
            assert o_from_u(u_from_o(f), p) == f


def _all_factors(p, maxent):
    import itertools

    width = p // 2
    for entries in itertools.combinations_with_replacement(range(maxent, -1, -1), width):
        for sign in (1, -1):
            yield OFactor.of(p, entries, sign)


def test_degree():
    assert degree_o(OKType.of(2, 2, (0,), (0,), -1, -1), 2, 2) == 4
    for m in (1, 2, 5):
        assert degree_o(OKType.of(3, 1, (m,), (), -1, -1), 3, 1) == m + 2
    assert degree_u(UKType.of((2, 1, 0, 0)), 2) == 3
    assert degree_u(UKType.of((1, 1, -1, -1)), 0) == 4


def test_phi_n_examples():
    assert phi_n(OKType.of(2, 2, (0,), (0,), -1, -1), 2, 2, 4) == UKType.of((1, 1, -1, -1))
    assert phi_n(OKType.of(4, 0, (0, 0), (), -1, 1), 4, 0, 4) == UKType.of((3, 3, 3, 3))
    # occurrence fails when the degree exceeds n
    assert phi_n(OKType.of(2, 2, (0,), (0,), -1, -1), 2, 2, 3) is None


def test_phi_pq_examples():
    assert phi_pq(UKType.of((2, 2, 2, 0)), 3, 1) == OKType.of(3, 1, (0,), (), -1, -1)
    assert phi_pq(phi_n(OKType.of(2, 2, (0,), (0,), -1, -1), 2, 2, 4), 2, 2) == OKType.of(
        2, 2, (0,), (0,), -1, -1
    )


def test_phi_round_trip_small():
    import itertools

    sigs = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    for p, q in sigs:
        for kt in _all_oktypes(p, q, 3):
            for n in range(1, 5):
                lifted = phi_n(kt, p, q, n)
                if lifted is not None:
                    assert phi_pq(lifted, p, q) == kt
                    assert degree_u(lifted, p - q) == degree_o(kt, p, q)


def _all_oktypes(p, q, maxent):
    for lf in _all_factors(p, maxent):
        for rf in _all_factors(q, maxent):
            yield OKType(lf, rf)


def test_sigma_one_one():
    assert sigma_one_one(OKType.of(3, 1, (1,), (), -1, 1), 3, 1) == OKType.of(
        4, 2, (1, 1), (0,), 1, 1
    )
    assert sigma_one_one(OKType.of(2, 2, (1,), (0,), 1, -1), 2, 2) == OKType.of(
        3, 3, (1,), (1,), 1, -1
    )


def test_sigma_prime_add():
    assert sigma_prime_add(UKType.of((3, 1, -2)), 0) == UKType.of((3, 1, 0, -2))
    assert sigma_prime_add(UKType.of((3, 1)), 4) == UKType.of((4, 3, 1))


def _reference_phi_n(sigma, p, q, n):
    # phi_n with the U-transfer spelled out inline: a sign -1 factor adds
    # (p - 2x) ones after its x nonzero entries
    x, y = sigma.left.nonzero_count, sigma.right.nonzero_count
    c1 = (1 - sigma.left.sign) // 2 * (p - 2 * x)
    c2 = (1 - sigma.right.sign) // 2 * (q - 2 * y)
    mid = n - x - y - c1 - c2
    if mid < 0:
        return None
    h = (p - q) // 2
    body = (
        [e for e in sigma.left.entries if e != 0]
        + [1] * c1
        + [0] * mid
        + [-1] * c2
        + [-e for e in reversed(sigma.right.entries) if e != 0]
    )
    return UKType.of(a + h for a in body)


def _reference_sigma_one_one(sigma, p, q):
    # append (1-sign)/2 after the nonzero entries, then renormalize the signs
    def lift(factor):
        width = (factor.p + 1) // 2
        body = [e for e in factor.entries if e != 0] + [(1 - factor.sign) // 2]
        body += [0] * (factor.p // 2 + 1 - len(body))
        if any(body[width:]):
            raise AssertionError("sigma_one_one dropped a nonzero entry")
        return OFactor.of(factor.p + 1, body[:width], factor.sign)

    return OKType(lift(sigma.left), lift(sigma.right))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError as err:
        return AssertionError, str(err)


def test_transfer_forms_match_the_inline_references():
    """phi_n and sigma_one_one, built on the U(p) transfer, agree with
    their inline forms on every O(p) x O(q)-type with p, q <= 5 and entries
    <= 3, at every n <= 7; an AssertionError counts as an outcome too."""
    nones = occurs = 0
    for p in range(6):
        for q in range(6):
            for kt in _all_oktypes(p, q, 3):
                want = _outcome(_reference_sigma_one_one, kt, p, q)
                assert _outcome(sigma_one_one, kt, p, q) == want, kt.render()
                for n in range(8):
                    want = _reference_phi_n(kt, p, q, n)
                    assert phi_n(kt, p, q, n) == want, (kt.render(), n)
                    nones += want is None
                    occurs += want is not None
    assert nones > 0 and occurs > 0


def test_cached_phi_maps_equal_their_originals(monkeypatch):
    """The bounded caches of phi_n and phi_pq return what the uncached
    functions return on every argument the joint-harmonics round trip of
    ``verify`` gives them: phi_n on every sample O-factor pair and phi_pq on
    every occurring U-type, ranks 0..5, each image mapped back."""
    seen = {phi_n: set(), phi_pq: set()}

    def recorded(cached):
        def call(*args):
            seen[cached].add(args)
            return cached(*args)

        return call

    for cached in seen:
        monkeypatch.setattr(ktypes, cached.__name__, recorded(cached))
    for p, q in _ALL_SIGS:
        for n in range(6):
            for left in _all_ofactors(p, 6):
                for right in _all_ofactors(q, 6):
                    prime = ktypes.phi_n(OKType(left, right), p, q, n)
                    if prime is not None:
                        ktypes.phi_pq(prime, p, q)
            for prime in _occurring_uktypes(n, p, q, 6):
                ktypes.phi_n(ktypes.phi_pq(prime, p, q), p, q, n)
    monkeypatch.undo()
    assert len(seen[phi_n]) == 1140 and len(seen[phi_pq]) == 760
    for cached, calls in seen.items():
        for args in calls:
            assert cached(*args) == cached.__wrapped__(*args), (cached.__name__, args)


def test_failing_phi_call_raises_every_time():
    """A call that raises leaves nothing in phi's memo: a signature
    mismatch raises on every call."""
    sigma = OKType.of(2, 2, (0,), (0,), -1, -1)
    misses = phi_n.cache_info().misses, phi_pq.cache_info().misses
    for _ in range(3):
        with pytest.raises(ValueError, match="signature mismatch"):
            phi_n(sigma, 3, 1, 4)
        with pytest.raises(ValueError, match="p - q must be even"):
            phi_pq(UKType.of((1, 0)), 2, 1)
    assert (phi_n.cache_info().misses, phi_pq.cache_info().misses) == (misses[0] + 3, misses[1] + 3)
