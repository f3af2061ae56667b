"""Lowest K-types of Sp(2n,R) and O(p,q) representations.

Both computations share one skeleton: build the A-parameter lambda_a by
merging the discrete datum with mu/2 contributions, shift it by
rho(u cap p) - rho(u cap k) for the theta-stable parabolic determined by
lambda_a, enumerate the small corrections delta_L allowed on each block
(``_delta_options``; only the root deciding the sign of a discrete block
differs between the sides), and add them back entry by entry
(``_assemble_half``).  The shift is computed by direct enumeration of the
roots pairing positively with lambda_a; this agrees with the closed block
formulas on the symplectic side and is taken as the definition on the
orthogonal side.

Each side keeps its own eta forms on the zero entries.  For O(p,q) a
lowest K-type also carries a sign on each factor; the sign assignment
depends on zeta, xi and the shape of the continuous data.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable

from .ktypes import OKType, UKType
from .langlands import OParams, SpParams
from .roots import OKind, PositiveSystem, Root, SpKind, pair_root, rho_shift


def _block_values(vec: list[Fraction]) -> list[Fraction]:
    return sorted({abs(x) for x in vec if x != 0}, reverse=True)


def _pos_value_data(entries: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Distinct positive magnitudes of the discrete datum with cumulative
    counts of the positive (k-tilde) and negative (l-tilde) entries."""
    vals = sorted({abs(x) for x in entries if x != 0}, reverse=True)
    ktil, ltil, kc, lc = [], [], 0, 0
    for a in vals:
        kc += entries.count(a)
        lc += entries.count(-a)
        ktil.append(kc)
        ltil.append(lc)
    return vals, ktil, ltil


def _delta_options(
    lam_a: list[Fraction],
    base: list[Fraction],
    avals: list[int],
    psi: PositiveSystem,
    block_root: Callable[[int], Root],
) -> list[dict[Fraction, Fraction]]:
    """Every choice of the correction delta_L on the blocks of ``lam_a``,
    as a map from block value to delta.

    A block whose shifted entry is already integral takes 0.  A half-integral
    block carrying the j-th discrete value ``avals[j]`` takes +-1/2 by whether
    Psi contains ``block_root(j)``; any other half-integral block takes both.
    """
    alphas = _block_values(lam_a)
    options: list[list[Fraction]] = []
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


def _assemble_half(
    lam_a_half: list[Fraction],
    base_half: list[Fraction],
    by_value: dict[Fraction, Fraction],
    eta: list[Fraction],
    orient: int,
) -> list[int]:
    """The shifted entries plus delta_L (times ``orient``) on the blocks and
    ``eta`` on the zero entries, in order; ``eta`` must fit the zero block."""
    if len(eta) != lam_a_half.count(0):
        raise AssertionError("eta block overflow")
    entries, zi = [], 0
    for val, b in zip(lam_a_half, base_half):
        if val != 0:
            delta = by_value[abs(val)]
            entries.append(b + delta if orient > 0 else b - delta)
        else:
            entries.append(b + eta[zi])
            zi += 1
    for x in entries:
        if x.denominator != 1:
            raise AssertionError(f"lowest K-type has a non-integral entry {x}")
    return [int(x) for x in entries]


def lowest_ktypes_sp(params: SpParams) -> tuple[UKType, ...]:
    """Lowest K-types (U(n) highest weights) of a symplectic parameter."""
    lam, mu = params.lam, params.mu
    v, t, n = params.v, params.t, params.n
    kind = SpKind(n)
    half_mus = [Fraction(m, 2) for m in mu]
    lam_a = sorted(
        [Fraction(x) for x in lam] + half_mus + [Fraction(0)] * t + [-h for h in half_mus],
        reverse=True,
    )
    shift = rho_shift(lam_a, kind)
    base = [x + s for x, s in zip(lam_a, shift)]

    w = lam_a.count(0)
    # positive minus negative entries of lam_a; the +-mu/2 pairs cancel
    u_minus_r = sum(1 for x in lam if x > 0) - sum(1 for x in lam if x < 0)
    avals, ktil, ltil = _pos_value_data(lam)
    k, z = (ktil[-1] if ktil else 0), lam.count(0)
    by_values = _delta_options(
        lam_a,
        base,
        avals,
        params.psi,
        lambda j: pair_root(v, ktil[j - 1] if j > 0 else 0, v - ltil[j], 1, 1),
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
        etas = [first] if params.psi.contains(pair_root(v, k, k + z - 1, 1, 1)) else [second]

    out = {
        UKType.of(tuple(_assemble_half(lam_a, base, by_value, eta, +1)))
        for by_value in by_values
        for eta in etas
    }
    return tuple(sorted(out, key=lambda kt: kt.weights))


def lowest_ktypes_o(params: OParams) -> tuple[OKType, ...]:
    """Lowest K-types (O(p) x O(q) parameters) of an orthogonal parameter."""
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
    shift = rho_shift(vec, kind)
    base = [x + s for x, s in zip(vec, shift)]
    base_left, base_right = base[:p0], base[p0:]

    x_zeros, y_zeros = lam_a_left.count(0), lam_a_right.count(0)
    avals, ktil, ltil = _pos_value_data(left_d + tuple(-x for x in right_d))
    by_values = _delta_options(
        vec,
        base,
        avals,
        params.psi,
        lambda j: pair_root(a + d, ktil[j] - 1, a + ltil[j] - 1, 1, -1),
    )

    beta_count = sum(1 for e in params.eps if e == 1)
    gamma_count = sum(1 for e in params.eps if e == -1)
    h = min(z, z2) + sum(1 for m in mu if m == 0) + min(beta_count, gamma_count)
    form1 = ([Fraction(1)] * h + [Fraction(0)] * (x_zeros - h), [Fraction(0)] * y_zeros)
    form2 = ([Fraction(0)] * x_zeros, [Fraction(1)] * h + [Fraction(0)] * (y_zeros - h))
    if z + z2 == 0:
        eta_forms = [form1] if form1 == form2 else [form1, form2]
    elif a == 0 or d == 0:
        eta_forms = [form2]
    else:
        root = pair_root(a + d, a - 1, a + d - 1, 1, -1)
        eta_forms = [form1] if params.psi.contains(root) else [form2]

    zero_pairs = any(k.is_zero for k in params.kappa)
    out = set()
    for by_value in by_values:
        for eta_left, eta_right in eta_forms:
            lft = _assemble_half(lam_a_left, base_left, by_value, eta_left, +1)
            rgt = _assemble_half(lam_a_right, base_right, by_value, eta_right, -1)
            for s1, s2 in _sign_pairs(
                params, z + z2, beta_count, gamma_count, zero_pairs, lft, rgt
            ):
                out.add(OKType.of(p, q, tuple(lft), tuple(rgt), s1, s2))
    return tuple(
        sorted(out, key=lambda kt: (kt.left.entries, kt.left.sign, kt.right.entries, kt.right.sign))
    )


def _sign_pairs(
    params: OParams,
    total_zeros: int,
    beta_count: int,
    gamma_count: int,
    zero_pairs: bool,
    lft: list[int],
    rgt: list[int],
) -> list[tuple[int, int]]:
    zeta, xi = params.zeta, params.xi
    more_left = lft.count(0) > rgt.count(0)
    if total_zeros == 0:
        if not zero_pairs:
            if beta_count >= gamma_count:
                return [(1, 1), (-1, -1)]
            return [(1, -1), (-1, 1)]
        plus_slot = any(
            e == 1 and kp.is_zero for e, kp in zip(params.eps, params.kappa)
        )
        if plus_slot:
            if beta_count >= gamma_count:
                return [(zeta, zeta)]
            return [(zeta, -zeta)] if more_left else [(-zeta, zeta)]
        if beta_count >= gamma_count:
            return [(zeta, zeta)] if more_left else [(-zeta, -zeta)]
        return [(zeta, -zeta)]
    if beta_count >= gamma_count:
        return [(xi, xi)]
    return [(xi, -xi)] if more_left else [(-xi, xi)]


def multiplicity_o31(ktype: OKType, sign_variant: bool) -> int:
    """K-type multiplicity in the two degenerate principal series of O(3,1)
    induced from the parabolic with GL(1) Levi factor.

    The representation space is C-inf of the null cone (plain) or its
    twist by the sign of the defining function (sign variant); the O(3) x
    O(1)-types occurring are exactly (l;-1) (x) (;eta) with eta matching
    (-1)^(l+1), resp. (-1)^l.
    """
    if ktype.left.p != 3 or ktype.right.p != 1:
        raise ValueError("expected an O(3) x O(1) K-type")
    l = ktype.left.entries[0]
    eps, eta = ktype.left.sign, ktype.right.sign
    want = (-1) ** l if sign_variant else (-1) ** (l + 1)
    return 1 if (eps == -1 and eta == want) else 0
