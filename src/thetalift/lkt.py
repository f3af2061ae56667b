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

Everything is computed on doubled integers: 2*lambda_a, twice the shift
(``roots.twice_rho_shift``), delta_L in {0, +-1} and eta in {0, +-2}, and
each K-type entry is halved once at the end, where it must be even.

On the symplectic side the answer depends on (lam, mu, t, Psi) and on
h_eps, the number of eps_i equal to (-1)^(u-r+1), alone; nu and kappa do
not enter.  ``_sp_lowest`` computes it once per such key (a bounded
cache), and each parameter only counts h_eps.  What depends on (lam, mu,
t) alone -- 2*lambda_a, the shifted entries, k, z and the block values --
sits under its own bounded cache (``_sp_shift``), so the shift is
computed once per distinct (lam, mu, t); the delta_L options, which need
Psi, are built inside ``_sp_lowest``.

Each side keeps its own eta forms on the zero entries.  For O(p,q) a
lowest K-type also carries a sign on each factor; the sign assignment
depends on zeta, xi and the shape of the continuous data.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import Callable, Mapping, Sequence

from .ktypes import OKType, UKType
from .langlands import OParams, SpParams
from .roots import OKind, PositiveSystem, Root, SpKind, pair_root, twice_rho_shift


def _block_values(vec: Sequence[int]) -> list[int]:
    return sorted({abs(x) for x in vec if x != 0}, reverse=True)


def _pos_value_data(entries: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Distinct positive magnitudes of the discrete datum with cumulative
    counts of the positive (k-tilde) and negative (l-tilde) entries."""
    vals = _block_values(entries)
    ktil, ltil, kc, lc = [], [], 0, 0
    for a in vals:
        kc += entries.count(a)
        lc += entries.count(-a)
        ktil.append(kc)
        ltil.append(lc)
    return vals, ktil, ltil


def _delta_options(
    lam2: Sequence[int],
    base2: Sequence[int],
    avals: Sequence[int],
    psi: PositiveSystem,
    block_root: Callable[[int], Root],
) -> list[dict[int, int]]:
    """Every choice of twice the correction delta_L on the blocks of
    2*lambda_a (``lam2``), as a map from doubled block value to 2*delta.

    A block whose doubled shifted entry (``base2``) is even takes 0.  An odd
    block carrying the j-th discrete value ``avals[j]`` takes +-1 by whether
    Psi contains ``block_root(j)``; any other odd block takes both.
    """
    doubled = [2 * a for a in avals]
    alphas = _block_values(lam2)
    options: list[tuple[int, ...]] = []
    for al in alphas:
        idx = lam2.index(al) if al in lam2 else lam2.index(-al)
        if base2[idx] % 2 == 0:
            options.append((0,))
        elif al in doubled:
            options.append((1 if psi.contains(block_root(doubled.index(al))) else -1,))
        else:
            options.append((1, -1))
    return [dict(zip(alphas, combo)) for combo in product(*options)]


def _assemble_half(
    lam2_half: Sequence[int],
    base2_half: Sequence[int],
    by_value: Mapping[int, int],
    eta2: list[int],
    orient: int,
) -> list[int]:
    """The shifted entries plus delta_L (times ``orient``) on the blocks and
    eta on the zero entries, in order, all given doubled, halved into the
    K-type entries; ``eta2`` must fit the zero block."""
    if len(eta2) != lam2_half.count(0):
        raise AssertionError("eta block overflow")
    entries, zi = [], 0
    for val, b in zip(lam2_half, base2_half):
        if val != 0:
            x = b + by_value[abs(val)] * orient
        else:
            x = b + eta2[zi]
            zi += 1
        if x % 2:
            raise AssertionError(f"lowest K-type has a non-integral entry {x}/2")
        entries.append(x // 2)
    return entries


@functools.lru_cache(maxsize=4096)
def _sp_shift(lam: tuple[int, ...], mu: tuple[int, ...], t: int) -> tuple[
    tuple[int, ...], tuple[int, ...], int, int, tuple[int, ...], tuple[int, ...], tuple[int, ...]
]:
    """What the lowest K-types of a symplectic parameter take from its
    (lam, mu, t) alone: 2*lambda_a, the doubled shifted entries, k, z and
    the block values with their cumulative counts, each immutable,
    computed once per distinct (lam, mu, t)."""
    lam2 = tuple(sorted([2 * x for x in lam] + list(mu) + [0] * t + [-m for m in mu], reverse=True))
    base2 = tuple(x + s for x, s in zip(lam2, twice_rho_shift(lam2, SpKind(len(lam2)))))
    avals, ktil, ltil = map(tuple, _pos_value_data(lam))
    k = ktil[-1] if ktil else 0
    return lam2, base2, k, lam.count(0), avals, ktil, ltil


@functools.lru_cache(maxsize=4096)
def _sp_lowest(
    lam: tuple[int, ...], mu: tuple[int, ...], t: int, psi: PositiveSystem, h_eps: int
) -> tuple[UKType, ...]:
    """The lowest K-types of every symplectic parameter with this (lam, mu,
    t, Psi) and ``h_eps`` signs eps_i equal to (-1)^(u-r+1), sorted."""
    v = len(lam)
    lam2, base2, k, z, avals, ktil, ltil = _sp_shift(lam, mu, t)
    by_values = _delta_options(
        lam2,
        base2,
        avals,
        psi,
        lambda j: pair_root(v, ktil[j - 1] if j > 0 else 0, v - ltil[j], 1, 1),
    )
    w = lam2.count(0)
    h = h_eps + mu.count(0) + (z + 1) // 2
    first = [2] * h + [0] * (w - h)
    second = [0] * (w - h) + [-2] * h
    if z == 0:
        etas = [first] if first == second else [first, second]
    else:
        etas = [first] if psi.contains(pair_root(v, k, k + z - 1, 1, 1)) else [second]

    out = {
        UKType.of(tuple(_assemble_half(lam2, base2, by_value, eta, +1)))
        for by_value in by_values
        for eta in etas
    }
    return tuple(sorted(out, key=lambda kt: kt.weights))


def lowest_ktypes_sp(params: SpParams) -> tuple[UKType, ...]:
    """Lowest K-types (U(n) highest weights) of a symplectic parameter."""
    lam = params.lam
    # u - r, the positive minus the negative entries of lam_a (the +-mu/2
    # pairs cancel), has the parity of the nonzero entries of lam
    sign = 1 if (len(lam) - lam.count(0)) % 2 else -1
    return _sp_lowest(lam, params.mu, params.t, params.psi, params.eps.count(sign))


def lowest_ktypes_o(params: OParams) -> tuple[OKType, ...]:
    """Lowest K-types (O(p) x O(q) parameters) of an orthogonal parameter."""
    p, q = params.p, params.q
    p0, q0 = p // 2, q // 2
    kind = OKind(p0, q0, odd=p % 2 == 1)
    left_d, right_d = params.lam_left, params.lam_right
    a, d = len(left_d), len(right_d)
    z, z2 = left_d.count(0), right_d.count(0)
    mu = params.mu
    pad = list(mu) + [0] * (params.t // 2)
    lam2_left = sorted([2 * x for x in left_d] + pad, reverse=True)
    lam2_right = sorted([2 * x for x in right_d] + pad, reverse=True)
    vec2 = lam2_left + lam2_right
    base2 = [x + s for x, s in zip(vec2, twice_rho_shift(vec2, kind))]
    base2_left, base2_right = base2[:p0], base2[p0:]

    x_zeros, y_zeros = lam2_left.count(0), lam2_right.count(0)
    avals, ktil, ltil = _pos_value_data(left_d + tuple(-x for x in right_d))
    by_values = _delta_options(
        vec2,
        base2,
        avals,
        params.psi,
        lambda j: pair_root(a + d, ktil[j] - 1, a + ltil[j] - 1, 1, -1),
    )

    beta_count = sum(1 for e in params.eps if e == 1)
    gamma_count = sum(1 for e in params.eps if e == -1)
    h = min(z, z2) + sum(1 for m in mu if m == 0) + min(beta_count, gamma_count)
    form1 = ([2] * h + [0] * (x_zeros - h), [0] * y_zeros)
    form2 = ([0] * x_zeros, [2] * h + [0] * (y_zeros - h))
    if z + z2 == 0:
        eta_forms = [form1] if form1 == form2 else [form1, form2]
    elif a == 0:
        # one side has no discrete datum: the extra 2s go on its zeros, so
        # that swapping the sides swaps the forms
        eta_forms = [form1]
    elif d == 0:
        eta_forms = [form2]
    else:
        root = pair_root(a + d, a - 1, a + d - 1, 1, -1)
        eta_forms = [form1] if params.psi.contains(root) else [form2]

    zero_pairs = any(k.is_zero for k in params.kappa)
    out = set()
    for by_value in by_values:
        for eta_left, eta_right in eta_forms:
            lft = _assemble_half(lam2_left, base2_left, by_value, eta_left, +1)
            rgt = _assemble_half(lam2_right, base2_right, by_value, eta_right, -1)
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
