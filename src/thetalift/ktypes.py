"""Finite-dimensional K-type bookkeeping for U(n) and O(p) x O(q).

U(n)-types are weakly decreasing integer tuples.  An O(p)-factor is a
nonnegative weakly decreasing tuple of width floor(p/2) plus a sign; the
sign is normalized to +1 whenever it carries no information (p even with
no zero entry, or p = 0).  The correspondence maps phi_n / phi_pq between
the two families follow the explicit occurrence criteria in the space of
joint harmonics.  phi_n is built on the U(p)-transfer of each factor
(``u_from_o``, inverted by ``o_from_u``); ``degree_o`` keeps its own closed
form, so that comparing it with the degree of phi_n checks the transfer.
phi_n and phi_pq themselves are bounded caches, as ``verify`` asks for
their values again; the transfers under them keep nothing.
"""

from __future__ import annotations

import functools
import re as _regex

from typing import Iterable, NamedTuple, Optional

from .exact import parse_int
from .roots import GroupKind, OKind, SpKind


def _weakly_decreasing(seq: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(seq, seq[1:]))


class UKType(NamedTuple):
    """Highest weight of a U(n)-type."""

    weights: tuple[int, ...]

    @staticmethod
    def of(weights: Iterable[int]) -> "UKType":
        w = tuple(int(x) for x in weights)
        if not _weakly_decreasing(w):
            raise ValueError(f"U(n) weight not weakly decreasing: {w}")
        return UKType(w)

    @property
    def n(self) -> int:
        return len(self.weights)

    def render(self) -> str:
        return "(" + ",".join(str(x) for x in self.weights) + ")"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class OFactor(NamedTuple):
    """One O(p)-factor of an O(p) x O(q) type: entries plus a sign."""

    p: int
    entries: tuple[int, ...]
    sign: int

    @staticmethod
    def of(p: int, entries: Iterable[int], sign: int) -> "OFactor":
        e = tuple(int(x) for x in entries)
        if len(e) != p // 2:
            raise ValueError(f"O({p}) factor needs width {p // 2}, got {e}")
        if not _weakly_decreasing(e) or (e and e[-1] < 0):
            raise ValueError(f"O({p}) factor entries invalid: {e}")
        if sign not in (1, -1):
            raise ValueError(f"bad sign {sign}")
        if p % 2 == 0 and all(x > 0 for x in e):
            sign = 1
        return OFactor(p, e, sign)

    @property
    def nonzero_count(self) -> int:
        return sum(1 for x in self.entries if x != 0)

    def render(self) -> str:
        body = ",".join(str(x) for x in self.entries)
        if self.p == 0:
            return f"({body};)"
        return f"({body};{self.sign:+d})"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class OKType(NamedTuple):
    """A K-type for O(p) x O(q)."""

    left: OFactor
    right: OFactor

    @staticmethod
    def of(
        p: int,
        q: int,
        left: Iterable[int],
        right: Iterable[int],
        eps: int,
        eta: int,
    ) -> "OKType":
        return OKType(OFactor.of(p, left, eps), OFactor.of(q, right, eta))

    @property
    def p(self) -> int:
        return self.left.p

    @property
    def q(self) -> int:
        return self.right.p

    def render(self) -> str:
        return self.left.render() + "x" + self.right.render()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


_FACTOR = _regex.compile(r"\(([^;()]*);([^;()]*)\)")


def _parse_factor(text: str, p: int) -> OFactor:
    m = _FACTOR.fullmatch(text.strip())
    if not m:
        raise ValueError(f"bad O-factor {text!r}")
    body, sign_text = m.group(1).strip(), m.group(2).strip()
    try:
        entries = tuple(parse_int(t) for t in body.split(",")) if body else ()
    except ValueError:
        raise ValueError(f"bad O-factor {text!r}: entries must be integers") from None
    if sign_text in ("", "+1", "1"):
        sign = 1
    elif sign_text == "-1":
        sign = -1
    else:
        raise ValueError(f"bad O-factor sign {sign_text!r}")
    return OFactor.of(p, entries, sign)


def parse_oktype(text: str, p: int, q: int) -> OKType:
    parts = text.replace(" ", "").split("x")
    if len(parts) != 2:
        raise ValueError(f"bad O-type {text!r}")
    return OKType(_parse_factor(parts[0], p), _parse_factor(parts[1], q))


def parse_uktype(text: str) -> UKType:
    s = text.replace(" ", "")
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad U-type {text!r}")
    body = s[1:-1]
    try:
        weights = tuple(parse_int(t) for t in body.split(",")) if body else ()
    except ValueError:
        raise ValueError(f"bad U-type {text!r}: weights must be integers") from None
    return UKType.of(weights)


def ktype_norm(t: "UKType | OKType", kind: GroupKind) -> int:
    """The squared length of Lambda + 2*rho_c."""
    if isinstance(t, UKType):
        if not isinstance(kind, SpKind) or kind.rank != t.n:
            raise ValueError("U(n)-type norm needs the matching Sp kind")
        n = t.n
        return sum((a + n + 1 - 2 * (i + 1)) ** 2 for i, a in enumerate(t.weights))
    if not isinstance(kind, OKind):
        raise ValueError("O-type norm needs an O kind")
    p, q = t.p, t.q
    if (kind.left, kind.right, kind.odd) != (p // 2, q // 2, p % 2 == 1):
        raise ValueError("O-type norm kind mismatch")
    left = sum((a + p - 2 * (i + 1)) ** 2 for i, a in enumerate(t.left.entries))
    right = sum((a + q - 2 * (j + 1)) ** 2 for j, a in enumerate(t.right.entries))
    return left + right


def u_from_o(factor: OFactor) -> UKType:
    """The U(p)-type matching an O(p)-factor (Lemma-style transfer)."""
    p = factor.p
    x = factor.nonzero_count
    ones = (1 - factor.sign) // 2 * (p - 2 * x)
    body = [e for e in factor.entries if e != 0] + [1] * ones
    return UKType.of(body + [0] * (p - len(body)))


def o_from_u(lam: UKType, p: int) -> Optional[OFactor]:
    """Invert u_from_o; None when the weight matches no O(p)-factor."""
    if lam.n != p:
        raise ValueError(f"weight length {lam.n} != {p}")
    if lam.weights and lam.weights[-1] < 0:
        return None
    r = sum(1 for a in lam.weights if a >= 2)
    s = sum(1 for a in lam.weights if a == 1)
    big = [a for a in lam.weights if a >= 2]
    if r + s <= p // 2:
        entries = big + [1] * s
        return OFactor.of(p, entries + [0] * (p // 2 - len(entries)), 1)
    if 2 * r + s <= p:
        entries = big + [1] * (p - 2 * r - s)
        return OFactor.of(p, entries + [0] * (p // 2 - len(entries)), -1)
    return None


def degree_o(sigma: OKType, p: int, q: int) -> int:
    if (sigma.p, sigma.q) != (p, q):
        raise ValueError("signature mismatch")
    x, y = sigma.left.nonzero_count, sigma.right.nonzero_count
    return (
        sum(sigma.left.entries)
        + sum(sigma.right.entries)
        + (1 - sigma.left.sign) // 2 * (p - 2 * x)
        + (1 - sigma.right.sign) // 2 * (q - 2 * y)
    )


def degree_u(sigma_prime: UKType, p_minus_q: int) -> int:
    if p_minus_q % 2 != 0:
        raise ValueError("p - q must be even")
    h = p_minus_q // 2
    return sum(abs(a - h) for a in sigma_prime.weights)


@functools.lru_cache(maxsize=4096)  # verify fills 1140; without: verify 9.27->7.79 ops/s
def phi_n(sigma: OKType, p: int, q: int, n: int) -> Optional[UKType]:
    """The U(n)-type paired with sigma in the joint harmonics, or None
    when sigma does not occur at this n: the nonzero weights of the left
    factor's U(p)-transfer, then zeros, then the negated nonzero weights of
    the right factor's U(q)-transfer in reverse, all shifted by (p-q)/2."""
    if (sigma.p, sigma.q) != (p, q):
        raise ValueError("signature mismatch")
    left = [a for a in u_from_o(sigma.left).weights if a]
    right = [-a for a in reversed(u_from_o(sigma.right).weights) if a]
    mid = n - len(left) - len(right)
    if mid < 0:
        return None
    h = (p - q) // 2
    return UKType.of(a + h for a in left + [0] * mid + right)


@functools.lru_cache(maxsize=4096)  # verify fills 760; without: verify 9.36->7.53 ops/s
def phi_pq(sigma_prime: UKType, p: int, q: int) -> Optional[OKType]:
    """Invert phi_n for the (p,q)-pair; None when sigma' does not occur."""
    if (p - q) % 2 != 0:
        raise ValueError("p - q must be even")
    h = (p - q) // 2
    c = [a - h for a in sigma_prime.weights]
    if 2 * sum(1 for v in c if v >= 2) + sum(1 for v in c if v == 1) > p:
        return None
    if 2 * sum(1 for v in c if v <= -2) + sum(1 for v in c if v == -1) > q:
        return None
    pos = [v for v in c if v > 0]
    neg = [-v for v in reversed(c) if v < 0]
    left = o_from_u(UKType.of(pos + [0] * (p - len(pos))), p)
    right = o_from_u(UKType.of(neg + [0] * (q - len(neg))), q)
    if left is None or right is None:
        return None
    return OKType(left, right)


def sigma_one_one(sigma: OKType, p: int, q: int) -> OKType:
    """The K-type of O(p+1) x O(q+1) induced by adding one harmonic
    variable on each side: each factor's U-transfer with one more zero,
    mapped back to an orthogonal factor."""
    if (sigma.p, sigma.q) != (p, q):
        raise ValueError("signature mismatch")

    def lift(factor: OFactor) -> OFactor:
        lifted = o_from_u(UKType(u_from_o(factor).weights + (0,)), factor.p + 1)
        if lifted is None:
            raise AssertionError("sigma_one_one dropped a nonzero entry")
        return lifted

    return OKType(lift(sigma.left), lift(sigma.right))


def sigma_prime_add(sigma_prime: UKType, half_diff: int) -> UKType:
    """Sorted insertion of (p-q)/2 into a U(n)-type (the Sp-side analogue
    of sigma_one_one)."""
    return UKType.of(sorted(sigma_prime.weights + (half_diff,), reverse=True))
