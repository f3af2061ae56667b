"""Exact scalar arithmetic for parameter bookkeeping.

Scalars live in Q(i) extended by one formal symbol ``b``: every value is

    re + im*i + (bre + bim*i)*b

with Fraction coefficients.  Concrete values have bre = bim = 0.  The
formal symbol models a continuation parameter in general position: any
value with a nonzero formal part fails every specialness predicate
(integrality, evenness, equality with a fixed constant) while passing
disequalities such as b != 0.
"""

from __future__ import annotations

import re as _regex

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Q = Fraction

QLike = Union[int, Fraction]


def _frac(x: QLike) -> Q:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Q(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Scalar:
    """An element of Q(i) + Q(i)*b, b a formal symbol."""

    re: Q = Q(0)
    im: Q = Q(0)
    bre: Q = Q(0)
    bim: Q = Q(0)

    @staticmethod
    def of(x: "Scalar | QLike") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(re=_frac(x))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Scalar | QLike") -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re + o.re, self.im + o.im, self.bre + o.bre, self.bim + o.bim)

    __radd__ = __add__

    def __sub__(self, other: "Scalar | QLike") -> "Scalar":
        return self + (-Scalar.of(other))

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im, -self.bre, -self.bim)

    def scale(self, c: QLike) -> "Scalar":
        c = _frac(c)
        return Scalar(self.re * c, self.im * c, self.bre * c, self.bim * c)

    def half(self) -> "Scalar":
        return self.scale(Q(1, 2))

    def substitute(self, value: "Scalar") -> "Scalar":
        """Replace the formal symbol b by ``value``.

        Substitution is exact affine composition: with value = vc + vb*b,
        the formal coefficient of self multiplies into both parts of the
        value, so the result stays in Q(i) + Q(i)*b.
        """
        if self.is_concrete:
            return self
        re = self.re + self.bre * value.re - self.bim * value.im
        im = self.im + self.bre * value.im + self.bim * value.re
        bre = self.bre * value.bre - self.bim * value.bim
        bim = self.bre * value.bim + self.bim * value.bre
        return Scalar(re, im, bre, bim)

    # -- predicates ------------------------------------------------------

    @property
    def is_concrete(self) -> bool:
        return self.bre == 0 and self.bim == 0

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0 and self.bre == 0 and self.bim == 0

    def is_integer(self) -> bool:
        return self.is_concrete and self.im == 0 and self.re.denominator == 1

    def is_even(self) -> bool:
        return self.is_integer() and self.re.numerator % 2 == 0

    def is_odd(self) -> bool:
        return self.is_integer() and self.re.numerator % 2 == 1

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self.render()}")
        return int(self.re)

    def as_fraction(self) -> Q:
        if not (self.is_concrete and self.im == 0):
            raise ValueError(f"not rational: {self.render()}")
        return self.re

    # -- canonical form --------------------------------------------------

    def sort_key(self) -> tuple[Q, Q, Q, Q]:
        return (self.bre, self.bim, self.re, self.im)

    def normalized_sign(self) -> "Scalar":
        """The representative of {s, -s} whose sort key is maximal >= 0.

        For concrete values this is: re > 0 keeps, re < 0 negates, and
        re = 0 forces im >= 0.  A formal part wins over the concrete part.
        The sign is that of the first nonzero sort-key entry.
        """
        for c in (self.bre, self.bim, self.re, self.im):
            if c:
                return self if c > 0 else -self
        return self

    # -- text ------------------------------------------------------------

    def render(self) -> str:
        terms: list[str] = []
        for coef, sym in ((self.bre, "b"), (self.bim, "b*i"), (self.re, ""), (self.im, "i")):
            if coef == 0:
                continue
            sign = "-" if coef < 0 else ("+" if terms else "")
            mag = -coef if coef < 0 else coef
            if sym == "":
                body = str(mag)
            elif sym == "b" and mag == 1:
                body = "b"
            elif sym == "b*i" and mag == 1:
                body = "b*i"
            else:
                body = f"{mag}*{sym}"
            terms.append(sign + body)
        return "".join(terms) if terms else "0"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


GENERIC_B = Scalar(bre=Q(1))

_TERM = _regex.compile(r"([+-]?)([^+-]+)")
_SYMBOLIC = _regex.compile(r"(?:(\d+(?:/\d+)?)\*)?(b\*i|b|i)(?:/(\d+))?$")
_NUMERIC = _regex.compile(r"(\d+)(?:/(\d+))?$")
_SLOT = {"i": 1, "b": 2, "b*i": 3}


def parse_scalar(text: str) -> Scalar:
    """Parse forms like ``0``, ``-3``, ``1/2``, ``3/2-1*i``, ``b+1``, ``-b``, ``b/2``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    coefs = [Q(0)] * 4  # re, im, bre, bim
    pos = 0
    for m in _TERM.finditer(s):
        if m.start() != pos:
            raise ValueError(f"bad scalar {text!r}")
        pos = m.end()
        body = m.group(2)
        sm = _SYMBOLIC.match(body)
        if sm:
            coef = Q(sm.group(1)) if sm.group(1) else Q(1)
            if sm.group(3):
                coef /= Q(sm.group(3))
            slot = _SLOT[sm.group(2)]
        elif nm := _NUMERIC.match(body):
            coef, slot = Q(int(nm.group(1)), int(nm.group(2) or 1)), 0
        else:
            raise ValueError(f"bad scalar term {body!r} in {text!r}")
        if m.group(1) == "-":
            coef = -coef
        coefs[slot] = coefs[slot] + coef if coefs[slot] else coef
    if pos != len(s):
        raise ValueError(f"bad scalar {text!r}")
    return Scalar(*coefs)


@dataclass(frozen=True)
class InfChar:
    """An infinitesimal character: a canonically ordered multiset of scalars.

    Entries are defined up to permutation and individual sign changes, so
    the stored form sign-normalizes every entry and sorts by sort_key.
    """

    entries: tuple[Scalar, ...]

    @staticmethod
    def of(entries: Iterable[Scalar | QLike]) -> "InfChar":
        norm = sorted(
            (Scalar.of(e).normalized_sign() for e in entries),
            key=Scalar.sort_key,
        )
        return InfChar(tuple(norm))

    def extended(self, extra: Iterable[Scalar | QLike]) -> "InfChar":
        return InfChar.of(self.entries + tuple(Scalar.of(e) for e in extra))

    def substitute(self, value: Scalar) -> "InfChar":
        return InfChar.of(e.substitute(value) for e in self.entries)

    def render(self) -> str:
        return "(" + ",".join(e.render() for e in self.entries) + ")"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def parse_infchar(text: str) -> InfChar:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.strip():
        return InfChar.of(())
    return InfChar.of(parse_scalar(tok) for tok in s.split(","))


def dual_padding(m: int, n: int) -> tuple[range, range]:
    """The fixed integer strings that pad an O(p,q)-side character
    (m = (p+q)/2 entries) and an Sp(2n,R)-side character to equal length:
    (1,...,n-m) on the O side and (0,...,m-n-1) on the Sp side.  At least
    one of the two is empty."""
    return range(1, n - m + 1), range(0, m - n)


def infchars_dual(o_chi: InfChar, sp_chi: InfChar, m: int, n: int) -> bool:
    """Whether the O(p,q)-side character (m=(p+q)/2 entries) and the
    Sp(2n,R)-side character pair up under the correspondence: equal once
    both are padded by dual_padding."""
    o_pad, sp_pad = dual_padding(m, n)
    return o_chi.extended(o_pad) == sp_chi.extended(sp_pad)
