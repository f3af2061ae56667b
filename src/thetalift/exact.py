"""Exact scalar arithmetic for parameter bookkeeping.

Scalars live in Q(i) extended by one formal symbol ``b``: every value is

    (re + im*i + (bre + bim*i)*b) / den

with four integer numerators over one shared positive denominator, kept
in lowest terms, so that equal values have equal representations:
equality and hashing are those of a tuple of ints, and arithmetic is
integer arithmetic.  Concrete values have bre = bim = 0.  The formal
symbol models a continuation parameter in general position: any value
with a nonzero formal part fails every specialness predicate
(integrality, evenness, equality with a fixed constant) while passing
disequalities such as b != 0.
"""

from __future__ import annotations

import re as _regex

from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from typing import Iterable, NamedTuple, Union

QLike = Union[int, Fraction]


def _ratio(x: QLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _lowest(nums: list[int], den: int) -> tuple[int, ...]:
    """(*nums, den) divided through by their gcd, with den > 0."""
    if den == 0:
        raise ZeroDivisionError("scalar with denominator 0")
    if den < 0:
        nums, den = [-x for x in nums], -den
    g = gcd(den, *nums)
    return (*(x // g for x in nums), den // g)


def _ratio_text(num: int, den: int) -> str:
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


@total_ordering
class Scalar:
    """An element of Q(i) + Q(i)*b, b a formal symbol.

    ``Scalar(re, im, bre, bim, den=1)`` is (re + im*i + (bre + bim*i)*b)/den
    for ints or Fractions re, im, bre, bim and a nonzero int den.  The
    value is stored as one tuple of ints (bre, bim, re, im, den) in lowest
    terms with den > 0, in comparison order.  Scalars are immutable and
    totally ordered, lexicographically on (bre, bim, re, im); ``.re``,
    ``.im``, ``.bre`` and ``.bim`` give the coefficients as Fractions.
    """

    __slots__ = ("_v",)

    def __init__(self, re: QLike = 0, im: QLike = 0, bre: QLike = 0, bim: QLike = 0, den: int = 1):
        if type(re) is type(im) is type(bre) is type(bim) is type(den) is int and den > 0:
            if den != 1:
                g = gcd(den, re, im, bre, bim)
                if g != 1:
                    re, im, bre, bim, den = re // g, im // g, bre // g, bim // g, den // g
            _store(self, (bre, bim, re, im, den))
            return
        if not isinstance(den, int):
            raise TypeError(f"expected an int denominator, got {type(den).__name__}")
        parts = [_ratio(x) for x in (bre, bim, re, im)]
        common = lcm(*(q for _, q in parts))
        _store(self, _lowest([p * (common // q) for p, q in parts], den * common))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Scalar is immutable; cannot set {name!r}")

    def __reduce__(self):
        bre, bim, re, im, den = self._v
        return Scalar, (re, im, bre, bim, den)

    @staticmethod
    def of(x: "Scalar | QLike") -> "Scalar":
        if type(x) is Scalar:
            return x
        return Scalar(x)

    # -- coefficients ----------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._v[2], self._v[4])

    @property
    def im(self) -> Fraction:
        return Fraction(self._v[3], self._v[4])

    @property
    def bre(self) -> Fraction:
        return Fraction(self._v[0], self._v[4])

    @property
    def bim(self) -> Fraction:
        return Fraction(self._v[1], self._v[4])

    # -- equality, hashing, order ----------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is Scalar:
            return self._v == other._v
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._v)

    def __lt__(self, other: "Scalar") -> bool:
        """Lexicographic on (bre, bim, re, im): the stored tuples compare
        directly when the denominators agree, else the numerators are
        cross-multiplied by the other denominator."""
        if type(other) is not Scalar:
            return NotImplemented
        x, y = self._v, other._v
        if x[4] == y[4]:
            return x < y
        dx, dy = x[4], y[4]
        return (x[0] * dy, x[1] * dy, x[2] * dy, x[3] * dy) < (y[0] * dx, y[1] * dx, y[2] * dx, y[3] * dx)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Scalar | QLike") -> "Scalar":
        bre, bim, re, im, den = self._v
        if type(other) is int:
            return Scalar(re + other * den, im, bre, bim, den)
        obre, obim, ore, oim, oden = Scalar.of(other)._v
        if den == oden:
            return Scalar(re + ore, im + oim, bre + obre, bim + obim, den)
        return Scalar(
            re * oden + ore * den, im * oden + oim * den, bre * oden + obre * den, bim * oden + obim * den, den * oden
        )

    __radd__ = __add__

    def __sub__(self, other: "Scalar | QLike") -> "Scalar":
        bre, bim, re, im, den = self._v
        if type(other) is int:
            return Scalar(re - other * den, im, bre, bim, den)
        obre, obim, ore, oim, oden = Scalar.of(other)._v
        if den == oden:
            return Scalar(re - ore, im - oim, bre - obre, bim - obim, den)
        return Scalar(
            re * oden - ore * den, im * oden - oim * den, bre * oden - obre * den, bim * oden - obim * den, den * oden
        )

    def __neg__(self) -> "Scalar":
        bre, bim, re, im, den = self._v
        return Scalar(-re, -im, -bre, -bim, den)

    def scale(self, c: QLike) -> "Scalar":
        bre, bim, re, im, den = self._v
        if type(c) is int:
            return Scalar(re * c, im * c, bre * c, bim * c, den)
        num, q = _ratio(c)
        return Scalar(re * num, im * num, bre * num, bim * num, den * q)

    def half(self) -> "Scalar":
        bre, bim, re, im, den = self._v
        return Scalar(re, im, bre, bim, 2 * den)

    def substitute(self, value: "Scalar") -> "Scalar":
        """Replace the formal symbol b by ``value``.

        Substitution is exact affine composition: with value = vc + vb*b,
        the formal coefficient of self multiplies into both parts of the
        value, so the result stays in Q(i) + Q(i)*b.
        """
        bre, bim, re, im, den = self._v
        if bre == 0 and bim == 0:
            return self
        vbre, vbim, vre, vim, vden = value._v
        return Scalar(
            re * vden + bre * vre - bim * vim,
            im * vden + bre * vim + bim * vre,
            bre * vbre - bim * vbim,
            bre * vbim + bim * vbre,
            den * vden,
        )

    def solve(self, value: "Scalar") -> "Scalar":
        """The x with ``self.substitute(x) == value``.  The formal
        coefficient of self must be a nonzero rational; ValueError
        otherwise."""
        bre, bim, re, im, den = self._v
        if bim != 0 or bre == 0:
            raise ValueError(f"cannot solve {self.render()} for b")
        vbre, vbim, vre, vim, vden = value._v
        # x = (value*den - (re + im*i)) / bre
        return Scalar(vre * den - re * vden, vim * den - im * vden, vbre * den, vbim * den, vden * bre)

    # -- predicates ------------------------------------------------------

    @property
    def is_concrete(self) -> bool:
        v = self._v
        return v[0] == 0 and v[1] == 0

    @property
    def is_zero(self) -> bool:
        return self._v == _ZERO

    def is_rational(self) -> bool:
        v = self._v
        return v[0] == 0 and v[1] == 0 and v[3] == 0

    def is_integer(self) -> bool:
        bre, bim, _, im, den = self._v
        return den == 1 and bre == 0 and bim == 0 and im == 0

    def is_even(self) -> bool:
        return self.is_integer() and self._v[2] % 2 == 0

    def is_odd(self) -> bool:
        return self.is_integer() and self._v[2] % 2 == 1

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self.render()}")
        return self._v[2]

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self.render()}")
        return self.re

    # -- canonical form --------------------------------------------------

    def normalized_sign(self) -> "Scalar":
        """The larger of s and -s in the scalar order.

        For concrete values this is: re > 0 keeps, re < 0 negates, and
        re = 0 forces im >= 0.  A formal part wins over the concrete part.
        The sign is that of the first nonzero entry of (bre, bim, re, im).
        """
        bre, bim, re, im, _ = self._v
        return self if (bre or bim or re or im) >= 0 else -self

    # -- text ------------------------------------------------------------

    def render(self) -> str:
        bre, bim, re, im, den = self._v
        terms: list[str] = []
        for num, sym in ((bre, "b"), (bim, "b*i"), (re, ""), (im, "i")):
            if num == 0:
                continue
            sign = "-" if num < 0 else ("+" if terms else "")
            mag = _ratio_text(abs(num), den)
            if sym == "":
                body = mag
            elif mag == "1" and sym != "i":
                body = sym
            else:
                body = f"{mag}*{sym}"
            terms.append(sign + body)
        return "".join(terms) if terms else "0"

    __str__ = render

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


_store = Scalar._v.__set__
_ZERO = (0, 0, 0, 0, 1)

GENERIC_B = Scalar(bre=1)

_TERM = _regex.compile(r"([+-]?)([^+-]+)")
_SYMBOLIC = _regex.compile(r"(?:(\d+)(?:/(\d+))?\*)?(b\*i|b|i)(?:/(\d+))?", _regex.ASCII)
_NUMERIC = _regex.compile(r"(\d+)(?:/(\d+))?", _regex.ASCII)
_SLOT = {"i": 1, "b": 2, "b*i": 3}
_INT = _regex.compile(r"\s*([+-]?\d+)\s*", _regex.ASCII)


def parse_int(text: str) -> int:
    """An integer written in ASCII digits with an optional sign, spaces
    around it allowed: ``int`` would also take ``1_0`` and other scripts'
    digits."""
    if m := _INT.fullmatch(text):
        return int(m.group(1))
    raise ValueError(f"bad integer {text!r}")


def parse_scalar(text: str) -> Scalar:
    """Parse forms like ``0``, ``-3``, ``1/2``, ``3/2-1*i``, ``b+1``, ``-b``, ``b/2``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    nums, den = [0, 0, 0, 0], 1  # re, im, bre, bim over den
    pos = 0
    for m in _TERM.finditer(s):
        if m.start() != pos:
            raise ValueError(f"bad scalar {text!r}")
        pos = m.end()
        body = m.group(2)
        if sm := _SYMBOLIC.fullmatch(body):
            num = int(sm.group(1) or 1)
            q = int(sm.group(2) or 1) * int(sm.group(4) or 1)
            slot = _SLOT[sm.group(3)]
        elif nm := _NUMERIC.fullmatch(body):
            num, q, slot = int(nm.group(1)), int(nm.group(2) or 1), 0
        else:
            raise ValueError(f"bad scalar term {body!r} in {text!r}")
        if q == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        if m.group(1) == "-":
            num = -num
        if den % q:
            common = lcm(den, q)
            nums = [x * (common // den) for x in nums]
            den = common
        nums[slot] += num * (den // q)
    if pos != len(s):
        raise ValueError(f"bad scalar {text!r}")
    return Scalar(*nums, den)


class InfChar(NamedTuple):
    """An infinitesimal character: a canonically ordered multiset of scalars.

    Entries are defined up to permutation and individual sign changes, so
    the stored form sign-normalizes every entry and sorts the entries.
    """

    entries: tuple[Scalar, ...]

    @staticmethod
    def of(entries: Iterable[Scalar | QLike]) -> "InfChar":
        return InfChar(tuple(sorted(Scalar.of(e).normalized_sign() for e in entries)))

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
