import itertools
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest

from thetalift.exact import (
    GENERIC_B,
    InfChar,
    Scalar,
    infchars_dual,
    parse_infchar,
    parse_int,
    parse_scalar,
)


def test_scalar_parse_render_round_trip():
    for text in ["0", "3", "-3", "1/2", "b", "-b", "b+1", "1/2*b", "3/2-1*i", "2*b*i+1"]:
        assert parse_scalar(text).render() == text


def test_parse_int_reads_ascii_digits_only():
    """Integers are a sign and ASCII digits, spaces around them allowed;
    ``int`` would also read digit separators and other scripts' digits."""
    assert [parse_int(t) for t in ("0", "-3", "+2", " 12 ", "\t7\n")] == [0, -3, 2, 12, 7]
    for text in ("", " ", "1_0", "\u0661", "1\u0660", "1.0", "--1", "1 2", "0x1"):
        with pytest.raises(ValueError, match="bad integer"):
            parse_int(text)


def test_scalar_parse_alternate_spellings():
    assert parse_scalar("b/2") == Scalar(bre=Fraction(1, 2))
    assert parse_scalar("1/2*b") == parse_scalar("b/2")
    assert parse_scalar("1 + b") == parse_scalar("b+1")
    assert parse_scalar("i") == Scalar(im=Fraction(1))
    with pytest.raises(ValueError):
        parse_scalar("b*b")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_scalar_arithmetic_and_predicates():
    b = GENERIC_B
    assert (b + 1) - 1 == b
    assert (-b).scale(Fraction(-1)) == b
    assert Scalar.of(4).half() == Scalar.of(2)
    assert Scalar.of(4).is_even() and not Scalar.of(4).is_odd()
    assert Scalar.of(3).is_odd()
    # a formal scalar is never any specific number
    assert not b.is_zero and not b.is_integer() and not b.is_even() and not b.is_odd()
    assert (b + 1).substitute(Scalar.of(2)) == Scalar.of(3)
    assert b.scale(2).substitute(Scalar(im=Fraction(1))) == Scalar(im=Fraction(2))
    # substitution composes affinely: b := b+1 shifts the formal part
    assert (b + 1).substitute(b + 1) == b + 2
    assert b.scale(2).substitute(b.scale(3)) == b.scale(6)


def test_scalar_sign_normalization():
    assert (-GENERIC_B).normalized_sign() == GENERIC_B
    assert Scalar.of(-3).normalized_sign() == Scalar.of(3)
    assert Scalar.of(0).normalized_sign() == Scalar.of(0)
    # b-1 beats 1-b: the formal coefficient dominates the key
    assert (GENERIC_B - 1).normalized_sign() == GENERIC_B - 1
    assert (Scalar.of(1) - GENERIC_B).normalized_sign() == GENERIC_B - 1


def _reference_normalized_sign(x):
    """The sign normalization compared in the scalar order against -x."""
    neg = -x
    return x if x >= neg else neg


def test_scalar_sign_normalization_matches_sort_key_reference():
    coefs = (0, 1, -1, Fraction(1, 2), Fraction(-3, 2))
    for re, im, bre, bim in itertools.product(coefs, repeat=4):
        x = Scalar(Fraction(re), Fraction(im), Fraction(bre), Fraction(bim))
        got = x.normalized_sign()
        assert got == _reference_normalized_sign(x), x.render()
        assert got == (-x).normalized_sign()


def test_infchar_canonical_order():
    chi = InfChar.of([Scalar.of(-3), Scalar(re=Fraction(1, 2)), Scalar(im=Fraction(-1))])
    assert chi.render() == "(1*i,1/2,3)"
    assert parse_infchar("(1*i,1/2,3)") == chi
    assert InfChar.of([GENERIC_B, Scalar.of(0)]).render() == "(0,b)"


def test_infchar_extension_and_duality():
    chi = InfChar.of([0, 1])
    assert chi.extended(range(2, 4)) == InfChar.of([0, 1, 2, 3])
    # equal sizes: plain equality
    assert infchars_dual(InfChar.of([0, 1]), InfChar.of([1, 0]), m=2, n=2)
    # orthogonal side bigger: pad the symplectic side with 0,1,...
    assert infchars_dual(InfChar.of([0, 1, 2]), InfChar.of([2]), m=3, n=1)
    assert not infchars_dual(InfChar.of([0, 1, 3]), InfChar.of([2]), m=3, n=1)
    # symplectic side bigger: pad the orthogonal side with 1,2,...
    assert infchars_dual(InfChar.of([0]), InfChar.of([0, 1, 2]), m=1, n=3)


def test_infchar_substitute():
    chi = InfChar.of([GENERIC_B, Scalar.of(1)])
    assert chi.substitute(Scalar.of(-2)) == InfChar.of([1, 2])


# -- the integer Scalar against the Fraction-backed one it replaced --------


@dataclass(frozen=True)
class _ReferenceScalar:
    """The Fraction-backed Scalar the integer representation replaced."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)
    bre: Fraction = Fraction(0)
    bim: Fraction = Fraction(0)

    def __add__(self, o):
        return _ReferenceScalar(self.re + o.re, self.im + o.im, self.bre + o.bre, self.bim + o.bim)

    def __neg__(self):
        return _ReferenceScalar(-self.re, -self.im, -self.bre, -self.bim)

    def __sub__(self, o):
        return self + (-o)

    def scale(self, c):
        c = Fraction(c)
        return _ReferenceScalar(self.re * c, self.im * c, self.bre * c, self.bim * c)

    def half(self):
        return self.scale(Fraction(1, 2))

    def substitute(self, v):
        if self.is_concrete:
            return self
        return _ReferenceScalar(
            self.re + self.bre * v.re - self.bim * v.im,
            self.im + self.bre * v.im + self.bim * v.re,
            self.bre * v.bre - self.bim * v.bim,
            self.bre * v.bim + self.bim * v.bre,
        )

    @property
    def is_concrete(self):
        return self.bre == 0 and self.bim == 0

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0 and self.bre == 0 and self.bim == 0

    def is_integer(self):
        return self.is_concrete and self.im == 0 and self.re.denominator == 1

    def is_even(self):
        return self.is_integer() and self.re.numerator % 2 == 0

    def is_odd(self):
        return self.is_integer() and self.re.numerator % 2 == 1

    def as_int(self):
        if not self.is_integer():
            raise ValueError("not an integer")
        return int(self.re)

    def sort_key(self):
        return (self.bre, self.bim, self.re, self.im)

    def normalized_sign(self):
        for c in (self.bre, self.bim, self.re, self.im):
            if c:
                return self if c > 0 else -self
        return self

    def render(self):
        terms = []
        for coef, sym in ((self.bre, "b"), (self.bim, "b*i"), (self.re, ""), (self.im, "i")):
            if coef == 0:
                continue
            sign = "-" if coef < 0 else ("+" if terms else "")
            mag = -coef if coef < 0 else coef
            if sym == "":
                body = str(mag)
            elif sym in ("b", "b*i") and mag == 1:
                body = sym
            else:
                body = f"{mag}*{sym}"
            terms.append(sign + body)
        return "".join(terms) if terms else "0"


_REF_GRID_COEFS = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3))
_REF_GRID = [tuple(Fraction(c) for c in cs) for cs in itertools.product(_REF_GRID_COEFS, repeat=4)]


def _agrees(new: Scalar, ref: _ReferenceScalar) -> bool:
    return (new.re, new.im, new.bre, new.bim) == (ref.re, ref.im, ref.bre, ref.bim)


@pytest.fixture(scope="module")
def grid():
    """(new, reference) pairs over {0, +-1, +-1/2, 3/2, -2/3}^4."""
    return [(Scalar(*cs), _ReferenceScalar(*cs)) for cs in _REF_GRID]


def test_unary_operations_match_the_fraction_reference(grid):
    for x, rx in grid:
        assert _agrees(x, rx), rx
        assert _agrees(-x, -rx), rx
        assert _agrees(x.half(), rx.half()), rx
        for c in (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)):
            assert _agrees(x.scale(c), rx.scale(c)), (rx, c)
        assert _agrees(x.normalized_sign(), rx.normalized_sign()), rx


def test_binary_operations_match_the_fraction_reference(grid):
    others = grid[1000::181] + [(GENERIC_B, _ReferenceScalar(bre=Fraction(1)))]
    for x, rx in grid:
        for y, ry in others:
            assert _agrees(x + y, rx + ry), (rx, ry)
            assert _agrees(x - y, rx - ry), (rx, ry)
            assert _agrees(x.substitute(y), rx.substitute(ry)), (rx, ry)
        for c in (0, 2, -1):
            assert _agrees(x + c, rx + _ReferenceScalar(Fraction(c))), (rx, c)
            assert _agrees(x - c, rx - _ReferenceScalar(Fraction(c))), (rx, c)


def test_predicates_and_text_match_the_fraction_reference(grid):
    for x, rx in grid:
        assert x.is_concrete == rx.is_concrete, rx
        assert x.is_zero == rx.is_zero, rx
        assert x.is_integer() == rx.is_integer(), rx
        assert x.is_even() == rx.is_even(), rx
        assert x.is_odd() == rx.is_odd(), rx
        assert x.is_rational() == (rx.is_concrete and rx.im == 0), rx
        if rx.is_integer():
            assert x.as_int() == rx.as_int()
            assert type(x.as_int()) is int
        else:
            with pytest.raises(ValueError):
                x.as_int()
        if x.is_rational():
            assert x.as_fraction() == rx.re
        else:
            with pytest.raises(ValueError):
                x.as_fraction()
        assert x.render() == rx.render(), rx
        assert parse_scalar(x.render()) == x, rx


def test_sorted_order_matches_the_fraction_reference(grid):
    news = sorted(x for x, _ in grid)
    refs = sorted((rx for _, rx in grid), key=_ReferenceScalar.sort_key)
    assert all(_agrees(x, rx) for x, rx in zip(news, refs))
    for (x, rx), (y, ry) in zip(grid[::37], grid[5::41]):
        assert (x < y) == (rx.sort_key() < ry.sort_key())
        assert (x <= y) == (rx.sort_key() <= ry.sort_key())
        assert (x > y) == (rx.sort_key() > ry.sort_key())
        assert (x >= y) == (rx.sort_key() >= ry.sort_key())


def test_equal_values_built_by_different_routes_hash_equally(grid):
    half = Scalar(re=Fraction(2, 4))
    for other in (Scalar.of(1).half(), Scalar(1, 0, 0, 0, 2), Scalar(-3, 0, 0, 0, -6), parse_scalar("2/4"),
                  Scalar.of(Fraction(1, 2)), (Scalar.of(3) - Scalar.of(5)).scale(Fraction(-1, 4))):
        assert other == half and hash(other) == hash(half)
    assert Scalar.of(0).half() == Scalar() and hash(Scalar.of(0).half()) == hash(Scalar())
    for x, rx in grid[::11]:
        scaled = Scalar(*(c * 12 for c in (rx.re, rx.im, rx.bre, rx.bim)), den=12)
        assert scaled == x and hash(scaled) == hash(x), rx
        for y, _ in grid[::301]:
            round_trip = (x + y) - y
            assert round_trip == x and hash(round_trip) == hash(x)


def test_scalar_parses_non_canonical_spellings():
    for text, want in [
        ("2/4", Scalar(re=Fraction(1, 2))),
        ("1/2+1/3", Scalar(re=Fraction(5, 6))),
        ("b/2+b/3-1", Scalar(re=-1, bre=Fraction(5, 6))),
        ("3/2*b/5", Scalar(bre=Fraction(3, 10))),
        ("1/4*i-1/6*b*i", Scalar(im=Fraction(1, 4), bim=Fraction(-1, 6))),
        ("1+1", Scalar.of(2)),
        ("-007", Scalar.of(-7)),
    ]:
        assert parse_scalar(text) == want, text
    for text in ("1/0", "b/0", "3/0*b"):
        with pytest.raises(ZeroDivisionError):
            parse_scalar(text)
    for text in ("--3", "1.5", "2b", "+"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_scalar_is_immutable_and_checks_its_input():
    x = Scalar.of(1)
    with pytest.raises(AttributeError):
        x.re = Fraction(2)
    with pytest.raises(AttributeError):
        x._v = (0, 0, 2, 0, 1)
    with pytest.raises(TypeError):
        Scalar.of(0.5)
    with pytest.raises(ZeroDivisionError):
        Scalar(1, den=0)
    assert Scalar(re=True) == Scalar.of(1)
    half_b = GENERIC_B.half()
    assert pickle.loads(pickle.dumps(half_b)) == half_b
