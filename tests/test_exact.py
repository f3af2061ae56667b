import itertools
from fractions import Fraction

import pytest

from thetalift.exact import (
    GENERIC_B,
    InfChar,
    Scalar,
    infchars_dual,
    parse_infchar,
    parse_scalar,
)


def test_scalar_parse_render_round_trip():
    for text in ["0", "3", "-3", "1/2", "b", "-b", "b+1", "1/2*b", "3/2-1*i", "2*b*i+1"]:
        assert parse_scalar(text).render() == text


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
    """The sign normalization compared on sort keys against -x."""
    neg = -x
    return x if x.sort_key() >= neg.sort_key() else neg


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
