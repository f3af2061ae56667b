"""Fixtures shared by several test modules."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from thetalift.enumeration import enumerate_o_reps
from thetalift.exact import GENERIC_B, InfChar, Scalar
from thetalift.langlands import render_o


@pytest.fixture(scope="session")
def lift_pool():
    """Every O(p,q), p+q=4, parameter whose infinitesimal character is a
    pair from {0,1,2,3,1/2,3/2,b}, in text order: 341 parameters."""
    grid = [Scalar.of(x) for x in (0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2))] + [GENERIC_B]
    chis = {InfChar.of(pair) for pair in combinations_with_replacement(grid, 2)}
    return sorted(
        (pi for p in range(5) for chi in chis for pi in enumerate_o_reps(p, 4 - p, chi)), key=render_o
    )
