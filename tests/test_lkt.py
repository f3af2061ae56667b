import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from thetalift.enumeration import enumerate_o_reps, enumerate_sp_reps
from thetalift.exact import GENERIC_B, InfChar, Scalar, parse_infchar
from thetalift.ktypes import OKType, UKType
from thetalift.langlands import (
    OParams,
    SpParams,
    det_o,
    parse_o,
    parse_sp,
    render_o,
    render_sp,
    swap_pq,
    tensor_det_o,
    trivial_o,
)
from thetalift.lkt import lowest_ktypes_o, lowest_ktypes_sp, multiplicity_o31
from thetalift.roots import PositiveSystem, SpKind


def test_one_dimensionals_have_one_dimensional_lkt():
    for p, q in [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
        assert lowest_ktypes_o(trivial_o(p, q)) == (
            OKType.of(p, q, (0,) * (p // 2), (0,) * (q // 2), 1, 1),
        )
        dets = lowest_ktypes_o(det_o(p, q))
        assert dets == (OKType.of(p, q, (0,) * (p // 2), (0,) * (q // 2), -1, -1),)


def test_lkt_o22_discrete_series():
    x = parse_o("pi_{1}((3;1),1,{e1+f1,e1-f1},0,0,0,0) @ O(2,2)")
    assert lowest_ktypes_o(x) == (OKType.of(2, 2, (4,), (1,), 1, 1),)
    y = parse_o("pi_{1}((1;3),1,{e1+f1,-e1+f1},0,0,0,0) @ O(2,2)")
    assert lowest_ktypes_o(y) == (OKType.of(2, 2, (1,), (4,), 1, 1),)


def test_lkt_o31_zeta_minus():
    for m in (1, 2, 5):
        x = parse_o(f"pi_{{-1}}(({m};),1,{{}},0,0,(1),(0)) @ O(3,1)")
        assert lowest_ktypes_o(x) == (OKType.of(3, 1, (m,), (), -1, -1),)


def test_lkt_o31_xi_minus():
    x = parse_o("pi_{1}((0;),-1,{},0,0,(-1),(b)) @ O(3,1)")
    assert lowest_ktypes_o(x) == (OKType.of(3, 1, (0,), (), -1, 1),)
    # same parameter seen through O(1,3)
    y = swap_pq(x)
    assert lowest_ktypes_o(y) == (OKType.of(1, 3, (), (0,), 1, -1),)


def test_lkt_sp_spherical_split():
    base = SpParams((), PositiveSystem.of(SpKind(0), ()), (1,), (GENERIC_B,), (), ())
    plus = SpParams(
        (), PositiveSystem.of(SpKind(0), ()), (1,), (GENERIC_B,), (1,), (GENERIC_B,)
    )
    minus = SpParams(
        (), PositiveSystem.of(SpKind(0), ()), (1,), (GENERIC_B,), (-1,), (GENERIC_B,)
    )
    assert lowest_ktypes_sp(base) == (UKType.of((1, -1)),)
    assert lowest_ktypes_sp(plus) == (UKType.of((1, 0, -1)),)
    assert lowest_ktypes_sp(minus) == (UKType.of((1, -1, -1)), UKType.of((1, 1, -1)))


def test_lkt_sp_discrete_series():
    x = parse_sp("pi((2,1),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)")
    assert lowest_ktypes_sp(x) == (UKType.of((3, 3)),)
    y = parse_sp("pi((0),{2e1},0,0,(-1),(1))")
    assert lowest_ktypes_sp(y) == (UKType.of((1, 1)),)
    z = parse_sp("pi((0),{-2e1},0,0,(-1),(1))")
    assert lowest_ktypes_sp(z) == (UKType.of((-1, -1)),)


def test_lkt_tensor_det_flips_signs():
    """pi (x) det has the sign-flipped lowest K-types, which pins down the
    parameter-level det twist."""
    for x in [
        trivial_o(2, 2),
        parse_o("pi_{1}((3;1),1,{e1+f1,e1-f1},0,0,0,0) @ O(2,2)"),
        parse_o("pi_{-1}((1;),1,{},0,0,(1),(0)) @ O(3,1)"),
    ]:
        flipped = {
            OKType.of(t.p, t.q, t.left.entries, t.right.entries, -t.left.sign, -t.right.sign)
            for t in lowest_ktypes_o(x)
        }
        assert set(lowest_ktypes_o(tensor_det_o(x))) == flipped


def test_multiplicity_o31():
    assert multiplicity_o31(OKType.of(3, 1, (1,), (), -1, 1), sign_variant=False) == 1
    assert multiplicity_o31(OKType.of(3, 1, (1,), (), -1, -1), sign_variant=False) == 0
    assert multiplicity_o31(OKType.of(3, 1, (0,), (), -1, -1), sign_variant=False) == 1
    assert multiplicity_o31(OKType.of(3, 1, (1,), (), -1, -1), sign_variant=True) == 1
    assert multiplicity_o31(OKType.of(3, 1, (0,), (), 1, -1), sign_variant=True) == 0
    with pytest.raises(ValueError):
        multiplicity_o31(OKType.of(2, 2, (0,), (0,), 1, 1), sign_variant=False)


# SHA-256 of the rendered ``params lkts`` lines below.  Any change to a
# lowest-K-type, enumeration or rendering rule moves it.
CENSUS_LKT_SHA256 = "0989d8b0248189d4877f2bbc8bbfd6d5ccd92bb3316a4bf7d8039ad204891cb4"


def _census_lkt_lines() -> list[str]:
    grid = [Scalar.of(x) for x in (0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2))] + [GENERIC_B]
    chis = sorted(
        {InfChar.of(pair) for pair in combinations_with_replacement(grid, 2)},
        key=lambda c: [x.sort_key() for x in c.entries],
    )
    lines = []
    for p, q in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)):
        for chi in chis:
            for pi in enumerate_o_reps(p, q, chi):
                kts = ",".join(k.render() for k in lowest_ktypes_o(pi))
                lines.append(f"{render_o(pi)} {kts}")
    for text in ("(0,1,2,3)", "(b,0,1,2)", "(1/2,3/2,1,2)", "(1,1,2,2)"):
        for pi in enumerate_sp_reps(4, parse_infchar(text)):
            kts = ",".join(k.render() for k in lowest_ktypes_sp(pi))
            lines.append(f"{render_sp(pi)} {kts}")
    return lines


def test_census_lowest_ktypes_are_pinned():
    """Every O(p,q), p+q=4, parameter over the pair grid of {0,1,2,3,1/2,3/2,b}
    and every member of four rank-4 Sp censuses keeps its lowest K-types."""
    lines = _census_lkt_lines()
    assert len(lines) == 341 + 666
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CENSUS_LKT_SHA256
