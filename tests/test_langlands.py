from itertools import combinations

import pytest

from dense_roots import dense
from thetalift.exact import GENERIC_B, InfChar, Scalar
from thetalift.langlands import (
    OParams,
    ParamError,
    SpParams,
    _zero_ends,
    canonical_o_psi,
    canonicalize_o,
    canonicalize_sp,
    contragredient_sp,
    det_o,
    infchar_o,
    infchar_sp,
    parse_o,
    parse_param_pattern,
    parse_params,
    parse_sp,
    render_o,
    render_params,
    render_sp,
    swap_pq,
    tensor_det_o,
    trivial_o,
    validate_o,
    validate_sp,
)
from thetalift.roots import (
    OKind,
    PositiveSystem,
    SpKind,
    contains_delta_c_plus,
    enumerate_positive_systems,
    parse_psi,
)


def sp(text):
    return parse_sp(text)


def o(text):
    return parse_o(text)


def test_parse_render_round_trip_sp():
    texts = [
        "pi(0,{},0,0,0,0)",
        "pi((1,0),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)",
        "pi(0,{},(3),(b),(1),(1/2))",
        "pi((0),{2e1},0,0,(-1),(1))",
        "pi(0,{},0,0,(1,1,1,1),(0,1,1,2))",
    ]
    for text in texts:
        assert render_sp(sp(text)) == text
        assert render_params(parse_params(text)) == text


def test_parse_render_round_trip_o():
    texts = [
        "pi_{1}((1,0;),1,{e1+e2,e1-e2},0,0,0,0) @ O(4,0)",
        "pi_{1}((0;),-1,{},0,0,(-1),(b)) @ O(3,1)",
        "pi_{-1}(0,1,{},0,0,(1,1),(0,1)) @ O(2,2)",
        "pi_{1}((2;1),1,{e1+f1,e1-f1},0,0,0,0) @ O(2,2)",
    ]
    for text in texts:
        assert render_o(o(text)) == text
        assert render_params(parse_params(text)) == text
    # the signature tail is optional on input but checked when present
    assert o("pi_{1}((2;1),1,{e1+f1,e1-f1},0,0,0,0)").p == 2
    with pytest.raises(ParamError):
        o("pi_{1}((2;1),1,{e1+f1,e1-f1},0,0,0,0) @ O(4,0)")


def test_grammar_errors_are_param_errors():
    # the signature tail is checked against the shape, variables or not
    assert parse_param_pattern("pi_{1}((m;),1,{},0,0,0,0) @ O(2,0)").var_names() == {"m"}
    with pytest.raises(ParamError, match=r"O\(2,2\) does not match O\(2,0\)"):
        parse_param_pattern("pi_{1}((m;),1,{},0,0,0,0) @ O(2,2)")
    # concrete text is a pattern whose only variable is b
    with pytest.raises(ParamError, match="'c1'"):
        sp("pi(0,{},0,0,(1),(c1))")
    with pytest.raises(ParamError):
        o("pi(0,{},0,0,0,0)")
    with pytest.raises(ParamError):
        parse_params("pi(0,{},(1),(1/),0,0)")
    # Psi is parsed with the pattern, in the root system of its slot counts
    with pytest.raises(ParamError, match="bad root 'e1-e9'"):
        o("pi_{1}((2,1;),1,{e1+e2,e1-e9},0,0,0,0)")
    with pytest.raises(ParamError, match="bad root '2e2'"):
        parse_param_pattern("pi((m),{2e2},0,0,0,0)")


def test_shape_properties():
    x = sp("pi((1,0),{e1+e2,e1-e2,2e1,2e2},(3),(b),(1,-1),(1,2))")
    assert (x.v, x.s, x.t, x.n) == (2, 1, 2, 6)
    y = o("pi_{1}((1;),1,{},(2),(b),(1),(1)) @ O(5,3)")
    assert (y.a, y.d, y.s, y.t, y.p, y.q) == (1, 0, 1, 1, 5, 3)


def test_validation_rejects_bad_shapes():
    psi2 = parse_psi("{e1+e2,e1-e2,2e1,2e2}", SpKind(2))
    with pytest.raises(ParamError):  # lam not weakly decreasing
        validate_sp(SpParams((0, 1), psi2, (), (), (), ()))
    with pytest.raises(ParamError):  # block multiplicity gap
        validate_sp(SpParams((1, 1), psi2, (), (), (), ()))
    with pytest.raises(ParamError):  # mu/nu length mismatch
        sp("pi(0,{},(1),0,0,0)")
    with pytest.raises(ParamError):  # nu=0 needs mu odd
        sp("pi(0,{},(2),(0),0,0)")
    with pytest.raises(ParamError):  # kappa coincidence forces equal eps
        sp("pi(0,{},0,0,(1,-1),(1,-1))")
    with pytest.raises(ParamError):  # kappa=0 pins eps to (-1)^v
        sp("pi(0,{},0,0,(-1),(0))")
    assert sp("pi((1),{2e1},0,0,(-1),(0))").eps == (-1,)


def test_dominance_rejection_message():
    with pytest.raises(ParamError) as err:
        parse_params("pi((0,0),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)")
    assert str(err.value) == "lam=(0, 0) is not (F-1)-dominant for Psi={e1+e2,e1-e2,2e1,2e2}"
    assert str(ParamError("100% literal")) == "100% literal"
    assert str(ParamError()) == ""


def test_validation_o_sign_rules():
    with pytest.raises(ParamError):  # xi=-1 needs a zero entry
        o("pi_{1}((1;1),-1,{e1+f1,e1-f1},0,0,0,0)")
    with pytest.raises(ParamError):  # zeta=-1 needs zero-free lam
        o("pi_{-1}((0;),1,{},0,0,(1),(1))")
    with pytest.raises(ParamError):  # zeta=-1 needs some kappa=0
        o("pi_{-1}((1;1),1,{e1+f1,e1-f1},0,0,(1),(1))")
    with pytest.raises(ParamError):  # zero blocks differ by 2
        o("pi_{1}((0,0;),1,{e1-e2,e1+e2},0,0,0,0)")
    ok = o("pi_{-1}((1;1),1,{e1+f1,e1-f1},0,0,(1),(0))")
    assert ok.zeta == -1


def test_validation_f1():
    # lam=(0,0) for Sp(4) admits exactly two positive systems
    good = 0
    from thetalift.roots import enumerate_positive_systems

    for psi in enumerate_positive_systems(SpKind(2)):
        try:
            validate_sp(SpParams((0, 0), psi, (), (), (1,), (Scalar.of(1),)))
            good += 1
        except ParamError:
            pass
    assert good == 2


_INVALID_SP = [
    # e1-e2 is a compact simple member on which lam vanishes: (F-1) fails
    SpParams((0, 0), parse_psi("{e1+e2,e1-e2,2e1,2e2}", SpKind(2)), (), (), (), ()),
    # half of the roots but no positive system
    SpParams((1, 0), PositiveSystem.of(SpKind(2), ((0, 1, 1, 1), (0, 1, 1, -1), (0, -2, 0, 0), (1, 2, 1, 0))), (), (), (), ()),
    # Psi of another rank
    SpParams((1,), parse_psi("{e1+e2,e1-e2,2e1,2e2}", SpKind(2)), (), (), (), ()),
]
_INVALID_O = [
    # -e1-f1 pairs negatively with lam: (F-1) fails
    OParams(1, 1, (1,), (1,), parse_psi("{e1-f1,-e1-f1}", OKind(1, 1)), (), (), (), ()),
    # Psi without the compact positives of O(4,2)
    OParams(1, 1, (2, 1), (1,), parse_psi("{-e1+e2,e1+e2,e1+f1,e1-f1,e2+f1,e2-f1}", OKind(2, 1)), (), (), (), ()),
]


@pytest.mark.parametrize(
    "validate,params",
    [(validate_sp, x) for x in _INVALID_SP] + [(validate_o, x) for x in _INVALID_O],
)
def test_invalid_psi_raises_on_every_call(validate, params):
    """The Psi verdict is cached, but only a passing one: an invalid
    parameter raises on each of two consecutive calls."""
    for _ in range(2):
        with pytest.raises(ParamError):
            validate(params)


def test_canonicalize_orders_pairs():
    x = SpParams(
        (),
        PositiveSystem.of(SpKind(0), ()),
        (3, 1),
        (Scalar.of(-2), GENERIC_B),
        (),
        (),
    )
    c = canonicalize_sp(x)
    assert c.mu == (1, 3)
    assert c.nu == (GENERIC_B, Scalar.of(2))
    y = SpParams(
        (),
        PositiveSystem.of(SpKind(0), ()),
        (),
        (),
        (1, -1, 1),
        (Scalar.of(-1), GENERIC_B, Scalar.of(0)),
    )
    cy = canonicalize_sp(y)
    assert cy.kappa == (Scalar.of(0), Scalar.of(1), GENERIC_B)
    assert cy.eps == (1, 1, -1)
    # a canonical form is returned as it is
    assert canonicalize_sp(c) is c and canonicalize_sp(cy) is cy


def test_canonicalize_o_zero_flip():
    """With lam=(0;0) the four O(2,2) systems fall into two classes."""
    reps = set()
    from thetalift.roots import enumerate_positive_systems

    for psi in enumerate_positive_systems(OKind(1, 1)):
        params = OParams(1, 1, (0,), (0,), psi, (), (), (), ())
        validate_o(params)
        reps.add(canonicalize_o(params))
    assert len(reps) == 2
    for rep in reps:
        assert canonicalize_o(rep) is rep


@pytest.mark.parametrize(
    "text",
    [
        "pi_{1}((0,0;0),1,{e1+e2,e1-e2,e1+f1,e1-f1,e2-f1,-e2-f1},0,0,0,0) @ O(4,2)",
        "pi_{1}((0;0,0),1,{e1+f1,-e1+f1,-e1+f2,-e1-f2,f1+f2,f1-f2},0,0,0,0) @ O(2,4)",
    ],
)
def test_zero_flip_keeps_the_compact_positives(text):
    """Of two zeros in one block only the last may flip: flipping the first
    takes a compact positive out of Psi, so the canonical text of these
    parameters is their input and parses back."""
    pi = o(text)
    assert render_o(pi) == text
    assert o(render_o(pi)) == pi


def _reference_zero_flip_orbit(psi, zero_coords):
    """The minimal Psi, compared as a tuple of coefficient vectors, over
    the sign flips of every subset of the zero coordinates that keep the
    compact positives."""

    def vectors(system):
        return tuple(dense(r, system.kind.dim) for r in system.roots)

    best = psi
    for k in range(1, len(zero_coords) + 1):
        for chosen in combinations(zero_coords, k):
            roots = ((i, -ci if i in chosen else ci, j, -cj if j in chosen else cj) for i, ci, j, cj in psi.roots)
            cand = PositiveSystem.of(psi.kind, roots)
            if vectors(cand) < vectors(best) and contains_delta_c_plus(cand):
                best = cand
    return best


def test_zero_flip_orbit_equals_the_search_over_every_zero_subset():
    """Flipping only the zero coordinates that end a half finds the same
    representative as flipping every subset of the zero coordinates, for
    every positive system of every O(2a,2d) with a + d <= 5 and every
    number of zeros ending each half."""
    cases = 0
    for a in range(6):
        for d in range(6 - a):
            for psi in enumerate_positive_systems(OKind(a, d)):
                for z_left in range(a + 1):
                    for z_right in range(d + 1):
                        left = (1,) * (a - z_left) + (0,) * z_left
                        right = (1,) * (d - z_right) + (0,) * z_right
                        zero_coords = tuple(i for i, x in enumerate(left + right) if x == 0)
                        ends = _zero_ends(left, right)
                        assert len(ends) <= 2
                        assert canonical_o_psi(psi, left, right) == _reference_zero_flip_orbit(psi, zero_coords)
                        cases += 1
    assert cases == 1045


def test_infchar():
    assert infchar_sp(sp("pi(0,{},(3),(b),(1),(1/2))")).render() == "(1/2,1/2*b-3/2,1/2*b+3/2)"
    assert infchar_o(trivial_o(4, 0)) == InfChar.of([0, 1])
    assert infchar_o(det_o(2, 2)) == InfChar.of([0, 1])
    assert infchar_sp(sp("pi(0,{},0,0,(1,1,1,1),(0,1,1,2))")) == InfChar.of([0, 1, 1, 2])


def test_one_dimensional_constructors():
    for p, q in [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
        t, d = trivial_o(p, q), det_o(p, q)
        validate_o(t)
        validate_o(d)
        assert (t.p, t.q) == (p, q)
        assert t != d
        assert infchar_o(t) == InfChar.of([0, 1])
        assert tensor_det_o(t) == d
        assert tensor_det_o(d) == t


def test_tensor_det_is_involution():
    cases = [
        trivial_o(3, 1),
        o("pi_{1}((2;1),1,{e1+f1,e1-f1},0,0,0,0)"),
        o("pi_{1}((0;),-1,{},0,0,(-1),(b)) @ O(3,1)"),
        o("pi_{-1}((1;1),1,{e1+f1,e1-f1},0,0,(1),(0))"),
    ]
    for x in cases:
        assert tensor_det_o(tensor_det_o(x)) == x


def test_swap_pq_involution():
    cases = [trivial_o(4, 0), det_o(3, 1), o("pi_{1}((2;1),1,{e1+f1,e1-f1},0,0,0,0)")]
    for x in cases:
        y = swap_pq(x)
        assert (y.p, y.q) == (x.q, x.p)
        assert swap_pq(y) == x
        assert infchar_o(y) == infchar_o(x)


def test_contragredient_sp_involution():
    cases = [
        sp("pi((1,0),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)"),
        sp("pi((0),{2e1},0,0,(-1),(1))"),
        sp("pi(0,{},(3),(b),(1),(1/2))"),
    ]
    for x in cases:
        y = contragredient_sp(x)
        validate_sp(y)
        assert contragredient_sp(y) == x
        assert infchar_sp(y) == infchar_sp(x)


def test_contragredient_fixes_or_flips_discrete_datum():
    x = sp("pi((1,0),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)")
    assert contragredient_sp(x).lam == (0, -1)
