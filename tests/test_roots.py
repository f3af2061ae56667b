import hashlib
import importlib
import itertools
import pkgutil
from fractions import Fraction

import pytest

import thetalift
from thetalift import lkt
from thetalift.enumeration import enumerate_sp_reps
from thetalift.exact import InfChar
from thetalift.roots import (
    OKind,
    PositiveSystem,
    SpKind,
    all_roots,
    check_dominance_f1,
    compact_roots,
    contains_delta_c_plus,
    delta_c_plus,
    enumerate_positive_systems,
    is_positive_system,
    noncompact_weights,
    pair_root,
    pairing,
    parse_psi,
    parse_root,
    render_root,
    rho_shift,
    simple_members,
    twice_rho_shift,
    two_rho_c,
)


def test_system_counts_sp():
    # the number of positive systems containing the compact positives is 2^v
    for v in range(8):
        assert len(enumerate_positive_systems(SpKind(v))) == 2**v


def test_system_counts_o():
    expected = {
        OKind(1, 1): 4,
        OKind(2, 0): 1,
        OKind(1, 0): 1,
        OKind(0, 0): 1,
        OKind(1, 1, odd=True): 2,
        OKind(1, 0, odd=True): 1,
        OKind(2, 1): 6,
    }
    for kind, count in expected.items():
        assert len(enumerate_positive_systems(kind)) == count, kind


def test_enumerated_systems_are_valid():
    """For every kind the package meets (Sp(2v) up to the enumerate cap, the
    even O frames with a + d <= 2, and the odd frames of O(3,1), O(1,3) and
    O(3,3)), ``enumerate_positive_systems`` gives distinct positive systems
    that all contain the compact positives."""
    kinds = (
        [SpKind(v) for v in range(8)]
        + [OKind(a, d) for a in range(3) for d in range(3 - a)]
        + [OKind(1, 0, odd=True), OKind(0, 1, odd=True), OKind(1, 1, odd=True)]
    )
    for kind in kinds:
        systems = enumerate_positive_systems(kind)
        assert len(set(systems)) == len(systems)
        for psi in systems:
            assert is_positive_system(kind, psi.roots)
            assert contains_delta_c_plus(psi)


def test_two_rho_c():
    assert two_rho_c(SpKind(3)) == (2, 0, -2)
    assert two_rho_c(OKind(1, 0, odd=True)) == (1,)
    assert two_rho_c(OKind(1, 1)) == (0, 0)
    assert two_rho_c(OKind(2, 1)) == (2, 0, 0)


def test_parse_render_round_trip():
    psi = parse_psi("{e1+e2,e1-e2,2e1,2e2}", SpKind(2))
    assert psi.render() == "{e1+e2,e1-e2,2e1,2e2}"
    assert parse_root("e1-f1", OKind(1, 1)) == (1, -1)
    assert parse_root("-2e1", SpKind(2)) == (-2, 0)
    assert render_root((0, -1), OKind(1, 1)) == "-f1"
    assert parse_psi("{}", SpKind(0)).render() == "{}"
    assert parse_root("f2-e01", OKind(1, 2)) == (-1, 0, 1)
    for text, kind in [
        ("e1+e2", SpKind(1)),
        ("f1", SpKind(1)),
        ("e0", SpKind(1)),
        ("e2", OKind(1, 1)),
        ("f2", OKind(1, 1)),
        ("e1+g1", OKind(1, 1)),
    ]:
        with pytest.raises(ValueError):
            parse_root(text, kind)


def test_dominance_f1_picks_out_psi_for_zero_datum():
    """For Sp(4) with lam=(0,0) exactly the two systems where e1-e2 is a sum
    of two members survive the strict-on-compact-simples condition."""
    systems = enumerate_positive_systems(SpKind(2))
    good = [psi for psi in systems if check_dominance_f1((0, 0), psi)]
    assert len(good) == 2
    for psi in good:
        assert (1, -1) not in simple_members(psi)
    renders = {psi.render() for psi in good}
    assert renders == {"{e1+e2,e1-e2,2e1,-2e2}", "{e1-e2,-e1-e2,2e1,-2e2}"}


def test_dominance_f1_regular():
    psi = parse_psi("{e1+e2,e1-e2,2e1,2e2}", SpKind(2))
    assert check_dominance_f1((2, 1), psi)
    assert check_dominance_f1((1, 0), psi)
    assert not check_dominance_f1((0, 1), psi)


def test_rho_shift_sp():
    shift = rho_shift((Fraction(1, 2), Fraction(0), Fraction(-1, 2)), SpKind(3))
    assert shift == (Fraction(1, 2), Fraction(0), Fraction(-1, 2))
    # regular integral datum: shift is rho(noncompact>0) - rho(compact>0)
    assert rho_shift((2, 1), SpKind(2)) == (Fraction(1), Fraction(2))


def test_rho_shift_o_odd_shorts_cancel():
    # for O(odd,odd) kinds the short roots are both compact and noncompact
    assert rho_shift((3,), OKind(1, 0, odd=True)) == (Fraction(0),)


def test_delta_c_plus_tables():
    assert set(delta_c_plus(OKind(1, 1))) == set()
    assert set(delta_c_plus(OKind(1, 1, odd=True))) == {(1, 0), (0, 1)}
    assert set(delta_c_plus(SpKind(2))) == {(1, -1)}
    assert set(delta_c_plus(OKind(2, 1))) == {(1, 1, 0), (1, -1, 0)}


def test_all_roots_is_the_root_system():
    """C_n on the Sp side, D_m or B_m (with the short roots) on the O side,
    each root once."""
    kinds = [SpKind(v) for v in range(7)] + [
        OKind(a, d, odd) for a in range(4) for d in range(4) for odd in (False, True)
    ]
    for kind in kinds:
        m = kind.dim
        want = set()
        for i, j in itertools.combinations(range(m), 2):
            for si, sj in itertools.product((1, -1), repeat=2):
                want.add(tuple(si if k == i else sj if k == j else 0 for k in range(m)))
        if isinstance(kind, SpKind) or kind.odd:
            c = 2 if isinstance(kind, SpKind) else 1
            for i in range(m):
                for s in (c, -c):
                    want.add(tuple(s if k == i else 0 for k in range(m)))
        roots = all_roots(kind)
        assert len(roots) == len(want) and set(roots) == want, kind


ROOT_TABLES_SHA256 = "72d118149e08db5ef802e328811409b0493e1e20aa13c44e9e1700481bdfac27"


def test_root_tables_are_pinned():
    """The compact positives, compact roots and noncompact weights of every
    kind up to Sp(12,R) and O(7,7), as multisets, and the positive systems
    of every Sp kind and every O kind with at most four coordinates."""
    kinds = [SpKind(v) for v in range(7)] + [
        OKind(a, d, odd) for a in range(4) for d in range(4) for odd in (False, True)
    ]
    lines = []
    for kind in kinds:
        tables = (delta_c_plus(kind), compact_roots(kind), noncompact_weights(kind))
        lines.append(repr((kind, *(sorted(t) for t in tables))))
        if isinstance(kind, SpKind) or kind.dim <= 4:
            lines.append(repr([psi.roots for psi in enumerate_positive_systems(kind)]))
    assert len(lines) == 72
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ROOT_TABLES_SHA256


def test_pair_root():
    assert pair_root(3, 0, 2, 1, -1) == (1, 0, -1)
    assert pair_root(3, 1, 1, 1, 1) == (0, 2, 0)
    assert pair_root(2, 0, 0, -2, 0) == (-2, 0)


def test_positive_system_rejects_foreign_roots():
    with pytest.raises(ValueError):
        PositiveSystem.of(SpKind(2), ((1, 1, 0),))
    assert not is_positive_system(SpKind(2), ((1, 1), (-1, -1), (2, 0), (0, 2)))
    assert not is_positive_system(SpKind(2), ((1, 1), (2, 0), (0, 2)))


# -- integer arithmetic against the Fraction reference ------------------------


def _reference_pairing(vec, root):
    return sum((Fraction(v) * c for v, c in zip(vec, root)), start=Fraction(0))


def _reference_rho_shift(vec, kind):
    """rho(u cap p) - rho(u cap k), summed in Fractions one weight at a time."""
    acc = [Fraction(0)] * kind.dim
    for w in noncompact_weights(kind):
        if _reference_pairing(vec, w) > 0:
            for i, c in enumerate(w):
                acc[i] += Fraction(c, 2)
    for r in compact_roots(kind):
        if _reference_pairing(vec, r) > 0:
            for i, c in enumerate(r):
                acc[i] -= Fraction(c, 2)
    return tuple(acc)


_SMALL_KINDS = [SpKind(v) for v in range(1, 4)] + [
    OKind(a, d, odd=odd)
    for odd in (False, True)
    for a in range(4)
    for d in range(4 - a)
]


def _half_integer_grid(dim):
    """Every vector over {-2, -3/2, ..., 2}, integral entries given as ints."""
    values = [k // 2 if k % 2 == 0 else Fraction(k, 2) for k in range(-4, 5)]
    return itertools.product(values, repeat=dim)


@pytest.mark.parametrize("kind", _SMALL_KINDS, ids=lambda k: k.render())
def test_rho_shift_matches_fraction_reference_on_half_integer_grid(kind):
    for vec in _half_integer_grid(kind.dim):
        got = rho_shift(vec, kind)
        assert got == _reference_rho_shift(vec, kind), vec
        assert all(isinstance(x, Fraction) for x in got)


def test_rho_shift_matches_fraction_reference_on_rank_four_census():
    """For every member of a rank-4 census, the doubled vector 2*lambda_a
    that ``lkt`` builds is the member's (lam, mu, t) doubled, and half of
    the shift ``lkt`` adds to it is the Fraction shift of lambda_a."""
    reps = enumerate_sp_reps(4, InfChar.of([0, 1, 2, 3]))
    assert reps
    for pi in reps:
        lam2, base2 = lkt._sp_shift(pi.lam, pi.mu, pi.t)[:2]
        want = [2 * x for x in pi.lam] + list(pi.mu) + [0] * pi.t + [-m for m in pi.mu]
        assert list(lam2) == sorted(want, reverse=True), pi
        shift = [b - x for x, b in zip(lam2, base2)]
        assert shift == twice_rho_shift(lam2, SpKind(pi.n)), pi
        half = tuple(Fraction(x, 2) for x in shift)
        assert half == _reference_rho_shift([Fraction(x, 2) for x in lam2], SpKind(pi.n)), pi


def test_pairing_matches_fraction_reference():
    kind = OKind(2, 1, odd=True)
    vecs = [(3, -1, 0), (Fraction(5, 2), Fraction(-1, 2), Fraction(3)), (Fraction(1, 3), 2, -7)]
    for vec in vecs:
        for root in all_roots(kind):
            assert pairing(vec, root) == _reference_pairing(vec, root)


# -- memoized (F-1) check ---------------------------------------------------------


def _reference_dominance_f1(vec, psi):
    """(F-1) with the compact roots and simple members rebuilt on each call."""
    compact = set(compact_roots(psi.kind))
    if any(pairing(vec, r) < 0 for r in psi.roots):
        return False
    return all(pairing(vec, r) > 0 for r in simple_members(psi) if r in compact)


def test_dominance_f1_matches_uncached_reference():
    kinds = [SpKind(v) for v in range(1, 6)] + [
        OKind(a, d) for a in range(5) for d in range(5 - a) if a + d > 0
    ]
    accepted = 0
    for kind in kinds:
        values = (-1, 0, 1) if kind.dim == 5 else (-1, 0, 1, 2)
        for psi in enumerate_positive_systems(kind):
            for vec in itertools.product(values, repeat=kind.dim):
                want = _reference_dominance_f1(vec, psi)
                assert check_dominance_f1(vec, psi) == want, (vec, psi)
                accepted += want
    assert accepted > 0


# -- memoized positivity check ----------------------------------------------------


@pytest.mark.parametrize("kind", [SpKind(3), OKind(1, 1)], ids=lambda k: k.render())
def test_is_positive_system_depends_on_the_root_set_only(kind):
    for psi in enumerate_positive_systems(kind):
        roots = psi.roots
        assert is_positive_system(kind, tuple(roots))
        assert is_positive_system(kind, (r for r in roots))
        assert is_positive_system(kind, list(roots) + [roots[0]])
        simple = set(simple_members(psi))
        for r in roots:
            neg = tuple(-c for c in r)
            flipped = [neg if x == r else x for x in roots]
            # flipping a simple root reflects Psi to another positive system
            assert is_positive_system(kind, flipped) == (r in simple)
            assert not is_positive_system(kind, list(roots) + [neg])
        assert is_positive_system(kind, roots)


# -- sum-table checks against all pairs ------------------------------------------


def _reference_is_positive_system(kind, roots):
    """Exactly one of each +-pair, closed under addition: every pair added."""
    rset, delta = frozenset(roots), frozenset(all_roots(kind))
    if not rset <= delta or 2 * len(rset) != len(delta):
        return False
    if any(tuple(-c for c in r) in rset for r in rset):
        return False
    for x, y in itertools.combinations(rset, 2):
        z = tuple(cx + cy for cx, cy in zip(x, y))
        if z in delta and z not in rset:
            return False
    return True


def _reference_simple_members(psi):
    """Members of Psi from which no other member subtracts to a member."""
    rset = set(psi.roots)
    return tuple(
        r
        for r in psi.roots
        if not any(tuple(rc - xc for rc, xc in zip(r, x)) in rset for x in rset if x != r)
    )


# every Sp(2v) kind up to the enumerate cap, and the O frames the package uses
_SUM_TABLE_KINDS = (
    [SpKind(v) for v in range(1, 8)]
    + [OKind(a, d) for a in range(3) for d in range(3 - a) if a + d > 0]
    + [OKind(1, 0, odd=True), OKind(0, 1, odd=True), OKind(1, 1, odd=True)]
)


@pytest.mark.parametrize("kind", _SUM_TABLE_KINDS, ids=lambda k: repr(k))
def test_sum_table_checks_match_all_pairs(kind):
    """``is_positive_system`` and ``simple_members`` read root sums from a
    per-kind table; their verdicts equal the all-pairs versions on every
    positive system and on it with one root negated: a simple member,
    which reflects it to another positive system, or the first member that
    is not simple, which leaves a set that is not closed."""
    for psi in enumerate_positive_systems(kind):
        roots = psi.roots
        assert is_positive_system(kind, roots) and _reference_is_positive_system(kind, roots)
        simple = simple_members(psi)
        assert simple == _reference_simple_members(psi)
        others = [r for r in roots if r not in simple]
        for r in list(simple) + others[:1]:
            flipped = [tuple(-c for c in x) if x == r else x for x in roots]
            want = _reference_is_positive_system(kind, flipped)
            assert is_positive_system(kind, flipped) == want == (r in simple), (psi, r)


# -- hashing --------------------------------------------------------------------------


def test_positive_systems_built_apart_hash_and_compare_equal():
    for kind in (SpKind(3), OKind(1, 1), OKind(1, 0, odd=True)):
        for psi in enumerate_positive_systems(kind):
            again = PositiveSystem.of(kind, reversed(psi.roots))
            other = parse_psi(psi.render(), kind)
            assert again is not psi and again == psi == other
            assert hash(again) == hash(psi) == hash(other)
            table = {psi: psi.render()}
            assert table[again] == table[other] == psi.render()
    systems = enumerate_positive_systems(SpKind(3))
    assert len({hash(psi) for psi in systems}) == len(systems)
    assert PositiveSystem.of(SpKind(0), ()) != PositiveSystem.of(OKind(0, 0), ())


# -- cache bounds -------------------------------------------------------------------

# Unbounded caches whose domain is bounded by design: the per-kind root
# tables, the argument-free CLI parser, and the one-dimensional
# parameters (two per supported signature; other signatures raise, and
# lru caches store no exception).
_UNBOUNDED_BY_DESIGN = {
    "cli._parser",
    "langlands._one_dim_o",
    "roots.all_roots",
    "roots.root_set",
    "roots.compact_roots",
    "roots.delta_c_plus",
    "roots.noncompact_weights",
    "roots._rho_shift_terms",
    "roots.enumerate_positive_systems",
}


# The data-keyed caches, each bounded.  A new cache must be listed here or
# above, so that adding one is a visible decision.
_BOUNDED = {
    "ktypes.o_from_u",
    "ktypes.u_from_o",
    "langlands._render_scalars",
    "langlands._validate_psi",
    "langlands._zero_flip_orbit",
    "lkt._sp_lowest",
    "lkt._sp_shift",
    "roots._f1_terms",
    "roots._root_sums",
}


def test_data_keyed_caches_are_bounded():
    """Every lru cache in the package that is keyed on data has a finite
    maxsize, so a long census run cannot grow it without limit, and the
    package has exactly the caches listed above."""
    sizes = {}
    for info in pkgutil.iter_modules(thetalift.__path__):
        module = importlib.import_module(f"thetalift.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                sizes[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert {name for name, size in sizes.items() if size is not None} == _BOUNDED
    assert {name for name, size in sizes.items() if size is None} == _UNBOUNDED_BY_DESIGN
