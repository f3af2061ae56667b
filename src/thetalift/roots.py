"""Root-system helpers for Sp(2n,R) and O(p,q).

Weights are integer coefficient tuples over the basis e_1..e_a, f_1..f_d
(O side) or e_1..e_v (Sp side).  Compact positive systems are fixed once
and for all; the positive systems Psi appearing in parameters are always
required to contain the compact positives.  The per-kind root tables
depend only on the frozen kind and are computed once per process.
"""

from __future__ import annotations

import functools
import itertools
import math
import re as _regex

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Q = Fraction

Root = tuple[int, ...]


@dataclass(frozen=True)
class SpKind:
    rank: int

    @property
    def dim(self) -> int:
        return self.rank

    def coord_name(self, i: int) -> str:
        return f"e{i + 1}"

    def render(self) -> str:
        return f"Sp({2 * self.rank},R)"


@dataclass(frozen=True)
class OKind:
    """Coordinate frame for O(p,q): `left` e-coordinates, `right` f-coordinates.

    odd=False models O(2*left, 2*right); odd=True models O(2*left+1, 2*right+1).
    """

    left: int
    right: int
    odd: bool = False

    @property
    def dim(self) -> int:
        return self.left + self.right

    def coord_name(self, i: int) -> str:
        if i < self.left:
            return f"e{i + 1}"
        return f"f{i - self.left + 1}"

    def render(self) -> str:
        extra = 1 if self.odd else 0
        return f"O({2 * self.left + extra},{2 * self.right + extra})"


GroupKind = Union[SpKind, OKind]


def _unit(kind: GroupKind, i: int, c: int) -> Root:
    v = [0] * kind.dim
    v[i] = c
    return tuple(v)


def _pair(kind: GroupKind, i: int, j: int, ci: int, cj: int) -> Root:
    v = [0] * kind.dim
    v[i] = ci
    v[j] = cj
    return tuple(v)


@functools.cache
def delta_c_plus(kind: GroupKind) -> tuple[Root, ...]:
    """The fixed standard positive compact roots."""
    out: list[Root] = []
    if isinstance(kind, SpKind):
        for i, j in itertools.combinations(range(kind.rank), 2):
            out.append(_pair(kind, i, j, 1, -1))
        return tuple(out)
    a, d = kind.left, kind.right
    for i, j in itertools.chain(
        itertools.combinations(range(a), 2), itertools.combinations(range(a, a + d), 2)
    ):
        out.extend((_pair(kind, i, j, 1, 1), _pair(kind, i, j, 1, -1)))
    if kind.odd:
        out.extend(_unit(kind, i, 1) for i in range(a + d))
    return tuple(out)


@functools.cache
def compact_roots(kind: GroupKind) -> tuple[Root, ...]:
    plus = delta_c_plus(kind)
    return plus + tuple(tuple(-c for c in r) for r in plus)


@functools.cache
def noncompact_weights(kind: GroupKind) -> tuple[Root, ...]:
    """Weights of the complexified p-part (both signs)."""
    out: list[Root] = []
    if isinstance(kind, SpKind):
        n = kind.rank
        for i, j in itertools.combinations(range(n), 2):
            out.append(_pair(kind, i, j, 1, 1))
            out.append(_pair(kind, i, j, -1, -1))
        for i in range(n):
            out.extend((_unit(kind, i, 2), _unit(kind, i, -2)))
        return tuple(out)
    a, d = kind.left, kind.right
    for i in range(a):
        for j in range(a, a + d):
            out.extend(_pair(kind, i, j, si, sj) for si, sj in itertools.product((1, -1), repeat=2))
    if kind.odd:
        for i in range(a + d):
            out.extend((_unit(kind, i, 1), _unit(kind, i, -1)))
    return tuple(out)


@functools.cache
def all_roots(kind: GroupKind) -> tuple[Root, ...]:
    """The compact roots, then the noncompact weights that are not compact
    (the short roots of an odd frame are both)."""
    compact = compact_roots(kind)
    return compact + tuple(w for w in noncompact_weights(kind) if w not in compact)


def two_rho_c(kind: GroupKind) -> tuple[int, ...]:
    acc = [0] * kind.dim
    for r in delta_c_plus(kind):
        for i, c in enumerate(r):
            acc[i] += c
    return tuple(acc)


def pairing(vec: Sequence[Q | int], root: Root) -> Q | int:
    return sum(v * c for v, c in zip(vec, root))


def rho_shift(vec: Sequence[Q | int], kind: GroupKind) -> tuple[Q, ...]:
    """rho(u cap p) - rho(u cap k) for the parabolic defined by ``vec``.

    u collects the weights strictly positive on ``vec``; short roots of the
    odd orthogonal frame occur on both sides and cancel.  The signs are
    taken on ``vec`` scaled to integers, and twice the shift is summed as
    integers.
    """
    scale = math.lcm(*(x.denominator for x in vec))
    ivec = [x.numerator * (scale // x.denominator) for x in vec]
    twice = [0] * kind.dim
    for w in noncompact_weights(kind):
        if pairing(ivec, w) > 0:
            for i, c in enumerate(w):
                twice[i] += c
    for r in compact_roots(kind):
        if pairing(ivec, r) > 0:
            for i, c in enumerate(r):
                twice[i] -= c
    return tuple(Q(x, 2) for x in twice)


# -- rendering and parsing -------------------------------------------------

_ROOT_TERM = _regex.compile(r"([+-]?)(2?)([ef])(\d+)")


def parse_root(text: str, kind: GroupKind) -> Root:
    s = text.replace(" ", "")
    slots = {kind.coord_name(i): i for i in range(kind.dim)}
    v = [0] * kind.dim
    pos = 0
    seen = False
    for m in _ROOT_TERM.finditer(s):
        if m.start() != pos:
            raise ValueError(f"bad root {text!r}")
        pos = m.end()
        seen = True
        sign = -1 if m.group(1) == "-" else 1
        coef = 2 if m.group(2) else 1
        slot = slots.get(f"{m.group(3)}{int(m.group(4))}")
        if slot is None:
            raise ValueError(f"bad root {text!r} for {kind.render()}")
        v[slot] += sign * coef
    if not seen or pos != len(s):
        raise ValueError(f"bad root {text!r}")
    return tuple(v)


def render_root(root: Root, kind: GroupKind) -> str:
    nz = [(i, c) for i, c in enumerate(root) if c != 0]
    if len(nz) == 1:
        i, c = nz[0]
        mag = "2" if abs(c) == 2 else ""
        return ("-" if c < 0 else "") + mag + kind.coord_name(i)
    if len(nz) == 2 and all(abs(c) == 1 for _, c in nz):
        (i, ci), (j, cj) = nz
        first = ("-" if ci < 0 else "") + kind.coord_name(i)
        second = ("-" if cj < 0 else "+") + kind.coord_name(j)
        return first + second
    raise ValueError(f"not a renderable root: {root}")


def root_sort_key(root: Root, kind: GroupKind) -> tuple:
    nz = [(i, c) for i, c in enumerate(root) if c != 0]
    if len(nz) == 2:
        (i, ci), (j, cj) = nz
        return (0, i, j, -cj, -ci)
    (i, c) = nz[0]
    return ((1, i, -c) if abs(c) == 2 else (2, i, -c))


@dataclass(frozen=True)
class PositiveSystem:
    """A positive system Psi of the full root system, stored sorted."""

    kind: GroupKind
    roots: tuple[Root, ...]

    @staticmethod
    def of(kind: GroupKind, roots: Iterable[Root]) -> "PositiveSystem":
        uniq = sorted(set(roots), key=lambda r: root_sort_key(r, kind))
        allowed = set(all_roots(kind))
        for r in uniq:
            if r not in allowed:
                raise ValueError(f"{r} is not a root of {kind.render()}")
        return PositiveSystem(kind, tuple(uniq))

    def contains(self, root: Root) -> bool:
        return root in set(self.roots)

    def render(self) -> str:
        return "{" + ",".join(render_root(r, self.kind) for r in self.roots) + "}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def parse_psi(text: str, kind: GroupKind) -> PositiveSystem:
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"bad root set {text!r}")
    body = s[1:-1].strip()
    if not body:
        return PositiveSystem.of(kind, ())
    return PositiveSystem.of(kind, (parse_root(tok, kind) for tok in body.split(",")))


def is_positive_system(kind: GroupKind, roots: Iterable[Root]) -> bool:
    """Exactly one of each +-pair, closed under addition inside the root system."""
    return _is_positive_root_set(kind, frozenset(roots))


@functools.lru_cache(maxsize=1024)
def _is_positive_root_set(kind: GroupKind, rset: frozenset[Root]) -> bool:
    delta = set(all_roots(kind))
    if not rset <= delta:
        return False
    if 2 * len(rset) != len(delta):
        return False
    for r in rset:
        if tuple(-c for c in r) in rset:
            return False
    for x, y in itertools.combinations(rset, 2):
        z = tuple(cx + cy for cx, cy in zip(x, y))
        if z in delta and z not in rset:
            return False
    return True


def contains_delta_c_plus(psi: PositiveSystem) -> bool:
    rset = set(psi.roots)
    return all(r in rset for r in delta_c_plus(psi.kind))


def simple_members(psi: PositiveSystem) -> tuple[Root, ...]:
    """Members of Psi that are not a sum of two members of Psi."""
    rset = set(psi.roots)
    out = []
    for r in psi.roots:
        decomposable = any(
            tuple(rc - xc for rc, xc in zip(r, x)) in rset for x in rset if x != r
        )
        if not decomposable:
            out.append(r)
    return tuple(out)


def check_dominance_f1(vec: Sequence[Q | int], psi: PositiveSystem) -> bool:
    """Weak dominance on all of Psi plus strict positivity on compact
    simple members (condition F-1)."""
    compact = set(compact_roots(psi.kind))
    for r in psi.roots:
        if pairing(vec, r) < 0:
            return False
    for r in simple_members(psi):
        if r in compact and pairing(vec, r) <= 0:
            return False
    return True


def _magnitudes(count: int) -> list[int]:
    return [2 ** (count - i) for i in range(count)]


@functools.cache
def enumerate_positive_systems(kind: GroupKind) -> tuple[PositiveSystem, ...]:
    """All positive systems containing the standard compact positives.

    Built from regular defining vectors with power-of-two magnitudes: the
    roots positive on such a vector form a positive system, and magnitudes
    decreasing along each block put the compact positives in it.
    """
    vectors: list[list[Q]] = []
    if isinstance(kind, SpKind):
        v = kind.rank
        mags = _magnitudes(v)
        for pos_ranks in itertools.product((1, -1), repeat=v):
            values = sorted((s * m for s, m in zip(pos_ranks, mags)), reverse=True)
            vectors.append([Q(x) for x in values])
    else:
        a, d = kind.left, kind.right
        mags = _magnitudes(a + d)
        for e_ranks in itertools.combinations(range(a + d), a):
            f_ranks = [i for i in range(a + d) if i not in e_ranks]
            for se, sf in itertools.product(
                (1,) if (kind.odd or a == 0) else (1, -1),
                (1,) if (kind.odd or d == 0) else (1, -1),
            ):
                evals = [Q(mags[i]) for i in e_ranks]
                fvals = [Q(mags[i]) for i in f_ranks]
                if evals:
                    evals[-1] *= se
                if fvals:
                    fvals[-1] *= sf
                vectors.append(evals + fvals)
    delta = all_roots(kind)
    seen: dict[tuple[Root, ...], PositiveSystem] = {}
    for vec in vectors:
        roots = tuple(r for r in delta if pairing(vec, r) > 0)
        psi = PositiveSystem.of(kind, roots)
        seen.setdefault(psi.roots, psi)
    return tuple(sorted(seen.values(), key=lambda p: p.roots))
