"""Root-system helpers for Sp(2n,R) and O(p,q).

Weights are integer coefficient tuples over the basis e_1..e_a, f_1..f_d
(O side) or e_1..e_v (Sp side).  Each kind states two facts, and every
per-kind table is derived from them:

- its axis coefficient c, so that the roots are +-e_i+-e_j and +-c*e_i:
  2 on Sp(2n,R) (type C), 1 on an odd orthogonal frame (type B), and 0,
  meaning no axis roots, on an even one (type D);
- which roots are compact: those of U(n), e_i - e_j, on Sp(2n,R); those
  of O(p) x O(q), supported inside one block, on O(p,q).

Compact positive systems are fixed once and for all as the compact roots
positive on (m, ..., 1); the positive systems Psi appearing in parameters
are always required to contain them.  The per-kind root tables depend
only on the frozen kind and are computed once per process; the positive
systems of a kind are built by a backtrack over signed permutations that
prunes on the compact positives, and the positivity and simple-member
checks read their answers off 2 rho_Psi, the sum of the roots of Psi.

Per-datum work is kept in a bounded cache, so that a census pays it once
per distinct input rather than once per parameter: each Psi is compiled
into integer (index, coefficient) terms for the (F-1) check once
(``_f1_terms``), each root-set text is parsed once per kind
(``parse_psi``), so that table rows and queries sharing a Psi share its
parse, and the rho shift is computed once per doubled vector and kind
(``twice_rho_shift``), which both sides' lowest K-types share.
"""

from __future__ import annotations

import functools
import itertools
import math
import re as _regex

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Q = Fraction

Root = tuple[int, ...]


class SpKind(NamedTuple):
    rank: int

    axis = 2

    @property
    def dim(self) -> int:
        return self.rank

    def is_compact(self, root: Root) -> bool:
        return sum(root) == 0

    def coord_name(self, i: int) -> str:
        return f"e{i + 1}"

    def render(self) -> str:
        return f"Sp({2 * self.rank},R)"


class OKind(NamedTuple):
    """Coordinate frame for O(p,q): `left` e-coordinates, `right` f-coordinates.

    odd=False models O(2*left, 2*right); odd=True models O(2*left+1, 2*right+1).
    """

    left: int
    right: int
    odd: bool = False

    @property
    def dim(self) -> int:
        return self.left + self.right

    @property
    def axis(self) -> int:
        return 1 if self.odd else 0

    def is_compact(self, root: Root) -> bool:
        return not (any(root[: self.left]) and any(root[self.left :]))

    def coord_name(self, i: int) -> str:
        if i < self.left:
            return f"e{i + 1}"
        return f"f{i - self.left + 1}"

    def render(self) -> str:
        extra = 1 if self.odd else 0
        return f"O({2 * self.left + extra},{2 * self.right + extra})"


GroupKind = Union[SpKind, OKind]


def pair_root(dim: int, i: int, j: int, ci: int, cj: int) -> Root:
    """The root ci*e_i + cj*e_j of a frame with ``dim`` coordinates;
    i == j gives (ci+cj)*e_i."""
    root = [0] * dim
    root[i] += ci
    root[j] += cj
    return tuple(root)


@functools.cache
def all_roots(kind: GroupKind) -> tuple[Root, ...]:
    """+-e_i+-e_j, plus +-c*e_i for the kind's axis coefficient c."""
    m, c = kind.dim, kind.axis
    out = [
        pair_root(m, i, j, si, sj)
        for i, j in itertools.combinations(range(m), 2)
        for si, sj in itertools.product((1, -1), repeat=2)
    ]
    if c:
        out += [pair_root(m, i, i, s * c, 0) for i in range(m) for s in (1, -1)]
    return tuple(out)


@functools.cache
def root_set(kind: GroupKind) -> frozenset[Root]:
    return frozenset(all_roots(kind))


@functools.cache
def compact_roots(kind: GroupKind) -> tuple[Root, ...]:
    return tuple(r for r in all_roots(kind) if kind.is_compact(r))


@functools.cache
def delta_c_plus(kind: GroupKind) -> tuple[Root, ...]:
    """The fixed standard positive compact roots: those positive on (m, ..., 1)."""
    m = kind.dim
    return tuple(r for r in compact_roots(kind) if pairing(range(m, 0, -1), r) > 0)


@functools.cache
def noncompact_weights(kind: GroupKind) -> tuple[Root, ...]:
    """Weights of the complexified p-part (both signs): the noncompact
    roots, plus the short roots +-e_i of an odd frame, which are compact too."""
    return tuple(
        r for r in all_roots(kind) if not kind.is_compact(r) or sum(map(abs, r)) == 1
    )


def _root_sum(dim: int, roots: Iterable[Root]) -> tuple[int, ...]:
    acc = [0] * dim
    for r in roots:
        for i, c in enumerate(r):
            acc[i] += c
    return tuple(acc)


def two_rho_c(kind: GroupKind) -> tuple[int, ...]:
    return _root_sum(kind.dim, delta_c_plus(kind))


def pairing(vec: Sequence[Q | int], root: Root) -> Q | int:
    return sum(v * c for v, c in zip(vec, root))


# A root as (i, ci, j, cj): it pairs with a vector v as v[i]*ci + v[j]*cj.
# A root with one nonzero entry has j = i and cj = 0.
Term = tuple[int, int, int, int]


def _term(root: Root) -> Term:
    nz = [(i, c) for i, c in enumerate(root) if c]
    (i, ci), (j, cj) = nz if len(nz) == 2 else nz + [(nz[0][0], 0)]
    return i, ci, j, cj


@functools.cache
def _rho_shift_terms(kind: GroupKind) -> tuple[tuple[int, Term], ...]:
    """(sign, term) of every weight the rho shift counts: +1 for the
    weights of p, -1 for the compact roots.  The short roots of an odd
    frame are in both and cancel, so they are left out."""
    noncompact, compact = noncompact_weights(kind), compact_roots(kind)
    both = set(noncompact) & set(compact)
    signed = [(1, w) for w in noncompact if w not in both]
    signed += [(-1, r) for r in compact if r not in both]
    return tuple((sign, _term(w)) for sign, w in signed)


@functools.lru_cache(maxsize=4096)
def twice_rho_shift(ivec: tuple[int, ...], kind: GroupKind) -> tuple[int, ...]:
    """2 * (rho(u cap p) - rho(u cap k)) for the parabolic defined by the
    integer vector ``ivec``, which must be a tuple: it is the memo's key.

    u collects the weights strictly positive on ``ivec``, so any positive
    multiple of a vector defines the same shift."""
    twice = [0] * kind.dim
    for sign, (i, ci, j, cj) in _rho_shift_terms(kind):
        if ivec[i] * ci + ivec[j] * cj > 0:
            twice[i] += sign * ci
            twice[j] += sign * cj
    return tuple(twice)


def rho_shift(vec: Sequence[Q | int], kind: GroupKind) -> tuple[Q, ...]:
    """rho(u cap p) - rho(u cap k) for the parabolic defined by ``vec``:
    ``twice_rho_shift`` of ``vec`` scaled to integers, halved."""
    scale = math.lcm(*(x.denominator for x in vec))
    ivec = tuple(x.numerator * (scale // x.denominator) for x in vec)
    return tuple(Q(x, 2) for x in twice_rho_shift(ivec, kind))


# -- rendering and parsing -------------------------------------------------

_ROOT_TERM = _regex.compile(r"([+-]?)(2?)([ef])(\d+)")


@functools.cache
def _coord_slots(kind: GroupKind) -> dict[str, int]:
    return {kind.coord_name(i): i for i in range(kind.dim)}


def parse_root(text: str, kind: GroupKind) -> Root:
    s = text.replace(" ", "")
    slots = _coord_slots(kind)
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


class Frozen:
    """An immutable record that, unlike a NamedTuple, can carry state
    derived from its fields that does not count: equality, the hash
    (computed once) and repr read only the attributes in ``_fields``.
    Constructors set ``__dict__`` directly.  Three records keep such state:
    ``PositiveSystem`` (its member set and text), ``theta.Condition`` (its
    parsed atoms) and ``theta.LiftTable`` (its rows grouped by shape)."""

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({pairs})"


class PositiveSystem(Frozen):
    """A positive system Psi of the full root system, stored sorted."""

    _fields = ("kind", "roots")

    def __init__(self, kind: GroupKind, roots: tuple[Root, ...]):
        self.__dict__.update(kind=kind, roots=roots)

    @staticmethod
    def of(kind: GroupKind, roots: Iterable[Root]) -> "PositiveSystem":
        uniq = sorted(set(roots), key=lambda r: root_sort_key(r, kind))
        allowed = root_set(kind)
        for r in uniq:
            if r not in allowed:
                raise ValueError(f"{r} is not a root of {kind.render()}")
        return PositiveSystem(kind, tuple(uniq))

    def contains(self, root: Root) -> bool:
        return root in self._members

    def render(self) -> str:
        return self._text

    # Computed once per instance; not fields, so equality ignores them.
    @functools.cached_property
    def _members(self) -> frozenset[Root]:
        return frozenset(self.roots)

    @functools.cached_property
    def _text(self) -> str:
        return "{" + ",".join(render_root(r, self.kind) for r in self.roots) + "}"

    def __str__(self) -> str:
        return self.render()


@functools.lru_cache(maxsize=1024)
def parse_psi(text: str, kind: GroupKind) -> PositiveSystem:
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"bad root set {text!r}")
    body = s[1:-1].strip()
    if not body:
        return PositiveSystem.of(kind, ())
    return PositiveSystem.of(kind, (parse_root(tok, kind) for tok in body.split(",")))


def is_positive_system(kind: GroupKind, roots: Iterable[Root]) -> bool:
    """Roots of ``kind``, exactly one of each +-pair, each positive on their
    sum 2 rho.  That sum is then regular and the roots are the positive
    roots of its chamber; on the reduced systems of types B, C and D this
    is the same as being closed under addition."""
    rset, delta = frozenset(roots), root_set(kind)
    if not rset <= delta or 2 * len(rset) != len(delta):
        return False
    if any(tuple(-c for c in r) in rset for r in rset):
        return False
    two_rho = _root_sum(kind.dim, rset)
    return all(pairing(two_rho, r) > 0 for r in rset)


def contains_delta_c_plus(psi: PositiveSystem) -> bool:
    return all(psi.contains(r) for r in delta_c_plus(psi.kind))


def simple_members(psi: PositiveSystem) -> tuple[Root, ...]:
    """The simple roots of Psi, which must be a positive system: the members
    alpha with <rho, alpha^vee> = 1, i.e. <alpha, 2 rho> = <alpha, alpha>."""
    two_rho = _root_sum(psi.kind.dim, psi.roots)
    return tuple(r for r in psi.roots if pairing(two_rho, r) == pairing(r, r))


@functools.lru_cache(maxsize=1024)
def _f1_terms(psi: PositiveSystem) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """The terms of every member of Psi, and of its compact simple members:
    (F-1) compiled once per Psi."""
    compact = set(compact_roots(psi.kind))
    strict = (r for r in simple_members(psi) if r in compact)
    return tuple(map(_term, psi.roots)), tuple(map(_term, strict))


def check_dominance_f1(vec: Sequence[Q | int], psi: PositiveSystem) -> bool:
    """Weak dominance on all of Psi plus strict positivity on compact
    simple members (condition F-1)."""
    weak, strict = _f1_terms(psi)
    for i, ci, j, cj in weak:
        if vec[i] * ci + vec[j] * cj < 0:
            return False
    for i, ci, j, cj in strict:
        if vec[i] * ci + vec[j] * cj <= 0:
            return False
    return True


@functools.cache
def enumerate_positive_systems(kind: GroupKind) -> tuple[PositiveSystem, ...]:
    """All positive systems containing the standard compact positives.

    Each is the set of roots positive on a signed permutation of (1, ..., m)
    that is positive on the compact positives.  These vectors are regular,
    and one lies in every Weyl chamber of B_m and C_m, so every chamber of
    D_m is reached too.  They are built one coordinate at a time, and a
    prefix is dropped as soon as a compact positive supported on it fails,
    so only the vectors positive on the compact positives are completed.
    """
    m = kind.dim
    delta = all_roots(kind)
    # the compact positives checked once coordinate k is set: those whose
    # last nonzero coordinate is k
    closing: list[list[Term]] = [[] for _ in range(m)]
    for i, ci, j, cj in map(_term, delta_c_plus(kind)):
        closing[max(i, j)].append((i, ci, j, cj))
    seen: dict[tuple[Root, ...], PositiveSystem] = {}

    def extend(vec: list[int], free: tuple[int, ...]) -> None:
        k = len(vec)
        if k == m:
            psi = PositiveSystem.of(kind, (r for r in delta if pairing(vec, r) > 0))
            seen.setdefault(psi.roots, psi)
            return
        for idx, x in enumerate(free):
            for val in (x, -x):
                vec.append(val)
                if all(vec[i] * ci + vec[j] * cj > 0 for i, ci, j, cj in closing[k]):
                    extend(vec, free[:idx] + free[idx + 1 :])
                vec.pop()

    extend([], tuple(range(1, m + 1)))
    return tuple(sorted(seen.values(), key=lambda p: p.roots))
