"""Root-system helpers for Sp(2n,R) and O(p,q).

Weights are integer coefficient tuples over the basis e_1..e_a, f_1..f_d
(O side) or e_1..e_v (Sp side).  A root has at most two nonzero
coefficients, so it is stored sparse, as (i, ci, j, cj): ci*e_i + cj*e_j
with i < j, or (i, c, i, 0) for c*e_i.  It pairs with a vector v as
v[i]*ci + v[j]*cj.  Each kind states two facts, and every per-kind table
is derived from them:

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
per distinct input rather than once per parameter: each root-set text is
parsed once per kind (``parse_psi``), so that table rows and queries
sharing a Psi share its parse, and the rho shift is computed once per
doubled vector and kind (``twice_rho_shift``), which both sides' lowest
K-types share.  A Psi finds its compact simple members, which the (F-1)
check reads, once per instance.
"""

from __future__ import annotations

import functools
import itertools
import math
import re as _regex

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Q = Fraction

# (i, ci, j, cj): ci*e_i + cj*e_j with i < j, or (i, c, i, 0) for c*e_i
Root = tuple[int, int, int, int]


class SpKind(NamedTuple):
    rank: int

    axis = 2

    @property
    def dim(self) -> int:
        return self.rank

    def is_compact(self, root: Root) -> bool:
        return root[1] + root[3] == 0

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
        return not root[0] < self.left <= root[2]

    def coord_name(self, i: int) -> str:
        if i < self.left:
            return f"e{i + 1}"
        return f"f{i - self.left + 1}"

    def render(self) -> str:
        extra = 1 if self.odd else 0
        return f"O({2 * self.left + extra},{2 * self.right + extra})"


GroupKind = Union[SpKind, OKind]


def pair_root(i: int, j: int, ci: int, cj: int) -> Root:
    """The root ci*e_i + cj*e_j; i == j gives (ci+cj)*e_i."""
    if i == j:
        return (i, ci + cj, i, 0)
    return (i, ci, j, cj) if i < j else (j, cj, i, ci)


@functools.cache
def all_roots(kind: GroupKind) -> tuple[Root, ...]:
    """+-e_i+-e_j, plus +-c*e_i for the kind's axis coefficient c."""
    m, c = kind.dim, kind.axis
    out = [
        (i, si, j, sj)
        for i, j in itertools.combinations(range(m), 2)
        for si, sj in itertools.product((1, -1), repeat=2)
    ]
    if c:
        out += [(i, s * c, i, 0) for i in range(m) for s in (1, -1)]
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
        r for r in all_roots(kind) if not kind.is_compact(r) or abs(r[1]) + abs(r[3]) == 1
    )


def _root_sum(dim: int, roots: Iterable[Root]) -> tuple[int, ...]:
    acc = [0] * dim
    for i, ci, j, cj in roots:
        acc[i] += ci
        acc[j] += cj
    return tuple(acc)


def two_rho_c(kind: GroupKind) -> tuple[int, ...]:
    return _root_sum(kind.dim, delta_c_plus(kind))


def pairing(vec: Sequence[Q | int], root: Root) -> Q | int:
    i, ci, j, cj = root
    return vec[i] * ci + vec[j] * cj


def vector_key(root: Root) -> tuple:
    """A key under which roots compare as their coefficient vectors do:
    per nonzero entry c at i in order, (0, i, c) if c < 0 and (1, -i, c)
    if c > 0, then (1,), which sorts between the two kinds of entry."""
    i, ci, j, cj = root
    entries = ((i, ci), (j, cj)) if cj else ((i, ci),)
    return tuple((0, k, c) if c < 0 else (1, -k, c) for k, c in entries) + ((1,),)


@functools.cache
def _rho_shift_terms(kind: GroupKind) -> tuple[tuple[int, Root], ...]:
    """(sign, weight) of every weight the rho shift counts: +1 for the
    weights of p, -1 for the compact roots.  The short roots of an odd
    frame are in both and cancel, so they are left out."""
    noncompact, compact = noncompact_weights(kind), compact_roots(kind)
    both = set(noncompact) & set(compact)
    signed = [(1, w) for w in noncompact if w not in both]
    signed += [(-1, r) for r in compact if r not in both]
    return tuple(signed)


# census fills 419; without: the lowest K-types of a cold rank-7 census take 925->1171 ms
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

_ROOT_TERM = _regex.compile(r"([+-]?)(2?)([ef])(\d+)", _regex.ASCII)


@functools.cache
def _coord_slots(kind: GroupKind) -> dict[str, int]:
    return {kind.coord_name(i): i for i in range(kind.dim)}


def parse_root(text: str, kind: GroupKind) -> Root:
    """The root of ``kind`` that ``text``, a sum of signed terms such as
    ``e1-f2`` or ``-2e3``, adds up to."""
    s = text.replace(" ", "")
    slots = _coord_slots(kind)
    coefs: dict[int, int] = {}
    pos = 0
    for m in _ROOT_TERM.finditer(s):
        if m.start() != pos:
            raise ValueError(f"bad root {text!r}")
        pos = m.end()
        slot = slots.get(f"{m.group(3)}{int(m.group(4))}")
        if slot is None:
            raise ValueError(f"bad root {text!r} for {kind.render()}")
        coefs[slot] = coefs.get(slot, 0) + (-1 if m.group(1) == "-" else 1) * (2 if m.group(2) else 1)
    if not coefs or pos != len(s):
        raise ValueError(f"bad root {text!r}")
    nz = [(i, c) for i, c in sorted(coefs.items()) if c]
    root = (*nz[0], *nz[1]) if len(nz) == 2 else (*nz[0], nz[0][0], 0) if len(nz) == 1 else None
    if root not in root_set(kind):
        raise ValueError(f"bad root {text!r} for {kind.render()}")
    return root


def render_root(root: Root, kind: GroupKind) -> str:
    i, ci, j, cj = root
    first = ("-" if ci < 0 else "") + ("2" if abs(ci) == 2 else "") + kind.coord_name(i)
    return first + ("-" if cj < 0 else "+") + kind.coord_name(j) if cj else first


def root_sort_key(root: Root) -> tuple:
    """Pair roots first, then the long and the short axis roots."""
    i, ci, j, cj = root
    if cj:
        return (0, i, j, -cj, -ci)
    return (1 if abs(ci) == 2 else 2, i, -ci)


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
        uniq = sorted(set(roots), key=root_sort_key)
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

    @functools.cached_property
    def _compact_simple(self) -> tuple[Root, ...]:
        """The compact simple members, which (F-1) needs strictly
        positive; Psi must be a positive system."""
        return tuple(r for r in simple_members(self) if self.kind.is_compact(r))

    def __str__(self) -> str:
        return self.render()


@functools.lru_cache(maxsize=1024)  # verify fills 30; without: cold load_tables 35->37 ms, one-shot lift 44->50 ms
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
    if any((i, -ci, j, -cj) in rset for i, ci, j, cj in rset):
        return False
    two_rho = _root_sum(kind.dim, rset)
    return all(pairing(two_rho, r) > 0 for r in rset)


def contains_delta_c_plus(psi: PositiveSystem) -> bool:
    return all(psi.contains(r) for r in delta_c_plus(psi.kind))


def simple_members(psi: PositiveSystem) -> tuple[Root, ...]:
    """The simple roots of Psi, which must be a positive system: the members
    alpha with <rho, alpha^vee> = 1, i.e. <alpha, 2 rho> = <alpha, alpha>."""
    two_rho = _root_sum(psi.kind.dim, psi.roots)
    return tuple(r for r in psi.roots if pairing(two_rho, r) == r[1] ** 2 + r[3] ** 2)


def check_dominance_f1(vec: Sequence[Q | int], psi: PositiveSystem) -> bool:
    """Weak dominance on all of Psi plus strict positivity on compact
    simple members (condition F-1)."""
    for i, ci, j, cj in psi.roots:
        if vec[i] * ci + vec[j] * cj < 0:
            return False
    for i, ci, j, cj in psi._compact_simple:
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
    closing: list[list[Root]] = [[] for _ in range(m)]
    for r in delta_c_plus(kind):
        closing[r[2]].append(r)
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
    return tuple(sorted(seen.values(), key=lambda p: tuple(map(vector_key, p.roots))))
