"""Langlands-style parameters for Sp(2n,R) and O(p,q) with p+q even.

An Sp parameter pi(lam, Psi, mu, nu, eps, kappa) carries a discrete part
(lam, Psi) on Sp(2v), relative discrete series data (mu_i, nu_i) on GL(2)
factors, and spherical principal-series data (eps_i, kappa_i) on GL(1)
factors, with n = v + 2s + t.  An O parameter pi_zeta(lam, xi, Psi, mu,
nu, eps, kappa) additionally carries the two sign characters zeta, xi,
with p = 2a + 2s + t and q = 2d + 2s + t.

Equivalence permutes the (mu,nu) and (eps,kappa) pairs and changes signs
of individual nu_i, kappa_i; on the O side it also flips signs of Psi on
zero coordinates of lam (the disconnected part of the maximal compact
acting on the discrete datum) as far as Psi keeps the compact positives.
Those of a block, e_i+-e_j, survive a flip of its last coordinate only, and
the zeros of each weakly decreasing half of lam end it, so the code flips
only the last coordinate of a half.  canonicalize_* picks the representative
used in equality tests, and returns its input when it is canonical already.

validate_sp and validate_o are the conjunction of factor checks, so that
a census, whose members share few factors, can run each once per factor:
the datum check on (lam, Psi), the continuous check on (mu, nu, eps,
kappa) with the parity of v, and on O(p,q) the (zeta, xi) rule, which
reads the datum's zero count and whether some kappa is 0.  A datum with
no continuous slots is a discrete-series parameter, so the census checks
it with validate_sp or validate_o.  Parameter text is likewise a datum
text followed by a continuous text.

checked_sp and checked_o validate a whole parameter and return its
canonical form, remembered per value in a cache of 4096 entries that
stores no failure, as ``_validate_psi`` remembers the Psi check.  A value
whose integer slots (zeta, xi, lam, mu, eps) hold anything but exact ints
is checked afresh: 2.0 and True equal 2 and 1 and hash alike.

The parameter records are NamedTuples, so they are tuples: each compares
equal to a plain tuple of its fields, and JSON would encode it as a list.
Every payload renders them to text first.
"""

from __future__ import annotations

import functools
import re as _regex

from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .exact import GENERIC_B, InfChar, Scalar, parse_scalar
from .roots import (
    GroupKind,
    OKind,
    PositiveSystem,
    SpKind,
    check_dominance_f1,
    contains_delta_c_plus,
    is_positive_system,
    pair_root,
    parse_psi,
    vector_key,
)


class ParamError(ValueError):
    """Parameters outside the valid space, or text outside the grammar."""


def _check_signs(seq: Iterable[int], what: str) -> None:
    for x in seq:
        if type(x) is not int or x not in (1, -1):
            raise ParamError(f"{what} entries must be +-1, got {x}")


def _block_multiplicities_ok(values: list[int], mirror: list[int]) -> bool:
    for v in set(values) | set(mirror):
        if v > 0 and abs(values.count(v) - mirror.count(v)) > 1:
            return False
    return True


class SpParams(NamedTuple):
    lam: tuple[int, ...]
    psi: PositiveSystem
    mu: tuple[int, ...]
    nu: tuple[Scalar, ...]
    eps: tuple[int, ...]
    kappa: tuple[Scalar, ...]

    @property
    def v(self) -> int:
        return len(self.lam)

    @property
    def s(self) -> int:
        return len(self.mu)

    @property
    def t(self) -> int:
        return len(self.eps)

    @property
    def n(self) -> int:
        return self.v + 2 * self.s + self.t


class OParams(NamedTuple):
    zeta: int
    xi: int
    lam_left: tuple[int, ...]
    lam_right: tuple[int, ...]
    psi: PositiveSystem
    mu: tuple[int, ...]
    nu: tuple[Scalar, ...]
    eps: tuple[int, ...]
    kappa: tuple[Scalar, ...]

    @property
    def a(self) -> int:
        return len(self.lam_left)

    @property
    def d(self) -> int:
        return len(self.lam_right)

    @property
    def s(self) -> int:
        return len(self.mu)

    @property
    def t(self) -> int:
        return len(self.eps)

    @property
    def p(self) -> int:
        return 2 * len(self.lam_left) + 2 * len(self.mu) + len(self.eps)

    @property
    def q(self) -> int:
        return 2 * len(self.lam_right) + 2 * len(self.mu) + len(self.eps)

    @property
    def zeros(self) -> int:
        """z + z': total zero entries of the discrete datum."""
        return self.lam_left.count(0) + self.lam_right.count(0)


Params = Union[SpParams, OParams]


# -- validation --------------------------------------------------------------


def validate_continuous(
    mu: tuple[int, ...],
    nu: tuple[Scalar, ...],
    eps: tuple[int, ...],
    kappa: tuple[Scalar, ...],
    zero_sign: Optional[int],
) -> None:
    """The (mu, nu) and (eps, kappa) slots; kappa = 0 forces eps =
    ``zero_sign`` unless that is None: (-1)^v on Sp, no rule on O(p,q)."""
    if len(mu) != len(nu):
        raise ParamError("mu and nu must have equal length")
    if len(eps) != len(kappa):
        raise ParamError("eps and kappa must have equal length")
    _check_signs(eps, "eps")
    for m in mu:
        if type(m) is not int or m < 0:
            raise ParamError(f"mu entries must be nonnegative integers, got {m}")
    for m, n in zip(mu, nu):
        if n.is_zero and m % 2 == 0:
            raise ParamError(f"(mu,nu)=({m},0) needs mu odd")
    # slots whose kappas are equal up to sign form one class, keyed by its
    # sign-normalized kappa, and a class carries one eps
    first: dict[Scalar, int] = {}
    for j, k in enumerate(kappa):
        i = first.setdefault(k.normalized_sign(), j)
        if eps[i] != eps[j]:
            raise ParamError(f"kappa_{i+1} = +-kappa_{j+1} forces equal eps")
    if zero_sign is not None:
        for i, k in enumerate(kappa):
            if k.is_zero and eps[i] != zero_sign:
                raise ParamError(f"kappa_{i+1}=0 forces eps=(-1)^v={zero_sign}")


@functools.lru_cache(maxsize=4096)  # census fills 260; without: census 215->182 ops/s
def _validate_psi(psi: PositiveSystem, kind: GroupKind, lam: tuple[int, ...]) -> None:
    """Psi lives in ``kind``, is a positive system containing the compact
    positives, and ``lam`` is (F-1)-dominant for it.  A failure is not
    remembered: an invalid triple raises on every call."""
    if psi.kind != kind:
        raise ParamError(f"Psi must live in {kind.render()}")
    if not is_positive_system(kind, psi.roots):
        raise ParamError("Psi is not a positive system")
    if not contains_delta_c_plus(psi):
        raise ParamError("Psi must contain the compact positives")
    if not check_dominance_f1(lam, psi):
        raise ParamError(f"lam={lam} is not (F-1)-dominant for Psi={psi}")


def validate_sp_datum(lam: tuple[int, ...], psi: PositiveSystem) -> None:
    """``lam`` is a discrete datum of Sp(2v) and ``psi`` a positive system
    for it."""
    if any(type(x) is not int for x in lam):
        raise ParamError("lam entries must be integers")
    if list(lam) != sorted(lam, reverse=True):
        raise ParamError(f"lam must be weakly decreasing: {lam}")
    pos = [x for x in lam if x > 0]
    neg = [-x for x in lam if x < 0]
    if not _block_multiplicities_ok(pos, neg):
        raise ParamError(f"lam block multiplicities differ by more than 1: {lam}")
    _validate_psi(psi, SpKind(len(lam)), tuple(lam))


def validate_o_datum(left: tuple[int, ...], right: tuple[int, ...], psi: PositiveSystem) -> None:
    """(``left``; ``right``) is a discrete datum of O(2a, 2d) and ``psi`` a
    positive system for it."""
    for half in (left, right):
        if any(type(x) is not int or x < 0 for x in half):
            raise ParamError("lam halves must be nonnegative integers")
        if list(half) != sorted(half, reverse=True):
            raise ParamError(f"lam halves must be weakly decreasing: {half}")
    if not _block_multiplicities_ok([x for x in left if x > 0], [x for x in right if x > 0]):
        raise ParamError("lam halves have block multiplicities differing by more than 1")
    if abs(left.count(0) - right.count(0)) > 1:
        raise ParamError("zero blocks of the lam halves differ by more than 1")
    _validate_psi(psi, OKind(len(left), len(right)), tuple(left + right))


def validate_zeta_xi(zeta: int, xi: int, zeros: int, kappa: tuple[Scalar, ...]) -> None:
    """The sign characters of an O parameter whose discrete datum has
    ``zeros`` zero entries and whose GL(1) slots carry ``kappa``."""
    if any(type(x) is not int or x not in (1, -1) for x in (zeta, xi)):
        raise ParamError("zeta and xi must be +-1")
    if xi == -1 and zeros == 0:
        raise ParamError("xi=-1 requires a zero entry in lam")
    if zeta == -1:
        if zeros > 0:
            raise ParamError("zeta=-1 requires lam without zero entries")
        if not any(k.is_zero for k in kappa):
            raise ParamError("zeta=-1 requires some kappa=0")


def validate_sp(params: SpParams) -> None:
    validate_sp_datum(params.lam, params.psi)
    validate_continuous(params.mu, params.nu, params.eps, params.kappa, (-1) ** params.v)


def validate_o(params: OParams) -> None:
    validate_o_datum(params.lam_left, params.lam_right, params.psi)
    validate_zeta_xi(params.zeta, params.xi, params.zeros, params.kappa)
    validate_continuous(params.mu, params.nu, params.eps, params.kappa, None)


# -- canonical form ----------------------------------------------------------


def _canonical_pairs(params: Params) -> dict:
    mn = sorted((m, nu.normalized_sign()) for m, nu in zip(params.mu, params.nu))
    ke = sorted((k.normalized_sign(), e) for e, k in zip(params.eps, params.kappa))
    return dict(
        mu=tuple(m for m, _ in mn),
        nu=tuple(nu for _, nu in mn),
        eps=tuple(e for _, e in ke),
        kappa=tuple(k for k, _ in ke),
    )


def _unchanged(params: Params, fields: dict) -> bool:
    return all(getattr(params, name) == value for name, value in fields.items())


def canonicalize_sp(params: SpParams) -> SpParams:
    """The canonical form; ``params`` itself when it is one already."""
    pairs = _canonical_pairs(params)
    return params if _unchanged(params, pairs) else params._replace(**pairs)


def _zero_ends(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """The last coordinate of each half of the discrete datum that ends in 0."""
    return tuple(i for i, half in ((len(left) - 1, left), (len(left + right) - 1, right)) if 0 in half[-1:])


def canonical_o_psi(psi: PositiveSystem, left: tuple[int, ...], right: tuple[int, ...]) -> PositiveSystem:
    """The canonical Psi of an O(p,q) parameter with discrete datum (left,
    right), whose Psi must contain the compact positives: the least, as a
    tuple of coefficient vectors, under sign flips of each half's last
    coordinate when that entry is 0, at most three."""
    orbit = [psi]
    for e in _zero_ends(left, right):
        for p in list(orbit):
            roots = ((i, -ci if i == e else ci, j, -cj if j == e else cj) for i, ci, j, cj in p.roots)
            orbit.append(PositiveSystem.of(psi.kind, roots))
    return min(orbit, key=lambda p: tuple(map(vector_key, p.roots))) if len(orbit) > 1 else psi


def canonicalize_o(params: OParams) -> OParams:
    """The canonical form; ``params`` itself when it is one already."""
    fields = dict(_canonical_pairs(params), psi=canonical_o_psi(params.psi, params.lam_left, params.lam_right))
    return params if _unchanged(params, fields) else params._replace(**fields)


def canonicalize(params: Params) -> Params:
    if isinstance(params, SpParams):
        return canonicalize_sp(params)
    return canonicalize_o(params)


def _check(memo, params: Params, *int_slots: tuple) -> Params:
    return (memo if all(type(x) is int for slot in int_slots for x in slot) else memo.__wrapped__)(params)


@functools.lru_cache(maxsize=4096)  # lift-queries fills 1308; without: verify 9.30->7.88 ops/s
def _checked_sp(params: SpParams) -> SpParams:
    validate_sp(params)
    return canonicalize_sp(params)


@functools.lru_cache(maxsize=4096)  # verify fills 393; without: lift-queries 5312->4216, verify 9.27->7.14 ops/s
def _checked_o(params: OParams) -> OParams:
    validate_o(params)
    return canonicalize_o(params)


def checked_sp(params: SpParams) -> SpParams:
    """The canonical form of valid ``params``; ParamError when invalid."""
    return _check(_checked_sp, params, params.lam, params.mu, params.eps)


def checked_o(params: OParams) -> OParams:
    """The canonical form of valid ``params``; ParamError when invalid."""
    ints = ((params.zeta, params.xi), params.lam_left, params.lam_right, params.mu, params.eps)
    return _check(_checked_o, params, *ints)


# -- infinitesimal characters ------------------------------------------------


def slots_infchar(
    discrete: tuple[int, ...], mu: tuple[int, ...], nu: tuple[Scalar, ...], kappa: tuple[Scalar, ...]
) -> InfChar:
    """The infinitesimal character of a parameter with discrete entries
    ``discrete`` and these continuous slots; eps does not enter."""
    entries = [Scalar.of(x) for x in discrete]
    for m, n in zip(mu, nu):
        entries += [(n + m).half(), (n - m).half()]
    return InfChar.of(entries + list(kappa))


def infchar_sp(params: SpParams) -> InfChar:
    return slots_infchar(params.lam, params.mu, params.nu, params.kappa)


def infchar_o(params: OParams) -> InfChar:
    return slots_infchar(params.lam_left + params.lam_right, params.mu, params.nu, params.kappa)


# -- structural maps ---------------------------------------------------------


def contragredient_sp(params: SpParams) -> SpParams:
    """The contragredient: negate-and-reverse the discrete datum and push
    Psi through e_i -> -e_{v+1-i}; the continuous data is unchanged up to
    the usual sign equivalences."""
    v = len(params.lam)
    lam = tuple(-x for x in reversed(params.lam))
    roots = (pair_root(v - 1 - i, v - 1 - j, -ci, -cj) for i, ci, j, cj in params.psi.roots)
    return canonicalize_sp(params._replace(lam=lam, psi=PositiveSystem.of(params.psi.kind, roots)))


def swap_pq(params: OParams) -> OParams:
    """The parameter of the same representation seen through O(p,q) ~ O(q,p)."""
    a, d = params.a, params.d
    roots = (
        pair_root(i + d if i < a else i - a, j + d if j < a else j - a, ci, cj)
        for i, ci, j, cj in params.psi.roots
    )
    return canonicalize_o(
        params._replace(
            lam_left=params.lam_right,
            lam_right=params.lam_left,
            psi=PositiveSystem.of(OKind(d, a), roots),
        )
    )


def tensor_det_o(params: OParams) -> OParams:
    """Parameters of pi (x) det.

    Derived from the lowest K-type behaviour: a zero entry in the discrete
    datum flips xi; otherwise a kappa=0 slot flips zeta; otherwise the
    parameters are fixed.
    """
    if params.zeros > 0:
        return canonicalize_o(params._replace(xi=-params.xi))
    if any(k.is_zero for k in params.kappa):
        return canonicalize_o(params._replace(zeta=-params.zeta))
    return canonicalize_o(params)


# -- distinguished parameters ------------------------------------------------


def trivial_o(p: int, q: int) -> OParams:
    return _one_dim_o(p, q, det=False)


def det_o(p: int, q: int) -> OParams:
    return _one_dim_o(p, q, det=True)


# (trivial, det) of O(p,q) for p >= q; O(1,3) and O(0,4) are their swaps.
_ONE_DIM_TEXT = {
    (4, 0): ("pi_{1}((1,0;),1,{e1+e2,e1-e2},0,0,0,0)", "pi_{1}((1,0;),-1,{e1+e2,e1-e2},0,0,0,0)"),
    (3, 1): ("pi_{1}((0;),1,{},0,0,(1),(1))", "pi_{1}((0;),-1,{},0,0,(1),(1))"),
    (2, 2): ("pi_{1}(0,1,{},0,0,(1,1),(0,1))", "pi_{-1}(0,1,{},0,0,(1,1),(0,1))"),
}


@functools.cache
def _one_dim_o(p: int, q: int, det: bool) -> OParams:
    if (p, q) in _ONE_DIM_TEXT:
        return parse_o(_ONE_DIM_TEXT[p, q][det])
    if (q, p) in _ONE_DIM_TEXT:
        return swap_pq(_one_dim_o(q, p, det))
    raise ParamError(f"one-dimensional parameters implemented for p+q=4 only, got ({p},{q})")


# -- text format -------------------------------------------------------------


def _split_top(s: str) -> list[str]:
    """The comma-separated fields of ``s`` outside brackets, stripped."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(s[start:i].strip())
            start = i + 1
    parts.append(s[start:].strip())
    return parts


def _render_tuple(xs: tuple) -> str:
    return "0" if not xs else "(" + ",".join(map(str, xs)) + ")"


def _render_o_lam(left: tuple[int, ...], right: tuple[int, ...]) -> str:
    if not left and not right:
        return "0"
    return "(" + ",".join(map(str, left)) + ";" + ",".join(map(str, right)) + ")"


# A parameter's text is its datum text followed by its continuous text, so
# that a census builds each once and joins them for each member.


def sp_datum_text(lam: tuple[int, ...], psi: PositiveSystem) -> str:
    """The text of an Sp parameter up to its continuous slots."""
    return f"pi({_render_tuple(lam)},{psi.render()},"


def o_datum_text(
    zeta: int, xi: int, left: tuple[int, ...], right: tuple[int, ...], psi: PositiveSystem
) -> str:
    """The text of an O parameter up to its continuous slots."""
    return f"pi_{{{zeta}}}({_render_o_lam(left, right)},{xi},{psi.render()},"


def continuous_text(
    mu: tuple[int, ...], nu: tuple[Scalar, ...], eps: tuple[int, ...], kappa: tuple[Scalar, ...]
) -> str:
    """The text of a parameter from its continuous slots to its closing
    parenthesis."""
    return f"{_render_tuple(mu)},{_render_tuple(nu)},{_render_tuple(eps)},{_render_tuple(kappa)})"


def render_sp(params: SpParams) -> str:
    return sp_datum_text(params.lam, params.psi) + continuous_text(
        params.mu, params.nu, params.eps, params.kappa
    )


def render_o(params: OParams) -> str:
    datum = o_datum_text(params.zeta, params.xi, params.lam_left, params.lam_right, params.psi)
    rest = continuous_text(params.mu, params.nu, params.eps, params.kappa)
    return f"{datum}{rest} @ O({params.p},{params.q})"


def render_params(params: Params) -> str:
    return render_sp(params) if isinstance(params, SpParams) else render_o(params)


# Parameter text has one grammar, for user input and for the rows of the
# lift and classification tables alike: every integer or scalar slot holds
# an affine expression in at most one variable.  Concrete text is the case
# whose only variable is b, which then stands for itself.  Slot tokens and
# root sets come from a small vocabulary whatever the text, so each
# distinct token (``parse_expr``) and each distinct (root-set text, kind)
# (``roots.parse_psi``) is parsed once per process, as is each whole text
# (``parse_param_pattern``), through bounded caches of immutable values;
# text that fails raises on every call.

_VAR_ORDER = ("c1", "c2", "s1", "s2", "b", "m", "l")
_INT_VARS = frozenset({"m", "l"})
_SIGN_VARS = frozenset({"s1", "s2"})
_SIGNS = (Scalar.of(1), Scalar.of(-1))


class Expr(NamedTuple):
    """An affine expression in at most one variable.

    The expression is stored as a Scalar whose formal part stands in for
    the variable, so evaluating is substituting and solving is linear.
    """

    form: Scalar
    var: Optional[str] = None


@functools.lru_cache(maxsize=1024)  # tables hold 37 texts; without: cold load_tables 35->40 ms, one-shot lift 44->51 ms
def parse_expr(text: str) -> Expr:
    t = text.replace(" ", "")
    var = next((name for name in _VAR_ORDER if name in t), None)
    if var is not None:
        t = t.replace(var, "b")
    try:
        return Expr(parse_scalar(t), var)
    except (ValueError, ZeroDivisionError) as err:
        raise ParamError(str(err)) from None


def expr_eval(expr: Expr, env: Mapping[str, "Scalar | int"]) -> Scalar:
    if expr.var is None:
        return expr.form
    if expr.var not in env:
        raise ParamError(f"no value for variable {expr.var!r}")
    return expr.form.substitute(Scalar.of(env[expr.var]))


class ParamPattern(NamedTuple):
    side: str  # "sp" or "o"
    zeta: Optional[int]
    xi: Optional[int]
    lam_left: tuple[Expr, ...]
    lam_right: tuple[Expr, ...]  # empty and unused on the sp side
    psi: PositiveSystem
    mu: tuple[Expr, ...]
    nu: tuple[Expr, ...]
    eps: tuple[Expr, ...]
    kappa: tuple[Expr, ...]

    @property
    def n(self) -> int:
        """The rank n = v + 2s + t of an Sp-side pattern."""
        return len(self.lam_left) + 2 * len(self.mu) + len(self.eps)

    @property
    def p(self) -> int:
        """p = 2a + 2s + t of an O-side pattern."""
        return 2 * len(self.lam_left) + 2 * len(self.mu) + len(self.eps)

    @property
    def q(self) -> int:
        """q = 2d + 2s + t of an O-side pattern."""
        return 2 * len(self.lam_right) + 2 * len(self.mu) + len(self.eps)

    def var_names(self) -> frozenset[str]:
        groups = (self.lam_left, self.lam_right, self.mu, self.nu, self.eps, self.kappa)
        return frozenset(e.var for g in groups for e in g if e.var is not None)


def _parse_expr_list(text: str) -> tuple[Expr, ...]:
    body = text.strip()
    if not body:
        return ()
    return tuple(parse_expr(tok) for tok in _split_top(body))


def _parse_expr_group(text: str) -> tuple[Expr, ...]:
    t = text.strip()
    if t == "0":
        return ()
    if not (t.startswith("(") and t.endswith(")")):
        raise ParamError(f"bad tuple slot {text!r}")
    return _parse_expr_list(t[1:-1])


_O_HEAD = _regex.compile(r"pi_\{(-?1)\}\((.*?)\)\s*(?:@\s*(.*))?", _regex.ASCII)
_O_SIG = _regex.compile(r"O\(\s*(\d+)\s*,\s*(\d+)\s*\)", _regex.ASCII)
_SP_HEAD = _regex.compile(r"pi\((.*?)\)\s*(?:@\s*(.*))?", _regex.ASCII)


@functools.lru_cache(maxsize=1024)  # lift-queries fills 487; without: lift-queries 5411->4320 ops/s
def parse_param_pattern(text: str) -> ParamPattern:
    """Parse parameter text whose slots may hold variables.

    Psi is parsed in the root system the slot counts give.  An O-side
    ``@ O(p,q)`` tail is optional and must agree with the shape:
    p = 2a+2s+t and q = 2d+2s+t; Sp-side text takes no tail.  Syntax
    errors, a bad root among them, raise ParamError.
    """
    s = text.strip()
    if m := _O_HEAD.fullmatch(s):
        fields = _split_top(m.group(2))
        if len(fields) != 7:
            raise ParamError(f"O parameters need 7 fields, got {len(fields)}")
        lam_text = fields[0]
        if lam_text == "0":
            left: tuple[Expr, ...] = ()
            right: tuple[Expr, ...] = ()
        else:
            if not (lam_text.startswith("(") and lam_text.endswith(")")) or ";" not in lam_text:
                raise ParamError(f"bad O discrete datum {lam_text!r}")
            left_text, right_text = lam_text[1:-1].split(";", 1)
            left, right = _parse_expr_list(left_text), _parse_expr_list(right_text)
        xi = parse_expr(fields[1]).form
        if xi not in _SIGNS:
            raise ParamError(f"bad xi {fields[1]!r}")
        mu, nu, eps, kappa = (_parse_expr_group(f) for f in fields[3:7])
        declared = None
        if m.group(3) is not None:
            if not (sig := _O_SIG.fullmatch(m.group(3))):
                raise ParamError(f"bad signature {m.group(3)!r}, expected O(p,q)")
            declared = (int(sig[1]), int(sig[2]))
        head, psi_text = ("o", int(m.group(1)), xi.as_int(), left, right), fields[2]
        kind: GroupKind = OKind(len(left), len(right))
    elif m := _SP_HEAD.fullmatch(s):
        if m.group(2) is not None:
            raise ParamError(f"Sp parameters take no signature tail, got {m.group(2)!r}")
        fields = _split_top(m.group(1))
        if len(fields) != 6:
            raise ParamError(f"Sp parameters need 6 fields, got {len(fields)}")
        lam, mu, nu, eps, kappa = (_parse_expr_group(f) for f in fields[:1] + fields[2:])
        head, psi_text, kind = ("sp", None, None, lam, ()), fields[1], SpKind(len(lam))
        declared = None
    else:
        raise ParamError(f"bad parameter text {text!r}")
    try:
        psi = parse_psi(psi_text, kind)
    except ValueError as err:
        raise ParamError(str(err)) from None
    pattern = ParamPattern(*head, psi, mu, nu, eps, kappa)
    if declared not in (None, (pattern.p, pattern.q)):
        raise ParamError(f"declared signature O({declared[0]},{declared[1]}) does not match O({pattern.p},{pattern.q})")
    return pattern


def instantiate_pattern(pat: ParamPattern, env: Mapping[str, "Scalar | int"]) -> Params:
    """Evaluate a pattern at a variable assignment.

    Returns canonical, validated parameters; raises ParamError when a
    variable has no value or the assignment lands outside the valid
    parameter space.
    """

    def ints(exprs: tuple[Expr, ...]) -> tuple[int, ...]:
        out = []
        for e in exprs:
            val = expr_eval(e, env)
            if not val.is_integer():
                raise ParamError(f"integer slot got {val.render()}")
            out.append(val.as_int())
        return tuple(out)

    def scalars(exprs: tuple[Expr, ...]) -> tuple[Scalar, ...]:
        return tuple(expr_eval(e, env) for e in exprs)

    def continuous() -> tuple:
        return ints(pat.mu), scalars(pat.nu), ints(pat.eps), scalars(pat.kappa)

    if pat.side == "sp":
        return checked_sp(SpParams(ints(pat.lam_left), pat.psi, *continuous()))
    return checked_o(OParams(pat.zeta, pat.xi, ints(pat.lam_left), ints(pat.lam_right), pat.psi, *continuous()))


def _parse_side(text: str, side: str) -> Params:
    pat = parse_param_pattern(text)
    if pat.side != side:
        raise ParamError(f"expected {'an Sp' if side == 'sp' else 'an O'} parameter, got {text!r}")
    return instantiate_pattern(pat, {"b": GENERIC_B})


def parse_sp(text: str) -> SpParams:
    return _parse_side(text, "sp")


def parse_o(text: str) -> OParams:
    return _parse_side(text, "o")


def parse_params(text: str) -> Params:
    return instantiate_pattern(parse_param_pattern(text), {"b": GENERIC_B})
