"""Theta lifts for the dual pairs (O(p,q), Sp(2n,R)) with p+q = 4.

The rank-1 and rank-2 lifts, the rank-3 lifts of parameters with first
occurrence 3, and the rank-4 lifts of the determinant characters live in
pattern/template tables under ``tables/``.  Every other rank is reached
through the explicit induction principles: ``induct_n`` raises the
symplectic rank and ``induct_pq`` raises the orthogonal signature, both
feeding the freshly appended (eps, kappa) slots through the modification
rule before canonicalization.

Valid and canonical input.  ``theta_n`` and ``first_occurrence`` pass
their input once through ``checked_o`` and hand its canonical form on;
``matching_rows``, ``lookup_lift`` and ``match_o_pattern`` require a
valid and canonical parameter, as ``parse_o``, ``instantiate_pattern``
and the inductions return it.  ``induct_n`` and ``induct_pq`` accept any
valid parameter and return a canonical one.  Every table is read through
``matching_rows``, a bounded memo keyed by the table, which compares by
its rows, and the parameter: the first occurrence, the rank-1 lift and
the lifts of ranks 2 to 6 that start from the rank-2 table read one
match, and an edited copy of a table is matched afresh.

Table grammar.  Each data row reads ``PATTERN => TEMPLATE ; CONDITION``.
Patterns and templates are parameter text in the grammar of
``langlands.parse_param_pattern``, which also parses user input: integer
and scalar slots hold affine expressions in the row variables
(``m``, ``l`` integers; ``s1``, ``s2`` signs; ``b``, ``c1``, ``c2``
scalars).  Every template variable must be bound by the row's pattern,
and classification rows use ``b`` alone; the loaders check both, parse
each condition once into predicates (``Condition``) and try every atom
once, so each row defect fails at load naming ``file.tbl:line``.  A parameter matches a row when the pattern's Psi is
its Psi up to sign flips on zero coordinates, some assignment of the
variables binds every other slot to its value, and the condition holds.
Conditions are ``&``-separated atoms: ``true``, comparisons ``x=N``,
``x!=N``, ``x>=y``, ``x>y``, class predicates ``x int|even|odd``, set
exclusions ``x notin {a,b}``, and slot exclusions ``pair(s,c)!=(e,k)``.
On a symbolic scalar, equality/class/order atoms are false and the
negative atoms are true, so "generic" means "no special value".
"""

from __future__ import annotations

import functools
import operator
import os
import re
from itertools import permutations
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .exact import GENERIC_B, InfChar, Scalar, dual_padding, parse_int, parse_scalar
from .langlands import (
    Expr,
    OParams,
    ParamPattern,
    SpParams,
    _INT_VARS,
    _SIGN_VARS,
    _VAR_ORDER,
    _parse_expr_group,
    _split_top,
    canonical_o_psi,
    checked_o,
    checked_sp,
    contragredient_sp,
    det_o,
    expr_eval,
    instantiate_pattern,
    parse_param_pattern,
    parse_sp,
    render_o,
    render_sp,
    swap_pq,
    trivial_o,
)
from .roots import Frozen, PositiveSystem, SpKind, contains_delta_c_plus, is_positive_system, pair_root


class TableError(ValueError):
    """A lift table is missing, malformed, or matches ambiguously."""


class ThetaError(ValueError):
    """A lift or induction request falls outside its preconditions."""


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------

def expr_bind(expr: Expr, value: Scalar, env: dict) -> Optional[dict]:
    """Extend env so that expr evaluates to value; None if impossible."""
    if expr.var is None:
        return env if expr.form == value else None
    if expr.var in env:
        return env if expr_eval(expr, env) == value else None
    try:
        sol = expr.form.solve(value)
    except ValueError:
        raise TableError(f"cannot solve for {expr.var!r} in {expr.form.render()}") from None
    stored: Scalar | int
    if expr.var in _INT_VARS or expr.var in _SIGN_VARS:
        if not sol.is_integer():
            return None
        stored = sol.as_int()
        if expr.var in _SIGN_VARS and stored not in (1, -1):
            return None
    else:
        stored = sol
    out = dict(env)
    out[expr.var] = stored
    return out


def _bind_tuple(exprs: tuple[Expr, ...], values: tuple[Scalar, ...], env: dict) -> Optional[dict]:
    for e, val in zip(exprs, values):
        bound = expr_bind(e, val, env)
        if bound is None:
            return None
        env = bound
    return env


def _bind_pairs(
    envs: list[dict],
    first: tuple[Expr, ...],
    second: tuple[Expr, ...],
    pairs: list[tuple[Scalar, Scalar]],
) -> list[dict]:
    if not first:
        return envs
    out: list[dict] = []
    for env in envs:
        for perm in permutations(range(len(pairs))):
            e2: Optional[dict] = env
            for slot, j in enumerate(perm):
                e2 = expr_bind(first[slot], pairs[j][0], e2)
                if e2 is None:
                    break
                e2 = expr_bind(second[slot], pairs[j][1], e2)
                if e2 is None:
                    break
            if e2 is not None:
                out.append(e2)
    return out


def _shape(x: "ParamPattern | OParams") -> tuple:
    """(zeta, xi, a, d, s, t) of an O pattern or parameter.  A pattern
    only matches parameters of its own shape."""
    return (x.zeta, x.xi, len(x.lam_left), len(x.lam_right), len(x.mu), len(x.eps))


def match_o_pattern(pat: ParamPattern, target: OParams) -> tuple[dict, ...]:
    """All variable assignments under which the pattern reproduces the
    valid, canonical target.  A binding pins every slot but Psi to the
    target's value, and Psi does not depend on the binding, so it is
    compared once, up to sign flips on the target's zero coordinates."""
    if pat.side != "o":
        raise TableError("only orthogonal patterns are matched")
    if _shape(pat) != _shape(target) or canonical_o_psi(pat.psi, target.lam_left, target.lam_right) != target.psi:
        return ()
    lam_vals = tuple(Scalar.of(x) for x in target.lam_left + target.lam_right)
    base = _bind_tuple(pat.lam_left + pat.lam_right, lam_vals, {})
    if base is None:
        return ()
    envs = [base]
    envs = _bind_pairs(envs, pat.mu, pat.nu, [(Scalar.of(m), v) for m, v in zip(target.mu, target.nu)])
    envs = _bind_pairs(envs, pat.eps, pat.kappa, [(Scalar.of(e), k) for e, k in zip(target.eps, target.kappa)])
    return tuple({frozenset(env.items()): env for env in envs}.values())


# ---------------------------------------------------------------------------
# Row conditions
# ---------------------------------------------------------------------------

_PAIR_COND = re.compile(r"pair\((\w+),(\w+)\)!=\(([^,()]*),([^,()]*)\)")
_NOTIN_COND = re.compile(r"(\w+)\s+notin\s+\{([^{}]*)\}")
_CLASS_COND = re.compile(r"(\w+)\s+(int|even|odd)")
_CMP_COND = re.compile(r"(\w+)\s*(>=|>|!=|=)\s*(-?\w+(?:/\d+)?)")


Env = Mapping[str, "Scalar | int"]
Atom = Callable[[Env], bool]


def _cond_value(name: str, env: Env) -> Scalar:
    if name not in env:
        raise TableError(f"condition uses unbound variable {name!r}")
    return Scalar.of(env[name])


def _ordered(compare: Callable[[Scalar, Scalar], bool]) -> Callable[[Scalar, Scalar], bool]:
    """An order atom: false unless both sides are rational."""
    return lambda lhs, rhs: lhs.is_rational() and rhs.is_rational() and compare(lhs, rhs)


_COMPARE = {"=": operator.eq, "!=": operator.ne, ">=": _ordered(operator.ge), ">": _ordered(operator.gt)}
_CLASSES = {"int": Scalar.is_integer, "even": Scalar.is_even, "odd": Scalar.is_odd}


def _parse_atom(atom: str) -> Atom:
    """One condition atom as a predicate on a binding, its constants parsed
    here.  The predicate looks up every variable it names on each call, so
    an unbound one raises whatever the values."""
    if atom == "true":
        return lambda env: True
    if m := _PAIR_COND.fullmatch(atom):
        s_name, c_name = m.group(1), m.group(2)
        e, k = Scalar.of(parse_int(m.group(3))), Scalar.of(parse_int(m.group(4)))

        def pair(env: Env) -> bool:
            s, c = _cond_value(s_name, env), _cond_value(c_name, env)
            return not (s == e and c == k)

        return pair
    if m := _NOTIN_COND.fullmatch(atom):
        name = m.group(1)
        excluded = tuple(parse_scalar(tok.strip()) for tok in m.group(2).split(","))
        return lambda env: _cond_value(name, env) not in excluded
    if m := _CLASS_COND.fullmatch(atom):
        name, holds = m.group(1), _CLASSES[m.group(2)]
        return lambda env: holds(_cond_value(name, env))
    if m := _CMP_COND.fullmatch(atom):
        name, compare, rhs_text = m.group(1), _COMPARE[m.group(2)], m.group(3)
        if rhs_text in _VAR_ORDER:
            return lambda env: compare(_cond_value(name, env), _cond_value(rhs_text, env))
        rhs = parse_scalar(rhs_text)
        return lambda env: compare(_cond_value(name, env), rhs)
    raise TableError(f"unrecognized condition atom {atom!r}")


class Condition(Frozen):
    """A row condition parsed once: the ``&``-separated atoms of ``text``
    as predicates.  Conditions compare by their text."""

    _fields = ("text",)

    def __init__(self, text: str, atoms: tuple[Atom, ...]):
        self.__dict__.update(text=text, atoms=atoms)


def parse_cond(text: str) -> Condition:
    return Condition(text, tuple(_parse_atom(atom.strip()) for atom in text.split("&")))


def cond_eval(cond: Condition, env: Env) -> bool:
    """Whether the condition holds under ``env``."""
    return all(atom(env) for atom in cond.atoms)


def _check_cond(text: str, names: Iterable[str]) -> Condition:
    """Parse a row condition and evaluate every atom once, each name bound
    to a sample value (integers and signs to 1, scalars to b), so that a
    defective atom fails when its row loads."""
    cond = parse_cond(text)
    env = {name: 1 if name in _INT_VARS or name in _SIGN_VARS else GENERIC_B for name in names}
    for atom in cond.atoms:
        atom(env)
    return cond


# ---------------------------------------------------------------------------
# Table files
# ---------------------------------------------------------------------------


class LiftRow(NamedTuple):
    pattern: ParamPattern
    template: ParamPattern
    cond: Condition
    line: int


class LktRow(NamedTuple):
    pattern: ParamPattern
    lkts: tuple[tuple[Expr, ...], ...]
    cond: Condition
    line: int


class LiftTable(Frozen):
    """The rows of one lift table, in file order, and the same rows
    grouped by the shape of their patterns, so that a lookup tries only
    the rows that can match."""

    _fields = ("rows",)

    def __init__(self, rows: Iterable[LiftRow]):
        rows = tuple(rows)
        groups: dict[tuple, list[LiftRow]] = {}
        for row in rows:
            groups.setdefault(_shape(row.pattern), []).append(row)
        self.__dict__.update(rows=rows, by_shape={key: tuple(group) for key, group in groups.items()})

    def rows_for(self, pi: OParams) -> tuple[LiftRow, ...]:
        """The rows whose pattern has the shape of pi."""
        return self.by_shape.get(_shape(pi), ())


class TableSet(NamedTuple):
    lifts: Mapping[int, LiftTable]
    appendix_c: tuple[LktRow, ...]
    source: str

    def theta(self, n: int) -> LiftTable:
        table = self.lifts.get(n)
        if table is None:
            raise TableError(f"no lift table for rank {n}")
        return table


THETA_FILES = {1: "theta1.tbl", 2: "theta2.tbl", 3: "theta3.tbl", 4: "theta4.tbl"}
APPENDIX_FILE = "appendix_c.tbl"
ENV_TABLE_DIR = "THETALIFT_TABLE_DIR"


def default_table_dir() -> Path:
    env = os.environ.get(ENV_TABLE_DIR)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "tables"


def _lift_row(lineno: int, left: str, body: str, cond: str) -> LiftRow:
    pattern, template = parse_param_pattern(left), parse_param_pattern(body)
    if pattern.side != "o" or template.side != "sp":
        raise TableError("lift rows map O patterns to Sp templates")
    if not (is_positive_system(pattern.psi.kind, pattern.psi.roots) and contains_delta_c_plus(pattern.psi)):
        raise TableError("pattern Psi is not a positive system containing the compact positives")
    unbound = template.var_names() - pattern.var_names()
    if unbound:
        raise TableError(f"template variables {', '.join(sorted(unbound))} are not bound by the pattern")
    return LiftRow(pattern, template, _check_cond(cond, pattern.var_names()), lineno)


def _lkt_row(lineno: int, left: str, body: str, cond: str) -> LktRow:
    pattern = parse_param_pattern(left)
    if pattern.side != "sp":
        raise TableError("classification rows are Sp patterns")
    if not (body.startswith("{") and body.endswith("}")):
        raise TableError("expected a K-type set in braces")
    lkts = tuple(_parse_expr_group(tok) for tok in _split_top(body[1:-1]))
    if not lkts:
        raise TableError("empty K-type set")
    others = (pattern.var_names() | {e.var for tup in lkts for e in tup}) - {"b", None}
    if others:
        raise TableError(f"classification rows use b alone, got {', '.join(sorted(others))}")
    return LktRow(pattern, lkts, _check_cond(cond, ("b",)), lineno)


def _load_rows(path: Path, make_row) -> tuple:
    """The data rows of a table file; any defect, a bad constant in a
    condition among them, raises TableError naming ``file.tbl:line``."""
    if not path.is_file():
        raise TableError(f"missing table file {path}")
    rows = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "=>" not in line:
                raise TableError("row has no '=>'")
            left, right = line.split("=>", 1)
            if ";" not in right:
                raise TableError("row has no condition")
            body, cond = right.rsplit(";", 1)
            rows.append(make_row(lineno, left.strip(), body.strip(), cond.strip()))
        except (ValueError, ZeroDivisionError) as err:
            raise TableError(f"{path.name}:{lineno}: {err}") from None
    return tuple(rows)


# Loaded tables by resolved directory, and the same tables by the
# (table_dir, $THETALIFT_TABLE_DIR) pair of a call that named an absolute
# directory.  A relative directory is not kept in the second map: it
# resolves against the current directory of each call.
_CACHE: dict[str, TableSet] = {}
_BY_REQUEST: dict[tuple, TableSet] = {}


def load_tables(table_dir: "str | Path | None" = None) -> TableSet:
    """The tables in ``table_dir``, by default in ``$THETALIFT_TABLE_DIR``
    or else the packaged ones.  Each directory is read once per process,
    and a repeated request for an absolute directory is answered without
    touching the filesystem."""
    request = (table_dir, os.environ.get(ENV_TABLE_DIR))
    tables = _BY_REQUEST.get(request)
    if tables is not None:
        return tables
    root = Path(table_dir) if table_dir is not None else default_table_dir()
    key = str(root.resolve())
    if key not in _CACHE:
        lifts = {n: LiftTable(_load_rows(root / name, _lift_row)) for n, name in THETA_FILES.items()}
        appendix = _load_rows(root / APPENDIX_FILE, _lkt_row)
        _CACHE[key] = TableSet(lifts, appendix, key)
    if root.is_absolute():
        _BY_REQUEST[request] = _CACHE[key]
    return _CACHE[key]


# ---------------------------------------------------------------------------
# Table lookups
# ---------------------------------------------------------------------------


def row_lift(row: LiftRow, pi: OParams) -> Optional[SpParams]:
    """The lift this row assigns to pi, or None when the row does not
    apply.  Distinct bindings of one row must agree."""
    results: set[SpParams] = set()
    for env in match_o_pattern(row.pattern, pi):
        if cond_eval(row.cond, env):
            results.add(instantiate_pattern(row.template, env))
    if not results:
        return None
    if len(results) > 1:
        raise TableError(f"row at line {row.line} produced conflicting lifts for {render_o(pi)}")
    return results.pop()


@functools.lru_cache(maxsize=4096)  # verify fills 501; without: lift-queries 5303->4373, verify 9.11->6.56 ops/s
def matching_rows(table: LiftTable, pi: OParams) -> tuple[tuple[LiftRow, SpParams], ...]:
    """Every row of the table that applies to pi, with the lift it gives.
    pi must be valid and canonical, as ``parse_o``, ``instantiate_pattern``
    and the inductions return it.  Only the rows of pi's shape are tried:
    no other row can match.  An edited copy of a table compares unequal
    and is matched afresh, and a row that raises is not remembered."""
    out = []
    for row in table.rows_for(pi):
        lifted = row_lift(row, pi)
        if lifted is not None:
            out.append((row, lifted))
    return tuple(out)


def lookup_lift(table: LiftTable, pi: OParams) -> Optional[SpParams]:
    """The lift of the one row of the table that applies to pi, or None.
    pi must be valid and canonical (see ``matching_rows``).  Two matching
    rows raise TableError: the rows of a table must be exclusive."""
    hits = matching_rows(table, pi)
    if len(hits) > 1:
        lines = ", ".join(str(r.line) for r, _ in hits)
        raise TableError(f"{render_o(pi)} matches rows at lines {lines}; rows must be exclusive")
    return hits[0][1] if hits else None


def instantiate_lkt_row(row: LktRow, beta: Scalar) -> Optional[tuple[SpParams, frozenset]]:
    """The (parameter, lowest-K-type set) a classification row contributes
    at b = beta, or None when its condition excludes beta.  A K-type that
    is no U(n)-type at beta raises TableError naming the row."""
    from .ktypes import UKType

    env = {"b": beta}
    if not cond_eval(row.cond, env):
        return None
    params = instantiate_pattern(row.pattern, env)
    try:
        lkts = frozenset(UKType.of(tuple(expr_eval(e, env).as_int() for e in tup)) for tup in row.lkts)
    except ValueError as err:
        raise TableError(f"{APPENDIX_FILE}:{row.line}: {err} at b={beta.render()}") from None
    return params, lkts


def appendix_rows_at(tables: TableSet, beta: Scalar) -> dict:
    """All classification rows active at b = beta, keyed by canonical
    parameter.  Each valid parameter must appear exactly once."""
    out: dict = {}
    for row in tables.appendix_c:
        hit = instantiate_lkt_row(row, beta)
        if hit is None:
            continue
        params, lkts = hit
        if params in out:
            raise TableError(f"duplicate classification rows for {render_sp(params)} at b={beta.render()}")
        out[params] = lkts
    return out


# ---------------------------------------------------------------------------
# Infinitesimal character duality
# ---------------------------------------------------------------------------


def _repad(chi: InfChar, add: Iterable[int], remove: Iterable[int]) -> InfChar:
    """chi with the entries ``add`` appended and the entries ``remove`` taken out."""
    entries = list(chi.entries) + [Scalar.of(v) for v in add]
    for v in remove:
        try:
            entries.remove(Scalar.of(v))
        except ValueError:
            raise ThetaError("incompatible infinitesimal character") from None
    return InfChar.of(entries)


def dual_infchar(chi: InfChar, m: int, n: int) -> InfChar:
    """The Sp(2n,R) infinitesimal character paired with the O(p,q)-side
    character chi, where m = (p+q)/2."""
    if len(chi.entries) != m:
        raise ThetaError(f"expected {m} entries, got {chi.render()}")
    o_pad, sp_pad = dual_padding(m, n)
    return _repad(chi, o_pad, sp_pad)


def o_infchar_from_sp(chi: InfChar, m: int, n: int) -> InfChar:
    """Invert dual_infchar: the O-side character paired with a rank-n
    symplectic character chi."""
    if len(chi.entries) != n:
        raise ThetaError(f"expected {n} entries, got {chi.render()}")
    o_pad, sp_pad = dual_padding(m, n)
    return _repad(chi, sp_pad, o_pad)


# ---------------------------------------------------------------------------
# Modification rule and induction principles
# ---------------------------------------------------------------------------


def apply_modification(params):
    """Resolve (eps, kappa) clashes: two slots clash when they carry
    opposite signs and equal kappa up to sign.  In each class of kappas
    equal up to sign, the earliest slots of each sign pair off, and each
    pair is replaced by the continuous pair (mu, nu) = (0, 2|kappa|); the
    slots left over keep their order."""
    classes: dict[Scalar, dict[int, list[int]]] = {}
    for idx, (e, k) in enumerate(zip(params.eps, params.kappa)):
        classes.setdefault(k.normalized_sign(), {}).setdefault(e, []).append(idx)
    mu, nu, paired = list(params.mu), list(params.nu), set()
    for k, by_sign in classes.items():
        for i, j in zip(by_sign.get(1, ()), by_sign.get(-1, ())):
            paired |= {i, j}
            mu.append(0)
            nu.append(k.scale(2))
    keep = [idx for idx in range(len(params.eps)) if idx not in paired]
    return params._replace(
        mu=tuple(mu),
        nu=tuple(nu),
        eps=tuple(params.eps[idx] for idx in keep),
        kappa=tuple(params.kappa[idx] for idx in keep),
    )


def cond_lambda(lam: tuple[int, ...], psi: PositiveSystem, half_diff: int) -> bool:
    """Whether the discrete datum (lam, psi) admits the rank-raising
    induction toward a signature with (p-q)/2 = half_diff."""
    k = sum(1 for x in lam if x > 0)
    neg = sum(1 for x in lam if x < 0)
    z = lam.count(0)
    if half_diff == k - neg:
        return True
    if z == 0:
        return False
    root = pair_root(k, k + z - 1, 1, 1)
    if half_diff == k - neg + 1:
        return psi.contains(root)
    if half_diff == k - neg - 1:
        return not psi.contains(root)
    return False


def induct_n(pi_prime: SpParams, p: int, q: int, k: int) -> SpParams:
    """Raise a rank-n lift to rank n+k within the tower over O(p,q)."""
    if k < 1:
        raise ThetaError("induction step k must be >= 1")
    if (p + q) % 2 != 0:
        raise ThetaError("p + q must be even")
    n0 = pi_prime.n
    m = (p + q) // 2
    if p + q == 2 * n0 + 2:
        raise ThetaError(f"p+q = 2n+2 = {p + q} is outside the rank-raising range")
    if n0 + 1 <= m <= n0 + k:
        raise ThetaError(f"(p+q)/2 = {m} lies inside the induction window ({n0 + 1}..{n0 + k})")
    if not cond_lambda(pi_prime.lam, pi_prime.psi, (p - q) // 2):
        raise ThetaError("discrete datum does not admit the rank-raising induction")
    sign = 1 if ((p - q) // 2) % 2 == 0 else -1
    eps = pi_prime.eps + (sign,) * k
    kappa = pi_prime.kappa + tuple(Scalar.of(i + n0 - m) for i in range(1, k + 1))
    return checked_sp(apply_modification(pi_prime._replace(eps=eps, kappa=kappa)))


def induct_pq(pi: OParams, n: int, k: int, tables: Optional[TableSet] = None) -> OParams:
    """Raise an O(p,q) parameter to O(p+k, q+k) within the rank-n tower."""
    if k < 1:
        raise ThetaError("induction step k must be >= 1")
    if pi.zeta != 1 or pi.xi != 1:
        raise ThetaError("signature-raising induction needs zeta = xi = 1")
    m = (pi.p + pi.q) // 2
    if m <= n <= m + k - 1:
        raise ThetaError(f"rank n = {n} lies inside the induction window ({m}..{m + k - 1})")
    if pi.p + pi.q == 4 and n < first_occurrence(pi, tables):
        raise ThetaError(f"rank n = {n} is below the first occurrence")
    has_zero = 0 in pi.lam_left or 0 in pi.lam_right
    has_plus_zero = any(e == 1 and kap.is_zero for e, kap in zip(pi.eps, pi.kappa))
    if not (has_zero or has_plus_zero):
        raise ThetaError("discrete datum does not admit the signature-raising induction")
    eps = pi.eps + (1,) * k
    kappa = pi.kappa + tuple(Scalar.of(n - m - i) for i in range(k))
    return checked_o(apply_modification(pi._replace(eps=eps, kappa=kappa)))


# ---------------------------------------------------------------------------
# First occurrence and the lift dispatcher
# ---------------------------------------------------------------------------

_SUPPORTED = ((4, 0), (3, 1), (2, 2))
_SWAPPED = ((0, 4), (1, 3))


def _fixed_occurrence(pi: OParams) -> Optional[int]:
    """The first occurrence of a valid and canonical pi of supported
    signature when its shape fixes it: 0, 3 or 4.  None when it is 1 or 2,
    which the rank-1 table decides."""
    if (pi.p, pi.q) not in _SUPPORTED:
        raise ThetaError(f"unsupported signature O({pi.p},{pi.q})")
    if pi == trivial_o(pi.p, pi.q):
        return 0
    if pi == det_o(pi.p, pi.q):
        return 4
    if pi.xi == -1 or (pi.zeta == -1 and any(e == 1 and kap.is_zero for e, kap in zip(pi.eps, pi.kappa))):
        return 3
    return None


def _occurrence(pi: OParams, tables: TableSet) -> int:
    """The first occurrence of a valid and canonical pi."""
    if (pi.p, pi.q) in _SWAPPED:
        return _occurrence(swap_pq(pi), tables)
    n0 = _fixed_occurrence(pi)
    if n0 is None:
        return 1 if matching_rows(tables.theta(1), pi) else 2
    return n0


def first_occurrence(pi: OParams, tables: Optional[TableSet] = None) -> int:
    """The smallest n with a nonzero rank-n lift (p + q = 4 only).  An
    invalid pi raises ParamError."""
    pi = checked_o(pi)
    tables = load_tables() if tables is None else tables
    return _occurrence(pi, tables)


class ThetaResult(NamedTuple):
    """A rank-n lift: parameters when nonzero, plus how they were found."""

    params: Optional[SpParams]
    provenance: str

    @property
    def is_zero(self) -> bool:
        return self.params is None

    def render(self) -> str:
        return "0" if self.params is None else render_sp(self.params)


def theta_n(pi: OParams, n: int, tables: Optional[TableSet] = None) -> ThetaResult:
    """The rank-n lift of an O(p,q) parameter, p + q = 4, any n >= 0.  An
    invalid pi raises ParamError."""
    if n < 0:
        raise ThetaError("rank n must be >= 0")
    pi = checked_o(pi)
    tables = load_tables() if tables is None else tables
    return _theta_n(pi, n, tables)


def _theta_n(pi: OParams, n: int, tables: TableSet) -> ThetaResult:
    """``theta_n`` of a valid and canonical pi.  Above rank 1 an occurrence
    of 1 or 2 makes no difference, so the rank-1 table is matched only for
    a rank-1 lift, whose one lookup also decides between the two, and for
    the provenance of a zero rank-0 lift."""
    if (pi.p, pi.q) in _SWAPPED:
        inner = _theta_n(swap_pq(pi), n, tables)
        if inner.is_zero:
            return inner
        return ThetaResult(
            contragredient_sp(inner.params), inner.provenance + " (contragredient via signature swap)"
        )
    n0 = _fixed_occurrence(pi)
    if n0 is None and n == 0:
        n0 = _occurrence(pi, tables)
    if n0 is not None and n < n0:
        return ThetaResult(None, f"zero: rank {n} is below the first occurrence {n0}")
    if n == 0:
        empty = SpParams((), PositiveSystem.of(SpKind(0), ()), (), (), (), ())
        return ThetaResult(empty, "rank-zero lift of the trivial parameter")
    start = n if n <= 2 else max(n0 or 2, 2)
    base = lookup_lift(tables.theta(start), pi)
    if base is None:
        if n == 1 and n0 is None:
            return ThetaResult(None, "zero: rank 1 is below the first occurrence 2")
        raise TableError(f"no rank-{start} table row matches {render_o(pi)}")
    provenance = f"theta{start} table"
    if n == start:
        return ThetaResult(base, provenance)
    return ThetaResult(induct_n(base, pi.p, pi.q, n - start), provenance + f" + induct_n(k={n - start})")


# The rank-3 lift of the determinant character in the signature-(1,1)
# tower.  This value pins down the two-candidate ambiguity that appears at
# kappa = 2 in the zeta = -1, eps = (1,1) rank-3 family: the generic table
# row stays correct there, which is why that family carries no special
# case at kappa = 2.
DET11_THETA3: SpParams = parse_sp("pi(0,{},(1),(1),(1),(2))")
