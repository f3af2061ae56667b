"""Exact local theta correspondence for (O(p,q), Sp(2n,R)), p + q = 4.

Submodules:
  exact        rational/Gaussian scalars with one formal symbol, infinitesimal characters
  roots        type-B/C/D root systems, positive systems, dominance
  ktypes       U(n) and O(p) x O(q) K-types, joint-harmonics maps, degrees
  langlands    Langlands parameters: validation, canonical forms, notation
  lkt          lowest K-types of a parameter
  theta        lift tables, induction principles, first occurrence, dispatcher
  enumeration  fixed-infinitesimal-character enumeration and verification suites
  cli          the `thetalift` command (also ``python -m thetalift``)

``import thetalift`` loads exact, roots, langlands and theta; the names
from ``enumeration`` load it, with lkt and ktypes, on first access.
"""

from .exact import GENERIC_B, InfChar, Scalar, infchars_dual, parse_scalar
from .langlands import (
    OParams,
    ParamError,
    SpParams,
    canonicalize,
    det_o,
    infchar_o,
    infchar_sp,
    parse_params,
    render_params,
    trivial_o,
)
from .theta import (
    TableError,
    ThetaError,
    ThetaResult,
    first_occurrence,
    induct_n,
    induct_pq,
    load_tables,
    theta_n,
)
# ``enumeration`` and the K-type code it imports load on first use of one
# of these names.  Each access looks the name up there afresh and stores
# nothing here, so a function rebound there (as a tracer does) is seen.
_ENUMERATION_NAMES = (
    "enumerate_o_reps",
    "enumerate_sp_reps",
    "regenerate_appendix_c",
    "verify_tables",
    "verify_unique_by_invariants",
)


def __getattr__(name: str):
    if name in _ENUMERATION_NAMES:
        from . import enumeration

        return getattr(enumeration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ENUMERATION_NAMES})


__version__ = "0.1.0"

__all__ = [
    "GENERIC_B",
    "InfChar",
    "OParams",
    "ParamError",
    "Scalar",
    "SpParams",
    "TableError",
    "ThetaError",
    "ThetaResult",
    "canonicalize",
    "det_o",
    "enumerate_o_reps",
    "enumerate_sp_reps",
    "first_occurrence",
    "induct_n",
    "induct_pq",
    "infchar_o",
    "infchar_sp",
    "infchars_dual",
    "load_tables",
    "parse_params",
    "parse_scalar",
    "regenerate_appendix_c",
    "render_params",
    "theta_n",
    "trivial_o",
    "verify_tables",
    "verify_unique_by_invariants",
]
