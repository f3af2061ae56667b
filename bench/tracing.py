"""Per-layer tracing of the thetalift package from outside it.

The layers are the package's modules.  ``LayerTracer.install`` wraps the
functions listed in ``LAYERS`` and rebinds each wrapper in every thetalift
module namespace that holds the original: ``from .x import f`` copies the
name, so wrapping only the defining module would miss most calls.  Each
wrapped call records a span (id, name, start, end, parent id, operation
id).  Self time is kept as each span finishes, as its duration minus the
durations of its direct child spans, so that aggregation needs no second
pass over the spans; the raw spans are kept in memory up to a cap and
written out at the end.

``ScalarCounter`` counts ``Scalar`` construction and arithmetic in a pass
of its own: those methods are hot enough that wrapping them would inflate
every other layer's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Wrapped functions per layer.  Module-private helpers are left unwrapped:
# their time is self time of the wrapped caller in the same layer.
LAYERS = {
    "roots": (
        "all_roots",
        "delta_c_plus",
        "compact_roots",
        "noncompact_weights",
        "simple_members",
        "enumerate_positive_systems",
        "is_positive_system",
        "contains_delta_c_plus",
        "check_dominance_f1",
        "parse_psi",
        "rho_shift",
        "two_rho_c",
    ),
    "ktypes": (
        "phi_n",
        "phi_pq",
        "degree_o",
        "degree_u",
        "ktype_norm",
        "parse_oktype",
        "parse_uktype",
        "sigma_one_one",
        "sigma_prime_add",
        "u_from_o",
        "o_from_u",
    ),
    "langlands": (
        "validate_sp",
        "validate_o",
        "canonicalize_sp",
        "canonicalize_o",
        "canonicalize",
        "parse_sp",
        "parse_o",
        "parse_params",
        "render_sp",
        "render_o",
        "render_params",
        "infchar_sp",
        "infchar_o",
        "contragredient_sp",
        "swap_pq",
        "tensor_det_o",
        "trivial_o",
        "det_o",
    ),
    "lkt": ("lowest_ktypes_sp", "lowest_ktypes_o", "multiplicity_o31"),
    "theta": (
        "load_tables",
        "theta_n",
        "first_occurrence",
        "induct_n",
        "induct_pq",
        "row_lift",
        "matching_rows",
        "lookup_lift",
        "appendix_rows_at",
        "instantiate_pattern",
        "instantiate_lkt_row",
        "dual_infchar",
        "o_infchar_from_sp",
        "apply_modification",
    ),
    "enumeration": (
        "enumerate_sp_reps",
        "enumerate_o_reps",
        "verify_unique_by_invariants",
        "regenerate_appendix_c",
        "verify_tables",
    ),
    "cli": ("main",),
}

# Raw spans kept per run; later spans still count in the aggregates.
SPAN_CAP = 200_000
ROOT_HELPERS = ("all_roots", "delta_c_plus", "compact_roots", "noncompact_weights", "simple_members")
SCALAR_METHODS = ("__init__", "__add__", "__radd__", "__sub__", "__neg__", "scale", "half", "substitute")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "thetalift" or name.startswith("thetalift.")]


class _Rebinder:
    """Replaces objects by identity in every thetalift module namespace and
    puts the originals back on ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, original, replacement, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


class LayerTracer:
    """Spans and counters at the boundaries of the thetalift layers."""

    def __init__(self):
        self.op = -1
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._rebinder = _Rebinder()

    # -- spans -----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, start, end, parent, self.op))
            else:
                self.dropped += 1

    def _wrap(self, name, fn):
        call = self._call

        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    def _wrap_canonicalize(self, name, fn):
        call, counts = self._call, self.counts

        def wrapper(params):
            out = call(name, fn, (params,), {})
            counts["canonicalize.noop"] += out == params
            return out

        return wrapper

    def _wrap_row_lift(self, name, fn):
        call, counts = self._call, self.counts

        def wrapper(row, pi):
            out = call(name, fn, (row, pi), {})
            counts["row_lift.hit"] += out is not None
            return out

        return wrapper

    def _wrap_enumerator(self, name, fn):
        call, counts = self._call, self.counts

        def wrapper(*args, **kwargs):
            out = call(name, fn, args, kwargs)
            counts["enumeration.unique"] += len(out)
            return out

        return wrapper

    def _wrap_candidate(self, validate):
        """A validate call made through enumeration's namespace: one
        enumeration candidate, accepted when it does not raise."""
        counts = self.counts

        def wrapper(params):
            counts["enumeration.candidates"] += 1
            validate(params)
            counts["enumeration.accepted"] += 1

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"thetalift.{layer}")
        enumeration = sys.modules["thetalift.enumeration"]
        modules = _package_modules()
        special = {
            "canonicalize_sp": self._wrap_canonicalize,
            "canonicalize_o": self._wrap_canonicalize,
            "row_lift": self._wrap_row_lift,
            "enumerate_sp_reps": self._wrap_enumerator,
            "enumerate_o_reps": self._wrap_enumerator,
        }
        for layer, names in LAYERS.items():
            module = sys.modules[f"thetalift.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = special.get(fname, self._wrap)(f"{layer}.{fname}", original)
                self._rebinder.rebind(original, wrapper, modules)
        for fname in ("validate_sp", "validate_o"):
            traced = getattr(enumeration, fname)
            self._rebinder.rebind(traced, self._wrap_candidate(traced), [enumeration])

    def uninstall(self) -> None:
        self._rebinder.restore()

    # -- results ---------------------------------------------------------

    def _sum(self, table, layer: str, names=None) -> float:
        names = LAYERS[layer] if names is None else names
        return sum(table[f"{layer}.{n}"] for n in names)

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics as name -> (value, unit)."""

        def per_op(x):
            return x / ops

        def ms(layer, names=None):
            return (per_op(self._sum(self.self_time, layer, names)) * 1e3, "ms")

        def calls(layer, names):
            return (per_op(self._sum(self.calls, layer, names)), "count")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        rows = self._sum(self.calls, "theta", ("row_lift",))
        canon = self._sum(self.calls, "langlands", ("canonicalize_sp", "canonicalize_o"))
        cand = self.counts["enumeration.candidates"]
        accepted = self.counts["enumeration.accepted"]
        return {
            "theta.self_ms": ms("theta"),
            "theta.theta_n.calls": calls("theta", ("theta_n",)),
            "theta.first_occurrence.calls": calls("theta", ("first_occurrence",)),
            "theta.row_lift.calls": calls("theta", ("row_lift",)),
            "theta.row_hit_ratio": ratio(self.counts["row_lift.hit"], rows),
            "theta.induct_n.calls": calls("theta", ("induct_n",)),
            "langlands.self_ms": ms("langlands"),
            "langlands.canonicalize.calls": calls("langlands", ("canonicalize_sp", "canonicalize_o")),
            "langlands.canonicalize.noop_ratio": ratio(self.counts["canonicalize.noop"], canon),
            "langlands.validate.calls": calls("langlands", ("validate_sp", "validate_o")),
            "langlands.parse.self_ms": ms("langlands", ("parse_sp", "parse_o", "parse_params")),
            "langlands.render.self_ms": ms("langlands", ("render_sp", "render_o", "render_params")),
            "roots.self_ms": ms("roots"),
            "roots.enumerate_positive_systems.calls": calls("roots", ("enumerate_positive_systems",)),
            "roots.is_positive_system.calls": calls("roots", ("is_positive_system",)),
            "roots.helpers.calls": calls("roots", ROOT_HELPERS),
            "enumeration.self_ms": ms("enumeration"),
            "enumeration.candidates": (per_op(cand), "count"),
            "enumeration.accept_ratio": ratio(accepted, cand),
            "enumeration.unique_ratio": ratio(self.counts["enumeration.unique"], accepted),
            "lkt.self_ms": ms("lkt"),
            "lkt.lowest_ktypes.calls": calls("lkt", ("lowest_ktypes_sp", "lowest_ktypes_o")),
            "ktypes.self_ms": ms("ktypes"),
            "ktypes.phi.calls": calls("ktypes", ("phi_n", "phi_pq")),
            "cli.self_ms": ms("cli"),
        }

    def write_spans(self, path) -> None:
        """One JSON array per span: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class ScalarCounter:
    """Counts ``Scalar`` construction and arithmetic calls."""

    def __init__(self):
        self.count = 0
        self._saved: dict[str, object] = {}

    def install(self) -> None:
        from thetalift.exact import Scalar

        for name in SCALAR_METHODS:
            original = Scalar.__dict__[name]
            self._saved[name] = original
            setattr(Scalar, name, self._counting(original))

    def _counting(self, fn):
        def wrapper(*args, **kwargs):
            self.count += 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        from thetalift.exact import Scalar

        for name, original in self._saved.items():
            setattr(Scalar, name, original)
        self._saved.clear()
