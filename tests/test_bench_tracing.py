"""The benchmark's per-layer tracer still fits the package.

``bench/tracing.py`` looks every traced function up by name in its module
and rebinds it wherever the package holds it, so deleting or renaming a
traced function breaks ``bench/run.py --trace 1``.  These tests install
the tracer and the Scalar counter in-process, make one small call, and
uninstall them again; no benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import thetalift
from thetalift import cli
from thetalift.exact import Scalar

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every function object bound in a thetalift module namespace."""
    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "thetalift" or name.startswith("thetalift.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_layer_tracer_wraps_every_traced_name_and_restores_them(tracing, capsys):
    for layer in tracing.LAYERS:
        importlib.import_module(f"thetalift.{layer}")
    before = _bindings()
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        for layer, names in tracing.LAYERS.items():
            module = sys.modules[f"thetalift.{layer}"]
            for name in names:
                assert getattr(module, name) is not before[(f"thetalift.{layer}", name)], f"{layer}.{name}"
        code = cli.main(["first-occurrence", "--params", "pi_{1}(0,1,{},0,0,(1,1),(0,1))"])
        traced_verify = thetalift.verify_tables
    finally:
        tracer.uninstall()
    # the package looks up the names from enumeration there on each access,
    # so one read while traced leaves no wrapper behind
    assert traced_verify is not before[("thetalift.enumeration", "verify_tables")]
    assert thetalift.verify_tables is thetalift.enumeration.verify_tables
    assert "verify_tables" not in vars(thetalift)
    assert code == 0 and capsys.readouterr().out == "0\n"
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["langlands.parse_o"] >= 1
    assert tracer.calls["theta.first_occurrence"] == 1
    metrics = tracer.layer_metrics(1)
    assert metrics["theta.first_occurrence.calls"] == (1.0, "count")
    assert _bindings() == before


def test_scalar_counter_counts_and_restores(tracing):
    before = {name: Scalar.__dict__[name] for name in tracing.SCALAR_METHODS}
    counter = tracing.ScalarCounter()
    counter.install()
    try:
        total = Scalar.of(1) + Scalar.of(2)
    finally:
        counter.uninstall()
    assert total == Scalar.of(3) and counter.count > 0
    assert {name: Scalar.__dict__[name] for name in tracing.SCALAR_METHODS} == before
