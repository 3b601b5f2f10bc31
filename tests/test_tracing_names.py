"""The benchmark's tracer (perfbench/tracing.py) wraps library functions that
it finds by name. A renamed or removed function must fail here, in the test
suite, and not only when the benchmark runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import wptopt.cli
from wptopt import focusing_step, optimize

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_traced_names_resolve_to_callables(tracing):
    for mod_name, funcs in tracing.LAYERS.items():
        module = importlib.import_module(f"wptopt.{mod_name}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"wptopt.{mod_name}.{func}"
    for meth in tracing.ARTIFACT_METHODS:
        assert callable(getattr(wptopt.cli.RunArtifact, meth, None)), meth


def test_traced_fd_design_counts_waveform_solves(tracing, tiny_fd):
    """The waveform stage steps through its dual, with no cone solve."""
    unwrapped = optimize.run_sca_w
    tracer = tracing.Tracer()
    tracer.operation(0, lambda: optimize.run_sca_fd(tiny_fd))
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["socp.solve.w.calls"] == 0
    assert metrics["optimize.sca_steps_w"] >= 1
    assert metrics["optimize.run_sca_fd.calls"] == 1
    # uninstalled after the operation; the focusing step is not a layer
    assert optimize.run_sca_w is unwrapped
    assert optimize.focusing_step is focusing_step.focusing_step
