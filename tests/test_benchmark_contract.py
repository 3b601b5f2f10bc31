"""The benchmark (perfbench/run.py) reads artifacts and rebuilds DMA states
through library names of its own choosing: ``RunArtifact.dma_phi``,
``DmaState.from_phases``/``with_weights`` and ``power.sampled_consumption``.
A change that breaks one must fail here, in the test suite, and not only
when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from wptopt.scenario import (Architecture, FrequencyPlan, ReceiverSpec,
                             ScenarioConfig, build_array)

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    saved_path = list(sys.path)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
        sys.modules.pop("tracing", None)   # run.py imports its tracer by that name
        sys.path[:] = saved_path


def test_benchmark_checks_pass_on_a_tiny_dma_design(bench, tmp_path):
    """One receiver, a 2 x 5 DMA at 1 GHz: the design's checks and one
    verify operation with its checks report no failure."""
    scenario = ScenarioConfig(build_array(Architecture.DMA, 0.3, 1e9),
                              FrequencyPlan.from_bandwidth(1e9, 10e6, 2),
                              (ReceiverSpec(np.array([0.1, 0.0, 1.5]), 20e-6),))
    scenario.validate()
    design = bench.write_design("dma_1rx", scenario, tmp_path)
    rc, _ = bench.run_cli(design.argv)
    reasons, det = bench.check_design(design, rc)
    assert reasons == []
    assert det["outer_passes"] >= 1
    workload = bench.VerifyWorkload(design, tmp_path)
    reasons, det, p_c = workload._check(workload._operation())
    assert reasons == []
    assert p_c > 0 and det["fieldmap_cells"] > 0
