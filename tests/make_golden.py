"""Write ``tests/data/golden.json``, six designs pinned bit for bit.

    PYTHONPATH=src python tests/make_golden.py

The runs are ``sample_scenario.cfg`` and the three-receiver DMA and FD
scenarios at L = 0.1 m with 8 tones, each with and without paper-rate
sampling. Each is optimized as ``wptopt optimize`` does it, and its entry
holds:

- ``digest``: sha256 over the weights, the element weights ``q``, the
  trace's ``p_c_bound`` column and ``p_dc``. The sampled report fields and
  the timings stay out, so a sampling change does not move it;
- the counts: trace records, and per stage (``q`` focusing, ``w``
  waveform) in call order its SCA steps, the Newton iterations of each
  accepted step and the exit reason of every step;
- ``p_c_sampled`` and ``p_hpa_sampled``, which ``tests/test_golden.py``
  compares to 1e-12 relative.

A change that claims to keep every design leaves the file as it is, and
``tests/test_golden.py`` is its proof. A change that moves a design on
purpose runs this script and records old -> new.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from wptopt import blas, cli, optimize
from wptopt.scenario import load_scenario

from conftest import THREE_RECEIVERS, make_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden.json"
SCENARIOS = {
    "sample": lambda: load_scenario(ROOT / "sample_scenario.cfg"),
    "multiuser_dma": lambda: make_scenario("dma", 0.10, 8, THREE_RECEIVERS),
    "multiuser_fd": lambda: make_scenario("fd", 0.10, 8, THREE_RECEIVERS),
}
RUNS = {f"{name}{suffix}": (name, paper)
        for name in SCENARIOS for suffix, paper in (("", False), ("_paper", True))}
STAGES = ("run_sca_q", "run_sca_w")


def digest(artifact: cli.RunArtifact) -> str:
    h = hashlib.sha256()
    for part in (artifact.waveform, artifact.dma_q,
                 [row["p_c_bound"] for row in artifact.trace_rows], artifact.p_dc):
        if part is not None:
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def run(name: str) -> dict:
    """The golden entry of run ``name``, optimized on one BLAS thread as
    ``cli.main`` runs it. The stages are recorded through ``optimize``'s
    own names, which the drivers call."""
    scenario, paper = SCENARIOS[RUNS[name][0]](), RUNS[name][1]
    stages = []

    def recorded(stage, fn):
        def wrapper(*args):
            result = fn(*args)
            trace = result[1]
            stages.append({"stage": stage[-1], "sca_steps": trace.iterations,
                           "newton": [step.iterations for step in trace.steps],
                           "exit_reasons": [reason.name for reason in trace.exit_reasons]})
            return result
        return wrapper

    real = {stage: getattr(optimize, stage) for stage in STAGES}
    try:
        for stage, fn in real.items():
            setattr(optimize, stage, recorded(stage, fn))
        with blas.single_thread():
            artifact = cli.run_optimization(scenario, paper_sampling=paper)
    finally:
        for stage, fn in real.items():
            setattr(optimize, stage, fn)
    return {"digest": digest(artifact), "records": len(artifact.trace_rows),
            "converged": artifact.converged, "stages": stages,
            "p_c_sampled": artifact.power_report.p_c_sampled,
            "p_hpa_sampled": artifact.power_report.p_hpa_sampled}


def main() -> int:
    text = json.dumps({name: run(name) for name in RUNS}, indent=1, sort_keys=True)
    # one line per list of numbers or names
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(text + "\n")
    print(f"golden designs: {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
