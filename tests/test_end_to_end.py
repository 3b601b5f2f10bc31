"""Randomized end to end: ``wptopt optimize`` then ``wptopt simulate``
through ``cli.main`` on small scenarios drawn over both architectures, with
the properties every run must keep whatever the geometry."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wptopt.cli import EXIT_INFEASIBLE, EXIT_ITER_LIMIT, EXIT_OK, main
from wptopt.scenario import (Architecture, FrequencyPlan, ReceiverSpec, ScenarioConfig,
                             build_array, save_scenario)

from conftest import BW, F1


@st.composite
def scenarios(draw):
    """L up to 0.2 m, up to 4 tones, up to three receivers (no more than the
    chains) at 0.05 to 6 m in front of the array, each with a target from
    0.1 to 1000 uW."""
    arch = draw(st.sampled_from([Architecture.DMA, Architecture.FULLY_DIGITAL]))
    array = build_array(arch, draw(st.floats(0.05, 0.2)), F1)
    receivers = tuple(
        ReceiverSpec(np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)),
                               draw(st.floats(0.05, 6.0))]),
                     10.0 ** draw(st.floats(-7.0, -3.0)))
        for _ in range(draw(st.integers(1, min(3, array.rf_chain_count)))))
    scenario = ScenarioConfig(array, FrequencyPlan.from_bandwidth(F1, BW, draw(st.integers(1, 4))),
                              receivers)
    scenario.validate()
    return scenario


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(scenarios())
def test_optimize_then_simulate_keeps_every_claim(scenario):
    """Exit 0, 4 or 5, with one stderr line for 4 and 5. An artifact's
    ``simulate`` prints only PASS lines, its sampled amplifier power stays
    within its Jensen bound, its bound trace does not rise by more than the
    stage tolerance, and a second run writes the same content hash."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        save_scenario(scenario, path)
        runs = [_cli("optimize", str(path), "--out", str(Path(tmp) / run)) for run in "ab"]
        (code, out, err), again = runs
        event(f"{scenario.array.architecture.value}: exit {code}")
        assert again[0] == code
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_ITER_LIMIT), err
        assert len(err.splitlines()) == (0 if code == EXIT_OK else 1), err
        if code == EXIT_INFEASIBLE:
            assert err.startswith("infeasible: ")
            return
        assert code == EXIT_OK or err.startswith("warning: ")
        artifacts = [Path(run[1].splitlines()[0].removeprefix("artifact: ")) for run in runs]
        stored = [json.loads(p.read_text()) for p in artifacts]
        assert stored[0]["content_hash"] == stored[1]["content_hash"]
        report = stored[0]["power_report"]
        assert report["p_hpa_sampled"] <= report["p_hpa_bound"]
        bounds = np.array([row["p_c_bound"] for row in stored[0]["trace"]])
        assert np.all(bounds[1:] <= bounds[:-1] * (1.0 + scenario.solver.sca_rel_tol))
        code, out, err = _cli("simulate", str(artifacts[0]))
        lines = out.splitlines()
        assert code == EXIT_OK and err == ""
        assert lines and all(line.startswith("PASS ") for line in lines), out
