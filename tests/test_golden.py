"""Six designs against ``tests/data/golden.json`` (written by
``tests/make_golden.py``). Under the kernels an entry was written with, the
weights, element weights, bound trace and DC powers match bit for bit, the
stage and Newton counts exactly, and the sampled consumption to 1e-12
relative. Under other kernels the counts match exactly and every value to
``CROSS_KERNEL_REL`` of its array's largest entry."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import make_golden
from conftest import assert_certified, kernel_fingerprint

GOLDEN = json.loads(make_golden.GOLDEN.read_text())
# Measured on an AVX-512 x86-64 host (numpy 2.4.6, OpenBLAS core SkylakeX):
# OPENBLAS_CORETYPE=Haswell and NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR", alone or together, left every count as it was and moved the
# pinned arrays by at most 1.2e-14 (weights, q, bound trace) and 3.9e-14
# (p_dc) of their largest entries, and the sampled consumption by 7e-15.
# 1e-12 is 25 times the largest of these, the tolerance the sampled
# consumption already had, and a million times finer than the 1e-6 relative
# change at which a stage stops, so one SCA step more or less cannot pass.
CROSS_KERNEL_REL = 1e-12
COUNTS = ("records", "converged", "stages")


def compare(got: dict, want: dict) -> str:
    """Assert that the run ``got`` reproduces the golden entry ``want``, bit
    for bit where it ran on the entry's kernels and to ``CROSS_KERNEL_REL``
    elsewhere, and say which comparison ran."""
    got, want = dict(got), dict(want)
    kernels = got.pop("kernels")
    written = want.pop("kernels")
    for key in ("p_c_sampled", "p_hpa_sampled"):
        assert got.pop(key) == pytest.approx(want.pop(key), rel=CROSS_KERNEL_REL, abs=0.0), \
            (key, kernels)
    if kernels == written:
        assert got["digest"] == want["digest"], f"the design moved under {kernels}"
        assert got == want, kernels
        return f"exact, on the kernels it was written with ({kernels})"
    for key in COUNTS:
        assert got[key] == want[key], (key, kernels)
    assert sorted(got["values"]) == sorted(want["values"])
    for key, pinned in want["values"].items():
        moved = np.max(np.abs(np.subtract(got["values"][key], pinned)))
        assert moved <= CROSS_KERNEL_REL * np.max(np.abs(pinned)), (key, moved, kernels)
    return f"cross-kernel, counts exact and values to {CROSS_KERNEL_REL:g} ({kernels}, " \
           f"written under {written})"


def test_golden_file_lists_every_run():
    assert sorted(GOLDEN) == sorted(make_golden.RUNS)


@pytest.mark.parametrize("name", sorted(make_golden.RUNS))
def test_design_matches_its_golden_entry(name):
    print(f"\nGOLDEN {name}: {compare(make_golden.run(name), GOLDEN[name])}")


def test_design_holds_on_another_blas_kernel():
    """The sample design, optimized in a child process on OpenBLAS's Haswell
    kernels, keeps its counts and its values to ``CROSS_KERNEL_REL`` while
    its digest moves: the cross-kernel comparison passes where the exact one
    cannot. Skipped where the setting leaves the kernels as they were."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = "import json, make_golden; print(json.dumps(make_golden.run('sample')))"
    child = subprocess.run([sys.executable, "-c", code], env=env, cwd=tests,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    got, want = json.loads(child.stdout), GOLDEN["sample"]
    if got["kernels"] in (want["kernels"], kernel_fingerprint()):
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell changes no kernel here ({got['kernels']})")
    assert got["digest"] != want["digest"], "the design kept its bits on other kernels"
    print(f"\nGOLDEN sample, OPENBLAS_CORETYPE=Haswell: {compare(got, want)}")


def test_one_receiver_branches_are_the_general_path(monkeypatch):
    """Every focusing and waveform restriction of the one-receiver golden
    run, solved by the one-receiver branches and by the general path that
    they shortcut, gives bitwise the same step."""
    from conftest import assert_same_step
    from wptopt import blas, cli, focusing_step, optimize, waveform_step
    posed = {"q": [], "w": []}
    solve_q, solve_w = optimize.focusing_step, optimize.dual_step

    def record_q(lins, start=None):
        posed["q"].append((lins, start))
        return solve_q(lins, start)

    def record_w(restriction):
        posed["w"].append(restriction)
        return solve_w(restriction)

    with monkeypatch.context() as patch:
        patch.setattr(optimize, "focusing_step", record_q)
        patch.setattr(optimize, "dual_step", record_w)
        with blas.single_thread():
            cli.run_optimization(make_golden.SCENARIOS["sample"]())
    assert len(posed["q"]) > 100 and len(posed["w"]) > 20
    assert {len(lins) for lins, _ in posed["q"]} == {1}
    assert {len(res.rhs) for res in posed["w"]} == {1}
    with blas.single_thread():
        fast = [solve_q(*args) for args in posed["q"]] + [solve_w(res) for res in posed["w"]]
        monkeypatch.setattr(focusing_step, "_single", lambda lin, lam: None)
        monkeypatch.setattr(waveform_step, "_one_row_start", waveform_step._start)
        general = ([solve_q(*args) for args in posed["q"]]
                   + [solve_w(res) for res in posed["w"]])
    for got, want in zip(fast, general, strict=True):
        assert_same_step(got, want)


@pytest.mark.parametrize("scenario", sorted(make_golden.SCENARIOS))
def test_every_step_of_a_golden_run_is_certified(monkeypatch, scenario):
    """Every focusing and waveform step that a golden design takes is
    certified against the weak-duality bound of the restriction it was
    given."""
    from wptopt import blas, cli, optimize
    steps = []

    def recorded(solve):
        def wrapper(problem, *start):
            step = solve(problem, *start)
            steps.append((step, problem))
            return step
        return wrapper

    monkeypatch.setattr(optimize, "focusing_step", recorded(optimize.focusing_step))
    monkeypatch.setattr(optimize, "dual_step", recorded(optimize.dual_step))
    with blas.single_thread():
        cli.run_optimization(make_golden.SCENARIOS[scenario]())
    assert len(steps) > 20
    for step, restriction in steps:
        assert_certified(step, restriction)
