"""Six designs against ``tests/data/golden.json`` (written by
``tests/make_golden.py``): weights, element weights, bound trace and DC
powers bit for bit, the stage and Newton counts exactly, and the sampled
consumption to 1e-12 relative."""

import json

import pytest

import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


def test_golden_file_lists_every_run():
    assert sorted(GOLDEN) == sorted(make_golden.RUNS)


@pytest.mark.parametrize("name", sorted(make_golden.RUNS))
def test_design_matches_its_golden_entry(name):
    got, want = make_golden.run(name), dict(GOLDEN[name])
    for key in ("p_c_sampled", "p_hpa_sampled"):
        assert got.pop(key) == pytest.approx(want.pop(key), rel=1e-12, abs=0.0), key
    assert got["digest"] == want["digest"], "the design moved"
    assert got == want


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
