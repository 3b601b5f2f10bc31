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
