"""The dual waveform step against the weak-duality bound of its restriction,
the M = 1 closed form and its own certificates, on random restrictions and
on those a design poses."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (assert_certified, assert_same_step, group_soft_threshold,
                      initial_waveform_restriction, random_restriction,
                      waveform_restrictions)
from wptopt.waveform_step import GAP_TOL, ExitReason, WaveformRestriction, dual_step


def assert_certificate(step, res):
    """``lam >= 0``, ``sum_m lam_m g_m = 0`` and ``lam . r > 0``."""
    lam = step.multipliers
    assert step.x is None
    assert lam.min() >= 0.0 and lam @ res.rhs > 0.0
    combo = np.tensordot(lam, res.rows, axes=1)
    assert np.linalg.norm(combo) <= 1e-10 * np.linalg.norm(lam) * np.linalg.norm(res.rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(waveform_restrictions())
def test_dual_step_is_certified(case):
    kind, res = case
    step = dual_step(res)
    event(f"{kind}, dual step {step.exit_reason.name}")
    if step.exit_reason is ExitReason.INFEASIBLE:
        assert_certificate(step, res)
        return
    event(f"{int(np.sum(~step.x.any(axis=1)))} of {len(res.scales)} chains off")
    assert_certified(step, res)
    assert step.gap <= GAP_TOL * (1.0 + step.primal)
    if len(res.rhs) == 1:
        expected = group_soft_threshold(res.scales, res.rows[0], res.rhs[0])
        assert step.primal == pytest.approx(expected, rel=1e-12)


def test_one_receiver_start_is_the_answer():
    """With one row the ray the step starts on is the whole problem: no
    Newton iteration, and the closed form of ``group_soft_threshold``."""
    rng = np.random.default_rng(606)
    for _ in range(20):
        n_rf, n_f = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        scales = rng.uniform(0.0, 2.0, n_rf)
        res = random_restriction(rng, n_rf, n_f, 1, scales)
        step = dual_step(res)
        assert step.exit_reason is ExitReason.TOLERANCE and step.iterations == 0
        expected = group_soft_threshold(scales, res.rows[0], res.rhs[0])
        assert step.primal == pytest.approx(expected, rel=1e-12)


def test_search_keeps_newton_from_cycling():
    """Two chains and two rows; the second chain turns on between the start
    and the optimum. Full Newton steps jump across its kink and back without
    end; the search along each direction lands on the optimum."""
    res = WaveformRestriction(
        rows=np.array([[[-1.486, 1.912], [-0.037, 1.159]],
                       [[0.286, 0.136], [2.234, -2.371]]]),
        rhs=np.array([0.653, 1.372]), scales=np.array([3.11, 19.8]))
    step = dual_step(res)
    assert step.exit_reason is ExitReason.TOLERANCE and step.iterations <= 10
    assert step.gap <= GAP_TOL * (1.0 + step.primal)
    assert step.x.any(axis=1).all()
    assert_certified(step, res)


def test_opposite_rows_give_a_certificate():
    """``g . w >= 1`` and ``-g . w >= 1`` cannot both hold: the certificate
    weighs the two rows equally."""
    g = np.random.default_rng(7).normal(size=(3, 4))
    res = WaveformRestriction(rows=np.stack([g, -g]), rhs=np.ones(2),
                              scales=np.full(3, 0.5))
    step = dual_step(res)
    assert step.exit_reason is ExitReason.INFEASIBLE
    assert_certificate(step, res)
    assert step.multipliers == pytest.approx([1.0, 1.0])


def test_rows_met_at_zero_give_zero():
    res = WaveformRestriction(rows=np.ones((2, 3, 2)), rhs=np.array([-1.0, 0.0]),
                              scales=np.ones(3))
    step = dual_step(res)
    assert step.exit_reason is ExitReason.TOLERANCE
    assert not step.x.any() and step.primal == 0.0 and step.gap == 0.0


@pytest.mark.parametrize("arch", ["fd", "dma"])
def test_production_restriction_is_certified(arch):
    """The dual step solves the restriction of a three-receiver design's
    initialization, certified by weak duality."""
    *_, res = initial_waveform_restriction(arch)
    assert res.rows.shape[0] == 3
    assert np.all(res.rhs > 0)   # every target lies above the tangent at w0
    step = dual_step(res)
    assert_certified(step, res)
    assert step.gap <= GAP_TOL * (1.0 + step.primal)
    assert np.all(step.multipliers >= 0.0)


def _duplicated_row(seed):
    """Three rows of which the first two are one receiver twice: the dual
    Hessian is singular along ``e_1 - e_2`` at every point."""
    rng = np.random.default_rng(seed)
    n_rf, n_f = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    g = rng.normal(size=(2, n_rf, 2 * n_f))
    r = rng.uniform(0.5, 2.0, 2)
    return WaveformRestriction(rows=np.stack([g[0], g[0], g[1]]), rhs=r[[0, 0, 1]],
                               scales=rng.uniform(0.0, 2.0, n_rf))


@pytest.mark.parametrize("seed", [2194, 2286, 3125, 4596])
def test_projected_gradient_fallback(monkeypatch, seed):
    """The Newton direction stops descending at the step's first iteration,
    as it does by its rounding on some floating-point kernels once the
    gradient is at its rounding level, and the step takes the projected
    gradient. The answer is still feasible and certified, and it is the
    answer without the repeated row."""
    from wptopt import dual_newton
    returned = []
    newton = dual_newton.direction

    def spy(*args):
        p = newton(*args) if returned else None   # the forced stall
        returned.append(p)
        return p

    monkeypatch.setattr(dual_newton, "direction", spy)
    res = _duplicated_row(seed)
    step = dual_step(res)
    assert any(p is None for p in returned)
    assert step.exit_reason is ExitReason.TOLERANCE
    assert res.max_violation(step.x) == 0.0 and step.primal == res.objective(step.x)
    assert step.gap <= GAP_TOL * (1.0 + step.primal)
    assert step.multipliers.min() >= 0.0
    assert_certified(step, res)
    single = dual_step(WaveformRestriction(res.rows[1:], res.rhs[1:], res.scales))
    assert step.primal == pytest.approx(single.primal, rel=1e-11)


@pytest.mark.parametrize("factors, infeasible", [
    ((1.0, -1.0, 1.0), True), ((1.0, 2.0, 3.0), False), ((0.0, 0.0), True)])
def test_certificate_search_on_a_plane_of_null_rays(factors, infeasible):
    """Rows that are multiples of one row leave a null space of dimension
    M - 1 >= 2 in the total Gram matrix, and its extreme rays are searched
    one zero coordinate at a time. ``g`` and ``-g`` cannot both reach 1, and
    nor can rows that are all zero; ``g``, ``2g`` and ``3g`` are one row,
    ``g . w >= 1``."""
    g = np.random.default_rng(11).normal(size=(3, 4))
    res = WaveformRestriction(rows=np.array([f * g for f in factors]),
                              rhs=np.ones(len(factors)), scales=np.full(3, 0.5))
    gram = np.einsum("mik,lik->ml", res.rows, res.rows)
    assert np.sum(np.linalg.eigvalsh(gram) <= 1e-12 * max(gram.max(), 1.0)) >= 2
    step = dual_step(res)
    if infeasible:
        assert step.exit_reason is ExitReason.INFEASIBLE
        assert_certificate(step, res)
        return
    assert step.exit_reason is ExitReason.TOLERANCE
    assert res.max_violation(step.x) == 0.0
    assert step.gap <= GAP_TOL * (1.0 + step.primal)
    assert step.primal == pytest.approx(group_soft_threshold(res.scales, g, 1.0), rel=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 4),
       st.sampled_from(["random", "zero row", "zero chain", "rhs <= 0", "rhs == 0"]))
def test_one_row_start_is_the_general_start(seed, n_rf, n_f, kind):
    """One row's certificate and ray start, from its 1 x 1 Gram entry and
    its own chain norms, are the eigensolve's and the dual's bit for bit,
    and so is every step that starts from them."""
    from unittest import mock

    from wptopt import waveform_step as module
    rng = np.random.default_rng(seed)
    res = random_restriction(rng, n_rf, n_f, 1, rng.uniform(0.0, 2.0, n_rf))
    rows, rhs = res.rows.copy(), res.rhs.copy()
    if kind == "zero row":
        rows[:] = 0.0
        rhs = rng.choice([-1.0, 1.0]) * np.abs(rhs)
    elif kind == "zero chain":
        rows[0, 0] = 0.0
    elif kind == "rhs <= 0":
        rhs = -np.abs(rhs)
    elif kind == "rhs == 0":
        rhs[:] = 0.0
    res = WaveformRestriction(rows=rows, rhs=rhs, scales=res.scales)
    dual = module._Dual(res)
    for got, want in zip(module._one_row_start(dual), module._start(dual)):
        assert (got is None and want is None) or got.tobytes() == want.tobytes()
    step = dual_step(res)
    with mock.patch.object(module, "_one_row_start", module._start):
        assert_same_step(step, dual_step(res))
