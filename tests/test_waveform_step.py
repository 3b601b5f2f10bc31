"""The dual waveform step against the interior-point reference, the M = 1
closed form and its own certificates, on random restrictions and on those a
design poses."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import make_scenario
from test_socp_newton import group_soft_threshold, waveform_program
from wptopt.channel import build_channel
from wptopt.linearize import linearize_vo_in_w
from wptopt.optimize import allocate_chains, init_digital_weights, init_q_phases
from wptopt.power import chain_norm_scales
from wptopt.socp import (SolveStatus, assemble_w_subproblem, solve,
                         waveform_cone_program)
from wptopt.transmitter import effective_rows
from wptopt.waveform_step import (GAP_TOL, ExitReason, WaveformRestriction,
                                  dual_step, waveform_restriction)

# The interior-point method stops at a KKT merit of 1e-9; its objective then
# lies within 1e-8 (1 + |P|) of the optimum on these programs.
IPM_OBJECTIVE_TOL = 1e-8


def restriction_of(prog, n_rf, n_f) -> WaveformRestriction:
    """The restriction that a ``waveform_program`` cone program poses."""
    m_rows = len(prog.ineq_rhs)
    return WaveformRestriction(rows=-prog.ineq_lhs.reshape(m_rows, n_rf, 2 * n_f),
                               rhs=-prog.ineq_rhs,
                               scales=np.array([g.scale for g in prog.norm_groups]))


def assert_certificate(step, res):
    """``lam >= 0``, ``sum_m lam_m g_m = 0`` and ``lam . r > 0``."""
    lam = step.multipliers
    assert step.x is None
    assert lam.min() >= 0.0 and lam @ res.rhs > 0.0
    combo = np.tensordot(lam, res.rows, axes=1)
    assert np.linalg.norm(combo) <= 1e-10 * np.linalg.norm(lam) * np.linalg.norm(res.rows)


@st.composite
def restrictions(draw):
    """``waveform_program`` draws with M in {1, 2, 3}; one chain with one tone
    and three rows (its Hessian has rank 2 at most, and a quarter of such
    draws are infeasible); and scales that keep chains off at the optimum."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        n_rf, n_f, m_rows = 1, 1, 3
    else:
        n_rf, n_f = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        m_rows = draw(st.integers(1, 3))
    scales = rng.uniform(0.0, 2.0, n_rf)
    if draw(st.booleans()):
        scales = scales * np.where(rng.uniform(size=n_rf) < 0.5, 10.0, 1.0)
    prog = waveform_program(rng, n_rf, n_f, m_rows, scales=scales)
    return prog, restriction_of(prog, n_rf, n_f)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(restrictions())
def test_dual_step_matches_interior_point(case):
    prog, res = case
    step = dual_step(res)
    sol = solve(prog, tol=1e-9)
    event(f"interior point {sol.status.name}, dual step {step.exit_reason.name}")
    if sol.status is SolveStatus.INFEASIBLE:
        assert step.exit_reason is ExitReason.INFEASIBLE
    if step.exit_reason is ExitReason.INFEASIBLE:
        assert_certificate(step, res)
        return
    assert res.max_violation(step.x) == 0.0
    assert step.primal == res.objective(step.x)
    event(f"{int(np.sum(~step.x.any(axis=1)))} of {len(res.scales)} chains off")
    if step.exit_reason is ExitReason.TOLERANCE:
        assert step.gap <= GAP_TOL * (1.0 + step.primal)
    if sol.status is SolveStatus.OPTIMAL:
        assert step.exit_reason is ExitReason.TOLERANCE
        assert step.primal == pytest.approx(sol.objective, rel=IPM_OBJECTIVE_TOL,
                                            abs=IPM_OBJECTIVE_TOL)
        if prog.max_violation(sol.x) == 0.0:   # weak duality
            assert sol.objective >= step.dual - GAP_TOL * (1.0 + step.primal)
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
        res = restriction_of(waveform_program(rng, n_rf, n_f, 1, scales=scales),
                             n_rf, n_f)
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
    sol = solve(waveform_cone_program(res))
    assert sol.status is SolveStatus.OPTIMAL
    assert step.primal == pytest.approx(sol.objective, rel=IPM_OBJECTIVE_TOL)


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
def test_production_restriction_matches_its_cone_program(arch):
    """The cone program of ``assemble_w_subproblem`` poses the production
    restriction, and the dual step and the interior-point method agree on it
    at a three-receiver design's initialization."""
    cfg = make_scenario(arch, receivers=((0.0, 0.0, 1.5), (0.2, 0.1, 1.8),
                                         (-0.3, 0.2, 2.1)))
    dev = cfg.device
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, dev.boresight_gain)
    plan = allocate_chains(channel, cfg.n_receivers, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg) if arch == "dma" else None
    w = init_digital_weights(cfg, channel, plan, dma)
    lins = [linearize_vo_in_w(rows, w.omega.T, dev.k2, dev.k4, dev.hpa_gain)
            for rows in effective_rows(channel, cfg.array, dma)]
    scales = chain_norm_scales(dma, w.n_rf, dev.hpa_gain, dev.hpa_saturation_power,
                               dev.hpa_max_efficiency)
    res = waveform_restriction(lins, w, scales, cfg.voltage_targets())
    prog = assemble_w_subproblem(cfg, dma, lins, w)
    n_rf, n_f = w.omega.shape
    assert res.rows.shape == (3, n_rf, 2 * n_f)
    assert np.array_equal(prog.ineq_lhs, -res.rows.reshape(3, -1))
    assert np.array_equal(prog.ineq_rhs, -res.rhs)
    assert [g.scale for g in prog.norm_groups] == list(res.scales)
    assert np.all(res.rhs > 0)   # every target lies above the tangent at w0
    step = dual_step(res)
    sol = solve(prog)
    assert sol.status is SolveStatus.OPTIMAL
    assert step.exit_reason is ExitReason.TOLERANCE
    assert step.gap <= GAP_TOL * (1.0 + step.primal)
    assert res.max_violation(step.x) == 0.0
    assert step.primal == pytest.approx(sol.objective, rel=IPM_OBJECTIVE_TOL)
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
    """On these restrictions the Newton direction stops descending by its
    rounding once the gradient is at its rounding level, and the step takes
    the projected gradient. The answer is still feasible and certified, and
    it is the answer without the repeated row."""
    from wptopt import dual_newton
    returned = []
    newton = dual_newton.direction

    def spy(*args):
        p = newton(*args)
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
