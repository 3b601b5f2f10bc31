"""The structured Newton solve of the interior-point method, checked against
a dense reference, its step length checked against the roots of the cone's
quadratic, its block plan's blocks on the production restrictions, and the
solver checked against the M = 1 closed forms of both restrictions: the
production focusing step and a test oracle of the waveform step."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import group_soft_threshold, make_scenario
from wptopt.channel import build_channel
from wptopt.linearize import linearize_vo_in_q, linearize_vo_in_w
from wptopt.focusing_step import focusing_step
from wptopt.optimize import allocate_chains, init_digital_weights, init_q_phases
from wptopt.rectenna import harvested_voltage
from wptopt.scenario import DeviceParams, load_scenario
from wptopt.socp import (ConeProgram, Disk, NormGroup, QuadGroup, SolveStatus,
                         _BlockPlan, _ConeLayout, _lower, _NewtonSystem,
                         _NTScaling, assemble_q_subproblem, assemble_w_subproblem, solve,
                         unstack_complex)
from wptopt.transmitter import (LORENTZIAN_CENTER, LORENTZIAN_RADIUS, effective_rows,
                                element_rows)

SAMPLE = Path(__file__).resolve().parents[1] / "sample_scenario.cfg"


# ---------------------------------------------------------------------------
# program shapes
# ---------------------------------------------------------------------------

def focusing_program(rng, n_el, m_rows):
    """Disks on every element pair, a free epigraph variable R, M rows."""
    n = 2 * n_el + 1
    rows = rng.normal(size=(m_rows, n))
    rows[:, -1] = 1.0
    cost = np.zeros(n)
    cost[-1] = -1.0
    return ConeProgram(n_vars=n, linear_cost=cost, ineq_lhs=rows,
                       ineq_rhs=rng.uniform(0.5, 2.0, m_rows),
                       disks=[Disk(2 * k, 2 * k + 1, LORENTZIAN_CENTER, LORENTZIAN_RADIUS)
                              for k in range(n_el)])


def waveform_program(rng, n_rf, n_f, m_rows, scales=None):
    """Per-chain norm groups and per-chain squared norms, M rows."""
    nw = 2 * n_rf * n_f
    if scales is None:
        scales = rng.uniform(0.0, 2.0, n_rf)
    groups = [NormGroup(np.arange(2 * i * n_f, 2 * (i + 1) * n_f), float(scales[i]))
              for i in range(n_rf)]
    return ConeProgram(n_vars=nw, norm_groups=groups,
                       quad_groups=[QuadGroup(g.indices, np.zeros(2 * n_f)) for g in groups],
                       ineq_lhs=-rng.normal(size=(m_rows, nw)),
                       ineq_rhs=-rng.uniform(0.5, 2.0, m_rows))


def overlapping_program(rng, n, n_groups, m_rows):
    """Norm groups that all share variable 0, plus a quad over all of them."""
    groups = [NormGroup(np.unique(np.r_[0, rng.choice(n, size=rng.integers(1, n + 1),
                                                      replace=False)]), 1.0)
              for _ in range(n_groups)]
    return ConeProgram(n_vars=n, norm_groups=groups,
                       quad_groups=[QuadGroup(np.arange(n), rng.normal(size=n))],
                       ineq_lhs=rng.normal(size=(m_rows, n)),
                       ineq_rhs=rng.uniform(0.5, 2.0, m_rows))


@st.composite
def programs(draw):
    shape = draw(st.sampled_from(["focusing", "waveform", "overlap"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "focusing":
        prog = focusing_program(rng, draw(st.integers(1, 12)), draw(st.integers(1, 3)))
    elif shape == "waveform":
        prog = waveform_program(rng, draw(st.integers(1, 5)), draw(st.integers(1, 4)),
                                draw(st.integers(0, 3)))
    else:
        prog = overlapping_program(rng, draw(st.integers(1, 6)), draw(st.integers(1, 3)),
                                   draw(st.integers(0, 2)))
    return shape, prog, rng


def interior_point(cones, rng):
    """A point strictly inside the cone, some blocks close to its boundary."""
    u = np.empty(cones.m)
    u[:cones.p] = 10.0 ** rng.uniform(-3.0, 1.0, cones.p)
    for a, b, d in cones.runs:
        blk = u[a:b].reshape(-1, d)
        blk[:, 1:] = rng.normal(size=(len(blk), d - 1))
        blk[:, 0] = np.linalg.norm(blk[:, 1:], axis=1) + 10.0 ** rng.uniform(-3.0, 0.0, len(blk))
    return u


def dense_newton_matrix(a_op, W, reg):
    """Test-only reference: ``A^T W^-2 A + reg I`` from the dense ``A`` and
    ``W^-2`` applied column by column."""
    p = len(a_op.lin)
    a_mat = np.zeros((p + len(a_op.col), a_op.n))
    a_mat[:p] = a_op.lin
    np.add.at(a_mat, (p + np.arange(len(a_op.col)), a_op.col), a_op.coef)
    w_inv2 = np.column_stack([W.apply(W.apply(col, inv=True), inv=True)
                              for col in np.eye(a_mat.shape[0])])
    h_mat = a_mat.T @ w_inv2 @ a_mat
    return h_mat + reg * np.eye(a_op.n), np.trace(h_mat)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(programs())
def test_structured_newton_solve_matches_dense(case):
    shape, prog, rng = case
    _, a_op, _, cones, _ = _lower(prog)
    plan = _BlockPlan(cones, a_op.n, a_op.col, a_op.coef)
    m_rows = len(prog.ineq_rhs)
    if shape == "focusing":
        assert [size for size, _, _ in plan.slabs] == [2] and len(plan.free) == 1
    if shape == "waveform":   # one block per chain: its norm, squared norm, epigraphs
        size = len(prog.norm_groups[0].indices) + 2
        assert [(sz, nb) for sz, nb, _ in plan.slabs] == [(size, len(prog.norm_groups))]
        assert len(plan.free) == 0 and plan.schur_size == m_rows
    if shape == "overlap":    # the spanning squared norm merges everything
        size = prog.n_vars + len(prog.norm_groups) + 1
        assert [(sz, nb) for sz, nb, _ in plan.slabs] == [(size, 1)]
        assert plan.schur_size == m_rows
    W = _NTScaling(cones, interior_point(cones, rng), interior_point(cones, rng))
    v = rng.normal(size=cones.m)
    for inv in (False, True):
        twice = W.apply(W.apply(v, inv=inv), inv=inv)
        assert np.linalg.norm(W.apply_sq(v, inv=inv) - twice) <= 1e-12 * np.linalg.norm(twice)
    newton = _NewtonSystem(plan, W, a_op.lin)
    kkt, trace = dense_newton_matrix(a_op, W, newton.reg)
    assert newton.reg == pytest.approx(1e-13 * (1.0 + trace / a_op.n), rel=1e-9)
    rhs = rng.normal(size=a_op.n)
    res = kkt @ newton.solve(rhs) - rhs
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# step length
# ---------------------------------------------------------------------------

def root_max_step(cones, u, du):
    """Test-only oracle: the largest ``alpha`` with ``u + alpha du`` in the
    closed cone, per block the smallest positive root of
    ``(u0 + t du0)^2 - |u1 + t du1|^2``, by the numerically stable quadratic
    formula."""
    alpha = np.inf
    neg = du[:cones.p] < 0
    if neg.any():
        alpha = float(np.min(-u[:cones.p][neg] / du[:cones.p][neg]))
    for a, b, d in cones.runs:
        ub, db = u[a:b].reshape(-1, d), du[a:b].reshape(-1, d)
        qa = db[:, 0] ** 2 - np.sum(db[:, 1:] ** 2, axis=1)
        qb = 2.0 * (ub[:, 0] * db[:, 0] - np.sum(ub[:, 1:] * db[:, 1:], axis=1))
        qc = ub[:, 0] ** 2 - np.sum(ub[:, 1:] ** 2, axis=1)
        disc = qb * qb - 4.0 * qa * qc
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(np.maximum(disc, 0.0))
            qq = -0.5 * (qb + np.where(qb >= 0, sq, -sq))
            t1 = np.where(qa != 0, qq / np.where(qa != 0, qa, 1.0), np.inf)
            t2 = np.where(qq != 0, qc / np.where(qq != 0, qq, 1.0), np.inf)
            lin = np.where(qb < 0, -qc / np.where(qb < 0, qb, -1.0), np.inf)
        cand = np.full(len(qa), np.inf)
        for t in (t1, t2):
            valid = (disc >= 0) & (np.abs(qa) >= 1e-300) & (t > 0)
            cand = np.where(valid & (t < cand), t, cand)
        small_a = np.abs(qa) < 1e-300
        cand = np.where(small_a & (lin > 0) & (lin < cand), lin, cand)
        alpha = min(alpha, float(np.min(cand)))
    return alpha


def cone_margins(cones, u):
    """``u0 - |u1|`` of every block, orthant rows as blocks of one."""
    out = [u[:cones.p]]
    for a, b, d in cones.runs:
        blk = u[a:b].reshape(-1, d)
        out.append(blk[:, 0] - np.linalg.norm(blk[:, 1:], axis=1))
    return np.concatenate(out)


STEP_LAYOUTS = {
    "orthant": lambda k: [],
    "dim 3": lambda k: [3] * k,
    "dim 17": lambda k: [17] * k,
    "dim 98": lambda k: [98] * k,
    "interleaved 3, 17, 3": lambda k: [3, 17, 3] * k,
}


@st.composite
def step_cases(draw):
    layout = draw(st.sampled_from(sorted(STEP_LAYOUTS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.integers(1, 5)) if layout == "orthant" else draw(st.integers(0, 3))
    cones = _ConeLayout(p, STEP_LAYOUTS[layout](draw(st.integers(1, 6))))
    u = np.empty(cones.m)
    u[:p] = 10.0 ** rng.uniform(-3.0, 1.0, p)
    near = draw(st.booleans())   # some blocks at relative distance 1e-5 of the boundary
    for a, b, d in cones.runs:
        blk = u[a:b].reshape(-1, d)
        blk[:, 1:] = rng.normal(size=(len(blk), d - 1)) * 10.0 ** rng.uniform(-2.0, 2.0)
        lo = np.where(near & (rng.uniform(size=len(blk)) < 0.5), -5.0, -2.0)
        blk[:, 0] = np.linalg.norm(blk[:, 1:], axis=1) * (1.0 + 10.0 ** rng.uniform(lo, 0.0))
    inward = draw(st.booleans())
    if inward:   # a direction inside the cone never leaves it
        du = np.abs(rng.normal(size=cones.m))
        for a, b, d in cones.runs:
            blk = du[a:b].reshape(-1, d)
            blk[:, 0] = 1.01 * np.linalg.norm(blk[:, 1:], axis=1)
    else:
        du = rng.normal(size=cones.m) * 10.0 ** rng.uniform(-2.0, 2.0)
    return cones, u, du, inward


@settings(derandomize=True, max_examples=200, deadline=None)
@given(step_cases())
def test_closed_form_step_matches_quadratic_roots(case):
    cones, u, du, inward = case
    alpha = cones.max_step(u, du)
    expected = root_max_step(cones, u, du)
    if inward:
        assert expected == np.inf
    if expected == np.inf:
        assert alpha == np.inf
        return
    assert alpha == pytest.approx(expected, rel=1e-10)
    at_step = u + alpha * du
    scale = 1e-10 * np.linalg.norm(u)
    margins = cone_margins(cones, at_step)
    assert margins.min() <= scale   # a block binds
    assert margins.min() >= -scale  # and none is crossed


def plan_of(prog):
    _, a_op, _, cones, _ = _lower(prog)
    return _BlockPlan(cones, a_op.n, a_op.col, a_op.coef)


TWO_RECEIVERS = ((0.0, 0.0, 1.5), (0.2, 0.1, 1.8))


def production_programs(arch):
    """The waveform and focusing restrictions that a two-receiver design
    poses at its initialization."""
    cfg = make_scenario(arch, receivers=TWO_RECEIVERS)
    dev = cfg.device
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, dev.boresight_gain)
    plan = allocate_chains(channel, cfg.n_receivers, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg) if arch == "dma" else None
    w = init_digital_weights(cfg, channel, plan, dma)
    w_lins = [linearize_vo_in_w(rows, w.omega.T, dev.k2, dev.k4, dev.hpa_gain)
              for rows in effective_rows(channel, cfg.array, dma)]
    w_prog = assemble_w_subproblem(cfg, dma, w_lins, w)
    if dma is None:
        return w_prog, None
    q0 = dma.q_flat()
    q_lins = [linearize_vo_in_q(rows, q0, dev.k2, dev.k4, dev.hpa_gain)
              for rows in element_rows(channel, dma, w)]
    return w_prog, assemble_q_subproblem(q_lins, q0)


def test_production_restrictions_have_one_block_per_cone_support():
    """Every cone the optimizer poses reads one block: the waveform
    restriction factors one block per chain, and its Schur system holds only
    the M receiver rows; the focusing restriction factors one 2x2 block per
    disk, bordered by the M rows and its free epigraph variable."""
    w_prog, _ = production_programs("fd")
    n_rf = len(w_prog.norm_groups)
    n_f = len(w_prog.norm_groups[0].indices) // 2
    assert n_rf >= 2 and len(w_prog.ineq_rhs) == 2
    plan = plan_of(w_prog)
    assert [(size, nb) for size, nb, _ in plan.slabs] == [(2 * n_f + 2, n_rf)]
    assert len(plan.free) == 0 and plan.schur_size == 2
    _, q_prog = production_programs("dma")
    plan = plan_of(q_prog)
    assert [(size, nb) for size, nb, _ in plan.slabs] == [(2, len(q_prog.disks))]
    assert len(plan.free) == 1 and plan.schur_size == 3


# ---------------------------------------------------------------------------
# M = 1 closed forms as oracles of the interior-point solver
# ---------------------------------------------------------------------------

def ipm_focusing(lin, q0):
    """The focusing restriction solved by the interior-point method: the
    optimal weights and the maximum linearized voltage."""
    sol = solve(assemble_q_subproblem([lin], q0), tol=1e-9)
    assert sol.status is SolveStatus.OPTIMAL
    return unstack_complex(sol.x[:2 * len(q0)]), -sol.objective


def test_focusing_matches_closed_form_on_sample_scenario():
    """One receiver: the focusing restriction maximizes a linear function over
    a product of disks, so each element sits at ``j/2 + c_k/(2|c_k|)``; the
    production step matches the interior-point solution."""
    cfg = load_scenario(SAMPLE)
    dev = cfg.device
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, dev.boresight_gain)
    plan = allocate_chains(channel, cfg.n_receivers, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg)
    w = init_digital_weights(cfg, channel, plan, dma)
    q0 = dma.q_flat()
    lin = linearize_vo_in_q(element_rows(channel, dma, w)[0], q0, dev.k2, dev.k4, dev.hpa_gain)
    q_ipm, r_ipm = ipm_focusing(lin, q0)
    step = focusing_step([lin])
    coeffs = np.asarray(lin.coeffs).reshape(-1)
    assert len(coeffs) == 102
    live = np.abs(coeffs) > 1e-9 * np.max(np.abs(coeffs))
    assert np.max(np.abs(q_ipm - step.q)[live]) <= 1e-8
    assert step.primal == pytest.approx(r_ipm, rel=1e-9)
    assert abs(step.dual - step.primal) <= 1e-12 * step.primal


@st.composite
def single_receiver_restrictions(draw):
    """Effective rows ``a_hat`` [n_f, N] and an expansion point inside the
    disks; whole columns of ``a_hat`` are zero, so those coefficients are
    exactly 0. The rows are scaled so that the voltage at ``q0`` lies in
    1 mV - 1 V, the range a design's focusing stage starts from (a 20 uW
    target on 50 ohm is 32 mV)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_el = draw(st.integers(1, 731))
    n_f = draw(st.integers(1, 4))
    spread = 10.0 ** rng.uniform(-2.0, 0.0, (n_f, n_el))
    a_hat = spread * (rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el)))
    a_hat[:, rng.random(n_el) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    radius = LORENTZIAN_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, n_el))
    q0 = LORENTZIAN_CENTER + radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n_el))
    # v(t a_hat) = A t^2 + B t^4: read A and B off t = 1, 2 and solve for t
    dev = DeviceParams()
    v1, v2 = (harvested_voltage(t * a_hat, q0, dev.hpa_gain, dev.k2, dev.k4)
              for t in (1.0, 2.0))
    if v1 > 0.0:
        quartic = (v2 - 4.0 * v1) / 12.0
        quadratic = v1 - quartic
        target = 10.0 ** rng.uniform(-3.0, 0.0)
        a_hat *= np.sqrt(2.0 * target / (quadratic + np.sqrt(quadratic ** 2
                                                             + 4.0 * quartic * target)))
    return a_hat, q0


@settings(derandomize=True, max_examples=30, deadline=None)
@given(single_receiver_restrictions())
def test_focusing_step_matches_ipm_on_random_restrictions(case):
    a_hat, q0 = case
    dev = DeviceParams()
    lin = linearize_vo_in_q(a_hat, q0, dev.k2, dev.k4, dev.hpa_gain)
    step = focusing_step([lin])
    _, r_ipm = ipm_focusing(lin, q0)
    # the interior-point method stops at a duality gap of 1e-9 (1 + |R|)
    assert step.primal == pytest.approx(r_ipm, rel=1e-9, abs=1e-9)
    assert abs(step.dual - step.primal) <= 1e-12 * (1.0 + step.primal)
    assert np.all(np.abs(step.q - LORENTZIAN_CENTER) <= LORENTZIAN_RADIUS * (1.0 + 1e-15))
    dead = np.asarray(lin.coeffs) == 0
    assert np.array_equal(step.q[dead], q0[dead])
    # the tangent plane underestimates the voltage, and q0 is feasible
    v0 = harvested_voltage(a_hat, q0, dev.hpa_gain, dev.k2, dev.k4)
    v1 = harvested_voltage(a_hat, step.q, dev.hpa_gain, dev.k2, dev.k4)
    assert v1 >= v0


def test_waveform_matches_group_soft_threshold():
    rng = np.random.default_rng(606)
    for _ in range(20):
        n_rf, n_f = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        scales = rng.uniform(0.0, 2.0, n_rf)
        prog = waveform_program(rng, n_rf, n_f, 1, scales=scales)
        sol = solve(prog, tol=1e-9)
        assert sol.status is SolveStatus.OPTIMAL
        g_chains = -prog.ineq_lhs[0].reshape(n_rf, 2 * n_f)
        expected = group_soft_threshold(scales, g_chains, -prog.ineq_rhs[0])
        assert sol.objective == pytest.approx(expected, rel=1e-8)
