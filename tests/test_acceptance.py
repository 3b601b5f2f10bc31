"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Expected values come from independent oracles: exact-period time
sampling, central finite differences, dense phase grids, analytic minima of
one-dimensional programs, and exhaustive random search.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from wptopt.channel import build_channel
from wptopt.linearize import linearize_vo_in_w
from wptopt.optimize import run_asca_dma, run_sca_fd, run_sca_q
from wptopt.oracle import (PlaneSpec, closed_form_single, field_map)
from wptopt.power import chain_norm_scales, hpa_bound_objective, sampled_consumption
from wptopt.rectenna import (harvested_voltage, moment2_from_spectrum,
                             moment4_from_spectrum, tone_amplitudes)
from wptopt.scenario import (Architecture, ArraySpec, FrequencyPlan,
                             ReceiverSpec)
from wptopt.socp import SolveStatus, solve
from wptopt.waveform_step import ExitReason, dual_step, waveform_restriction
from wptopt.transmitter import (DmaState, Waveform, effective_rows, element_rows,
                                lorentzian_weight)
from wptopt.oracle import check_gradient_q, check_gradient_w
from wptopt.channel import field_boundaries

from conftest import F1, BW, make_scenario, single_element_fd

UPSILON = 1e-6


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_effective_rows(rng, n_f, n_el):
    """Physically shaped random instance: channel gains, Lorentzian weights,
    feed-line responses."""
    gains = rng.uniform(0.2, 1.5, size=(n_f, n_el))
    phases = rng.uniform(0, 2 * np.pi, size=(n_f, n_el))
    gamma = gains * np.exp(1j * phases)
    q = lorentzian_weight(rng.uniform(0, 2 * np.pi, size=n_el))
    h = np.exp(-(np.arange(n_el)) * 0.01 * (0.356 + 202.19j))
    return gamma * q[None, :] * h[None, :]


# ---------------------------------------------------------------------------
# criterion 1: spectral moments match one-period time averages
# ---------------------------------------------------------------------------

def test_criterion_1_spectral_moment_equivalence():
    rng = np.random.default_rng(101)
    t_start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n_f = int(rng.integers(1, 5))
        n_el = int(rng.integers(1, 17))
        if trial < 95:
            plan = FrequencyPlan(float(rng.integers(3, 13)) * 1e6, n_f, 1e6)
        else:  # a few carrier-scale plans
            plan = FrequencyPlan.from_bandwidth(F1, BW, n_f)
        rows = _random_effective_rows(rng, n_f, n_el)
        w = rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el))
        g = float(rng.uniform(0.5, 1.5))
        s = tone_amplitudes(rows, w)
        m2 = moment2_from_spectrum(s, g)
        m4 = moment4_from_spectrum(s, g)
        t = plan.quadrature_times(degree=4)
        y = g * np.real(np.exp(2j * np.pi * np.outer(t, plan.tones)) @ s)
        worst = max(worst,
                    abs(np.mean(y ** 2) - m2) / m2,
                    abs(np.mean(y ** 4) - m4) / m4)
    elapsed = time.perf_counter() - t_start
    _report(1, worst <= 1e-8 and elapsed <= 60.0,
            f"100 instances, max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient fidelity and underestimator property
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_fidelity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        n_f = int(rng.integers(1, 5))
        n_el = int(rng.integers(1, 9))
        rows = _random_effective_rows(rng, n_f, n_el)
        w0 = rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el))
        q0 = rng.normal(size=n_el) + 1j * rng.normal(size=n_el)
        k2, k4 = float(rng.uniform(0.5, 2)), float(rng.uniform(0.1, 1))
        g = float(rng.uniform(0.5, 1.5))
        worst = max(worst,
                    check_gradient_w(rows, w0, k2, k4, g, step=1e-6, seed=trial),
                    check_gradient_q(rows, q0, k2, k4, g, step=1e-6, seed=trial))
    under_viol = 0
    for _ in range(1000):
        rows = _random_effective_rows(rng, 2, 3)
        w0 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        delta = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        from wptopt.linearize import linearize_vo_in_w as lin_w
        lin = lin_w(rows, w0, 1.0, 0.4)
        actual = harvested_voltage(rows, w0 + delta, 1.0, 1.0, 0.4)
        if actual < lin.predict(w0 + delta) - 1e-10 * max(abs(lin.base_value), 1.0):
            under_viol += 1
    _report(2, worst <= 1e-5 and under_viol == 0,
            f"max FD rel err {worst:.2e}, underestimator violations {under_viol}/1000")


# ---------------------------------------------------------------------------
# criterion 3: amplifier-consumption bound holds sample-wise
# ---------------------------------------------------------------------------

def test_criterion_3_consumption_bound():
    rng = np.random.default_rng(303)
    array = make_scenario("dma").array
    strip = make_scenario("dma").microstrip
    violations = 0
    min_multi_gap = math.inf
    for trial in range(100):
        n_f = int(rng.integers(1, 5))
        plan = FrequencyPlan(float(rng.integers(3, 10)) * 1e6, n_f, 1e6)
        phi = rng.uniform(0, 2 * np.pi, size=(array.n_v, array.n_h))
        dma = DmaState.from_phases(phi, array.inter_element_dx, strip)
        wf = Waveform(rng.normal(size=(array.n_v, n_f))
                      + 1j * rng.normal(size=(array.n_v, n_f)))
        rep = sampled_consumption(wf, dma, array, plan, 1.0, 1.0, math.pi / 4)
        if rep.p_hpa_sampled > rep.p_hpa_bound + 1e-9 * max(1.0, rep.p_hpa_sampled):
            violations += 1
        if n_f > 1:
            min_multi_gap = min(min_multi_gap,
                                rep.p_hpa_bound - rep.p_hpa_sampled)
    _report(3, violations == 0 and min_multi_gap > 0,
            f"0 bound violations in 100, min multi-tone gap {min_multi_gap:.3e} W")


# ---------------------------------------------------------------------------
# criterion 4: restriction solver against independent oracles
# ---------------------------------------------------------------------------

def _single_element_dma_scenario():
    lam1 = 299_792_458.0 / F1
    pos = np.zeros((1, 1, 3))
    pos.flags.writeable = False
    array = ArraySpec(Architecture.DMA, lam1 / 2, 1, 1, lam1 / 5, lam1 / 2, pos)
    base = make_scenario("dma", n_f=1)
    cfg = dataclasses.replace(
        base, array=array, frequency=FrequencyPlan(F1, 1, 1.25e6),
        receivers=(ReceiverSpec(np.array([0.0, 0.0, 1.0]), 20e-6),))
    cfg.validate()
    return cfg


def test_criterion_4_solver_correctness():
    rng = np.random.default_rng(404)
    worst_gap = 0.0

    # (a) single-element focusing restrictions vs a dense phase-grid oracle
    # of the same linearized objective
    from wptopt.linearize import linearize_vo_in_q
    from wptopt.socp import assemble_q_subproblem, unstack_complex
    cfg = _single_element_dma_scenario()
    dev = cfg.device
    phis = np.arange(0.0, 2.0 * np.pi, 1e-4)
    ring = lorentzian_weight(phis)
    ang_err = 0.0
    for _ in range(10):
        a_hat = (rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))) * 0.05
        q0 = np.array([complex(lorentzian_weight(rng.uniform(0, 2 * np.pi)))])
        lin = linearize_vo_in_q(a_hat, q0, dev.k2, dev.k4, dev.hpa_gain)
        prog = assemble_q_subproblem([lin], q0)
        sol = solve(prog, tol=1e-10)
        assert sol.status is SolveStatus.OPTIMAL
        q_sol = unstack_complex(sol.x[:2])[0]
        lin_vals = lin.base_value + 2 * np.real(np.conj(lin.coeffs[0])
                                                * (ring - q0[0]))
        q_best = ring[int(np.argmax(lin_vals))]
        # compare angular positions on the Lorentzian circle
        phi_sol = float(np.mod(np.angle(q_sol - 0.5j), 2 * np.pi))
        phi_best = float(np.mod(np.angle(q_best - 0.5j), 2 * np.pi))
        ang_err = max(ang_err, abs((phi_sol - phi_best + np.pi)
                                   % (2 * np.pi) - np.pi))
        worst_gap = max(worst_gap, sol.duality_gap / (1 + abs(sol.objective)))

    # supporting check: the full focusing stage lands on the grid-best true
    # voltage to the stage tolerance
    cfg_stage = cfg.with_solver(max_sca_iters=40)
    channel = build_channel(cfg_stage.array, cfg_stage.receivers,
                            cfg_stage.frequency, 0.0)
    wf = Waveform(np.array([[0.4 - 0.3j]]))
    q_init = DmaState.from_phases(np.array([[0.2]]),
                                  cfg_stage.array.inter_element_dx,
                                  cfg_stage.microstrip)
    dma, q_trace = run_sca_q(cfg_stage, channel, wf, q_init)
    a_hat = element_rows(channel, q_init, wf)
    vals = np.array([harvested_voltage(a_hat[0], np.array([q]),
                                       dev.hpa_gain, dev.k2, dev.k4)
                     for q in ring])
    v_found = harvested_voltage(a_hat[0], dma.q_flat(), dev.hpa_gain,
                                dev.k2, dev.k4)
    stage_rel = abs(v_found - float(np.max(vals))) / float(np.max(vals))
    worst_gap = max(worst_gap, max(step.gap / (1 + abs(step.primal))
                                   for step in q_trace.steps))

    # (b) waveform restriction on 1-D instances vs analytic optimum, solved
    # by the production step through its dual
    one_d_err = 0.0
    fd_cfg = single_element_fd()
    ch1 = build_channel(fd_cfg.array, fd_cfg.receivers, fd_cfg.frequency, 0.0)
    rows1 = effective_rows(ch1, fd_cfg.array)
    fd_dev = fd_cfg.device
    fd_scales = chain_norm_scales(None, fd_cfg.array.rf_chain_count, fd_dev.hpa_gain, fd_dev.hpa_saturation_power,
                                  fd_dev.hpa_max_efficiency)
    for _ in range(20):
        w0 = Waveform(np.array([[rng.normal() + 1j * rng.normal()]]))
        lin = linearize_vo_in_w(rows1[0], w0.omega.T, fd_cfg.device.k2,
                                fd_cfg.device.k4, fd_cfg.device.hpa_gain)
        res = waveform_restriction([lin], w0, fd_scales, fd_cfg.voltage_targets())
        step = dual_step(res)
        if step.exit_reason is not ExitReason.TOLERANCE:
            one_d_err = math.inf
            continue
        row, r = res.rows[0].reshape(-1), res.rhs[0]
        if r <= 0:
            expected = 0.0
        else:
            wstar = r * row / (row @ row)
            expected = res.scales[0] * np.linalg.norm(wstar) + wstar @ wstar
        one_d_err = max(one_d_err, abs(step.primal - expected)
                        / max(1.0, abs(expected)))
        worst_gap = max(worst_gap, step.gap / (1 + abs(step.primal)))
    ok = (ang_err <= 2e-4 and one_d_err <= 1e-8 and worst_gap <= 1e-7
          and stage_rel <= 1e-4)
    _report(4, ok, f"restriction phase err {ang_err:.1e} rad (grid 1e-4), 1-D "
                   f"obj err {one_d_err:.1e}, stage voltage err {stage_rel:.1e}, "
                   f"worst rel duality gap {worst_gap:.1e}")


# ---------------------------------------------------------------------------
# criteria 5 and 8 share one randomized suite
# ---------------------------------------------------------------------------

def _random_suite_scenarios():
    rng = np.random.default_rng(505)
    scenarios = []
    for k in range(10):
        length = float(rng.uniform(0.08, 0.15))
        n_f = int(rng.choice([1, 2, 4]))
        m = int(rng.choice([1, 2]))
        d = float(rng.uniform(1.0, 3.0))
        recs = []
        for _ in range(m):
            theta = rng.uniform(0.0, np.deg2rad(40.0))
            psi = rng.uniform(0.0, 2 * np.pi)
            direction = np.array([np.sin(theta) * np.cos(psi),
                                  np.sin(theta) * np.sin(psi),
                                  np.cos(theta)])
            recs.append(tuple(d * direction))
        scenarios.append(make_scenario("dma", length=length, n_f=n_f,
                                       receivers=tuple(recs), seed=k)
                         .with_solver(max_sca_iters=30, max_outer_iters=10))
    return scenarios


@pytest.fixture(scope="module")
def dma_suite():
    results = []
    for cfg in _random_suite_scenarios():
        t0 = time.perf_counter()
        w, dma, trace = run_asca_dma(cfg)
        results.append({"scenario": cfg, "waveform": w, "dma": dma,
                        "trace": trace, "seconds": time.perf_counter() - t0})
    return results


def test_criterion_5_end_to_end_feasibility(dma_suite):
    from wptopt.linearize import linearize_vo_in_q
    worst_margin = math.inf
    worst_increase = 0.0
    slowest = 0.0
    gap_worst = 0.0
    disk_excess = 0.0
    circle_medians = []
    active_medians = []
    for run in dma_suite:
        cfg, trace = run["scenario"], run["trace"]
        worst_margin = min(worst_margin,
                           float(np.min(trace.final_p_dc / cfg.eh_targets)))
        pcs = trace.p_c_values
        if len(pcs) > 1:
            worst_increase = max(worst_increase,
                                 float(np.max(np.diff(pcs) / pcs[:-1])))
        slowest = max(slowest, run["seconds"])
        gap_worst = max(gap_worst, max(r.solver_rel_gap for r in trace.records))
        dist = np.abs(run["dma"].circle_distance().reshape(-1))
        disk_excess = max(disk_excess, float(np.max(run["dma"].circle_distance())))
        circle_medians.append(float(np.median(dist)))
        # elements whose weight actually matters hug the circle; the rest get
        # centered by the interior-point solver (any feasible value is optimal)
        channel = build_channel(cfg.array, cfg.receivers, cfg.frequency,
                                cfg.device.boresight_gain)
        coeff = np.max(np.abs(np.stack([
            linearize_vo_in_q(rows, run["dma"].q_flat(),
                              cfg.device.k2, cfg.device.k4,
                              cfg.device.hpa_gain).coeffs
            for rows in element_rows(channel, run["dma"], run["waveform"])])), axis=0)
        active = coeff > 0.01 * np.max(coeff)
        active_medians.append(float(np.median(dist[active])))
    ok = (worst_margin >= 0.999 and worst_increase <= UPSILON
          and slowest <= 300.0 and disk_excess <= 1e-9)
    _report(5, ok, f"10 runs: min P_dc margin {worst_margin:.6f}, max trace "
                   f"increase {worst_increase:.1e}, slowest {slowest:.1f}s, "
                   f"worst solver gap {gap_worst:.1e}; monitored circle "
                   f"distance/R medians: all {max(circle_medians) / 0.5:.1e}, "
                   f"active {max(active_medians) / 0.5:.1e}")


def _random_feasible_objective(cfg, channel, rng):
    """One random initialization made feasible by a geometric amplitude ramp;
    returns its consumption bound."""
    array = cfg.array
    dev = cfg.device
    phi = rng.uniform(0, 2 * np.pi, size=(array.n_v, array.n_h))
    dma = DmaState.from_phases(phi, array.inter_element_dx, cfg.microstrip)
    rows = effective_rows(channel, array, dma)
    shape = np.exp(rng.normal(scale=0.5, size=(array.n_v, cfg.frequency.n_f)))
    phase = rng.uniform(0, 2 * np.pi, size=shape.shape)
    omega = cfg.solver.init_seed_amplitude * shape * np.exp(1j * phase)
    targets = cfg.voltage_targets()
    for _ in range(40):
        v = np.array([harvested_voltage(rows[m], omega.T, dev.hpa_gain,
                                        dev.k2, dev.k4)
                      for m in range(cfg.n_receivers)])
        if np.all(v >= targets):
            break
        omega = omega * cfg.solver.init_ramp_factor
    else:
        return math.inf
    return hpa_bound_objective(Waveform(omega), dma, dev.hpa_gain,
                               dev.hpa_saturation_power, dev.hpa_max_efficiency)


def test_criterion_8_initialization_quality(dma_suite):
    rng = np.random.default_rng(808)
    wins = 0
    details = []
    for run in dma_suite:
        cfg, trace = run["scenario"], run["trace"]
        channel = build_channel(cfg.array, cfg.receivers, cfg.frequency,
                                cfg.device.boresight_gain)
        best_random = min(_random_feasible_objective(cfg, channel, rng)
                          for _ in range(1000))
        converged = trace.records[-1].p_c_bound
        if converged <= best_random:
            wins += 1
        details.append(f"{converged:.3g}<={best_random:.3g}")
    _report(8, wins >= 8, f"converged beat best-of-1000 random init in "
                          f"{wins}/10 scenarios")


# ---------------------------------------------------------------------------
# criterion 6: qualitative trends
# ---------------------------------------------------------------------------

def _trend_pc(length=0.12, n_f=2, d=2.0, m=1):
    direction = np.array([0.15, 0.1, 1.0])
    direction = direction / np.linalg.norm(direction)
    recs = [tuple(d * direction)]
    if m == 2:
        second = np.array([-0.2, 0.05, 1.0])
        second /= np.linalg.norm(second)
        recs.append(tuple(d * second))
    cfg = make_scenario("dma", length=length, n_f=n_f, receivers=tuple(recs),
                        seed=0).with_solver(max_sca_iters=30, max_outer_iters=10)
    _, _, trace = run_asca_dma(cfg)
    return trace.records[-1].p_c_bound


def test_criterion_6_paper_trends():
    band = 1.01
    pc_nf1, pc_nf4 = _trend_pc(n_f=1), _trend_pc(n_f=4)
    pc_l10, pc_l20 = _trend_pc(length=0.10), _trend_pc(length=0.20)
    pc_d1, pc_d3 = _trend_pc(d=1.0), _trend_pc(d=3.0)
    pc_m1, pc_m2 = _trend_pc(m=1), _trend_pc(m=2)
    checks = {
        "n_f 1->4 non-increasing": pc_nf4 <= pc_nf1 * band,
        "L 10->20cm non-increasing": pc_l20 <= pc_l10 * band,
        "d 1->3m non-decreasing": pc_d3 >= pc_d1 / band,
        "M 1->2 non-decreasing": pc_m2 >= pc_m1 / band,
    }
    detail = (f"n_f {pc_nf1:.3g}->{pc_nf4:.3g}, L {pc_l10:.3g}->{pc_l20:.3g}, "
              f"d {pc_d1:.3g}->{pc_d3:.3g}, M {pc_m1:.3g}->{pc_m2:.3g}")
    failed = [k for k, v in checks.items() if not v]
    _report(6, not failed, detail + (f" (failed: {failed})" if failed else ""))


# ---------------------------------------------------------------------------
# criterion 7: spatial focusing behavior
# ---------------------------------------------------------------------------

def test_criterion_7_field_focusing():
    cfg_base = make_scenario("dma", length=0.30, n_f=1, seed=0)
    lam1 = cfg_base.frequency.wavelengths[0]
    _, d_fr = field_boundaries(cfg_base.array, lam1)

    # near field: receiver at half the Fraunhofer distance on boresight
    d_near = 0.5 * d_fr
    cfg_near = make_scenario("dma", length=0.30, n_f=1,
                             receivers=((0.0, 0.0, d_near),)) \
        .with_solver(max_sca_iters=30, max_outer_iters=8)
    w, dma, _ = run_asca_dma(cfg_near)
    res = 0.05
    plane = PlaneSpec(-1.0, 1.0, d_near - 1.5, d_near + 1.5, res)
    fmap = field_map(cfg_near, w, dma, plane)
    x_pk, z_pk = fmap.argmax_position()
    near_err = math.hypot(x_pk, z_pk - d_near)

    # far field: receiver placed virtually at 3x Fraunhofer, 20 degrees off
    d_far = 3.0 * d_fr
    ang = np.deg2rad(20.0)
    rx_far = (d_far * math.sin(ang), 0.0, d_far * math.cos(ang))
    cfg_far = make_scenario("dma", length=0.30, n_f=1, receivers=(rx_far,)) \
        .with_solver(max_sca_iters=30, max_outer_iters=8)
    w_f, dma_f, _ = run_asca_dma(cfg_far)
    plane_far = PlaneSpec(-0.5, 3.0, 0.5, 6.0, res)
    fmap_far = field_map(cfg_far, w_f, dma_f, plane_far)
    xf, zf = fmap_far.argmax_position()
    r_pk = math.hypot(xf, zf)
    ang_err = abs(math.atan2(xf, zf) - ang)
    ang_tol = res / r_pk  # one angular grid step at the argmax radius
    ok = near_err <= res + 1e-9 and ang_err <= ang_tol
    _report(7, ok, f"near argmax off by {near_err * 100:.1f} cm (cell 5 cm); "
                   f"far direction err {np.rad2deg(ang_err):.2f} deg "
                   f"(tol {np.rad2deg(ang_tol):.2f} deg)")


# ---------------------------------------------------------------------------
# criterion 9: closed-form optimum on the smallest instance
# ---------------------------------------------------------------------------

def test_criterion_9_small_instance_optimality():
    cfg = single_element_fd().with_solver(max_sca_iters=40)
    w, _ = run_sca_fd(cfg)
    w_opt, pc_opt = closed_form_single(cfg)
    dev = cfg.device
    rep = sampled_consumption(w, None, cfg.array, cfg.frequency, dev.hpa_gain,
                              dev.hpa_saturation_power, dev.hpa_max_efficiency)
    rel = abs(rep.p_c_sampled - pc_opt) / pc_opt
    _report(9, rel <= 1e-3,
            f"sampled P_c {rep.p_c_sampled:.6e} vs closed form {pc_opt:.6e} "
            f"({rel:.2e} rel)")
