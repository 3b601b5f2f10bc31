"""Cross-validation of the embedded cone solver against an external one.

Skipped when cvxpy is unavailable; the embedded solver remains the normative
implementation either way.
"""

import numpy as np
import pytest

cp = pytest.importorskip("cvxpy")

from wptopt.channel import build_channel
from wptopt.linearize import linearize_vo_in_q, linearize_vo_in_w
from wptopt.rectenna import harvested_voltage
from wptopt.socp import (ConeProgram, Disk, NormGroup, QuadGroup, SolveStatus,
                         assemble_q_subproblem, assemble_w_subproblem, solve,
                         stack_complex)
from wptopt.transmitter import DmaState, Waveform, effective_rows, element_rows

from conftest import make_scenario


def _cvxpy_solve(prog: ConeProgram):
    x = cp.Variable(prog.n_vars)
    obj = prog.linear_cost @ x
    for g in prog.norm_groups:
        obj = obj + g.scale * cp.norm2(x[g.indices])
    for g in prog.quad_groups:
        obj = obj + cp.sum_squares(x[g.indices] - g.offset)
    cons = []
    if len(prog.ineq_rhs):
        cons.append(prog.ineq_lhs @ x <= prog.ineq_rhs)
    for d in prog.disks:
        cons.append(cp.norm2(cp.hstack([x[d.ix_re] - d.center.real,
                                        x[d.ix_im] - d.center.imag])) <= d.radius)
    problem = cp.Problem(cp.Minimize(obj), cons)
    for solver in ("CLARABEL", "ECOS", "SCS"):
        if solver in cp.installed_solvers():
            problem.solve(solver=solver)
            break
    else:
        problem.solve()
    return problem.status, problem.value


def _random_program(rng):
    """Bounded random structured program: coercive quadratic plus a spread of
    norm groups, halfspaces, and disks."""
    n = int(rng.integers(4, 16)) * 2
    cost = rng.normal(size=n) * rng.uniform(0, 1)
    groups = []
    for start in range(0, n, 4):
        idx = np.arange(start, min(start + 4, n))
        groups.append(NormGroup(idx, float(rng.uniform(0.1, 2.0))))
    quads = [QuadGroup(np.arange(n), rng.normal(size=n) * 0.3)]
    m_rows = int(rng.integers(1, 5))
    rows = rng.normal(size=(m_rows, n))
    x_feas = rng.normal(size=n) * 0.5
    rhs = rows @ x_feas + rng.uniform(0.1, 1.0, size=m_rows)
    disks = []
    if rng.random() < 0.6:
        k = int(rng.integers(0, n // 2))
        center = complex(x_feas[2 * k], x_feas[2 * k + 1])
        disks.append(Disk(2 * k, 2 * k + 1, center,
                          float(rng.uniform(0.5, 2.0))))
    return ConeProgram(n_vars=n, linear_cost=cost, norm_groups=groups,
                       quad_groups=quads, ineq_lhs=rows, ineq_rhs=rhs,
                       disks=disks)


def test_random_programs_match_external_solver(rng):
    for trial in range(25):
        prog = _random_program(rng)
        mine = solve(prog, tol=1e-9)
        status, value = _cvxpy_solve(prog)
        assert status in ("optimal", "optimal_inaccurate")
        assert mine.status is SolveStatus.OPTIMAL
        assert mine.objective == pytest.approx(value, rel=2e-6, abs=2e-7)
        assert prog.max_violation(mine.x) <= 1e-7


def test_waveform_restrictions_match_external_solver(rng):
    cfg = make_scenario("dma", length=0.10, n_f=2,
                        receivers=((0.1, 0.0, 1.4), (-0.2, 0.1, 1.8)))
    dev = cfg.device
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    for trial in range(6):
        phi = rng.uniform(0, 2 * np.pi, size=(cfg.array.n_v, cfg.array.n_h))
        dma = DmaState.from_phases(phi, cfg.array.inter_element_dx, cfg.microstrip)
        rows = effective_rows(channel, cfg.array, dma)
        omega = 0.02 * (rng.normal(size=(cfg.array.n_v, 2))
                        + 1j * rng.normal(size=(cfg.array.n_v, 2)))
        targets = cfg.voltage_targets()
        for _ in range(60):  # grow to exact feasibility
            v = np.array([harvested_voltage(rows[m], omega.T, dev.hpa_gain,
                                            dev.k2, dev.k4) for m in range(2)])
            if np.all(v >= targets):
                break
            omega *= 2.0
        w0 = Waveform(omega)
        lins = [linearize_vo_in_w(rows[m], w0.omega.T, dev.k2, dev.k4,
                                  dev.hpa_gain) for m in range(2)]
        prog = assemble_w_subproblem(cfg, dma, lins, w0)
        mine = solve(prog, tol=1e-9)
        status, value = _cvxpy_solve(prog)
        assert mine.status is SolveStatus.OPTIMAL
        assert status in ("optimal", "optimal_inaccurate")
        assert mine.objective == pytest.approx(value, rel=2e-6)


def test_focusing_restrictions_match_external_solver(rng):
    cfg = make_scenario("dma", length=0.10, n_f=2)
    dev = cfg.device
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    n_el = cfg.array.n_elements
    for trial in range(6):
        phi = rng.uniform(0, 2 * np.pi, size=(cfg.array.n_v, cfg.array.n_h))
        dma = DmaState.from_phases(phi, cfg.array.inter_element_dx, cfg.microstrip)
        wf = Waveform(0.2 * (rng.normal(size=(cfg.array.n_v, 2))
                             + 1j * rng.normal(size=(cfg.array.n_v, 2))))
        q0 = dma.q_flat()
        lins = [linearize_vo_in_q(element_rows(channel, dma, wf)[0], q0, dev.k2, dev.k4, dev.hpa_gain)]
        prog = assemble_q_subproblem(lins, q0)
        mine = solve(prog, tol=1e-9)
        status, value = _cvxpy_solve(prog)
        assert mine.status is SolveStatus.OPTIMAL
        assert status in ("optimal", "optimal_inaccurate")
        assert mine.objective == pytest.approx(value, rel=2e-6, abs=1e-9)
