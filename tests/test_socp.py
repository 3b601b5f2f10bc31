import numpy as np
import pytest

from wptopt import socp
from wptopt.channel import build_channel
from wptopt.linearize import linearize_vo_in_q, linearize_vo_in_w
from wptopt.rectenna import harvested_voltage
from wptopt.socp import (ConeProgram, Disk, ExitReason, NormGroup, QuadGroup,
                         SolveStatus, assemble_q_subproblem, assemble_w_subproblem,
                         solve, stack_complex, unstack_complex)
from wptopt.transmitter import Waveform, effective_rows, lorentzian_weight

from conftest import initial_waveform_restriction, make_scenario


def test_pure_quadratic_recovers_offset():
    """minimize ||w - c||^2 -> w = c."""
    target = np.array([0.3, -1.2, 0.8])
    prog = ConeProgram(n_vars=3, quad_groups=[QuadGroup(np.arange(3), target)])
    sol = solve(prog, tol=1e-9)
    assert sol.status is SolveStatus.OPTIMAL
    assert np.allclose(sol.x, target, atol=1e-7)
    assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective))


def test_sum_norm_plus_quadratic_analytic(rng):
    """minimize k*||w|| + ||w||^2 subject to g.w >= r: the optimum is the
    minimum-norm point of the constraint line."""
    for _ in range(25):
        k = float(rng.uniform(0.1, 3.0))
        g = rng.normal(size=2)
        r = float(rng.uniform(0.1, 2.0))
        prog = ConeProgram(
            n_vars=2,
            norm_groups=[NormGroup(np.arange(2), k)],
            quad_groups=[QuadGroup(np.arange(2), np.zeros(2))],
            ineq_lhs=-g[None, :], ineq_rhs=np.array([-r]))
        sol = solve(prog, tol=1e-9)
        wstar = r * g / (g @ g)
        expected = k * np.linalg.norm(wstar) + wstar @ wstar
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(expected, rel=1e-8, abs=1e-8)


def test_disk_linear_objective_matches_phase_grid(rng):
    """Linear objective over the Lorentzian disk: optimum sits on the circle
    in the coefficient direction; cross-checked against a fine phase grid."""
    for _ in range(10):
        c = rng.normal() + 1j * rng.normal()
        prog = ConeProgram(n_vars=2, linear_cost=np.array([-c.real, -c.imag]),
                           disks=[Disk(0, 1, 0.5j, 0.5)])
        sol = solve(prog, tol=1e-9)
        assert sol.status is SolveStatus.OPTIMAL
        q_sol = sol.x[0] + 1j * sol.x[1]
        phis = np.arange(0.0, 2 * np.pi, 1e-4)
        ring = lorentzian_weight(phis)
        best = ring[np.argmax((c.conjugate() * ring).real)]
        assert abs(q_sol - best) <= 2e-4


def test_infeasible_program_detected():
    prog = ConeProgram(n_vars=1, linear_cost=np.zeros(1),
                       ineq_lhs=np.array([[1.0], [-1.0]]),
                       ineq_rhs=np.array([-1.0, -1.0]))
    sol = solve(prog, tol=1e-9)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.violation_report


def test_exit_reasons():
    """Each way the iteration stops is reported; only a met tolerance is OPTIMAL."""
    g = np.array([1.0, -2.0, 0.5])
    prog = ConeProgram(n_vars=3, norm_groups=[NormGroup(np.arange(3), 1.0)],
                       quad_groups=[QuadGroup(np.arange(3), np.zeros(3))],
                       ineq_lhs=-g[None, :], ineq_rhs=np.array([-1.0]))
    capped = solve(prog, tol=1e-9, max_iter=1)
    assert capped.exit_reason is ExitReason.ITER_CAP
    assert capped.status is SolveStatus.ITER_LIMIT and capped.iterations == 1
    assert ExitReason.ITER_CAP.value in capped.violation_report
    done = solve(prog, tol=1e-9)
    assert done.exit_reason is ExitReason.TOLERANCE
    assert done.status is SolveStatus.OPTIMAL
    empty = ConeProgram(n_vars=1, ineq_lhs=np.array([[1.0], [-1.0]]),
                        ineq_rhs=np.array([-1.0, -1.0]))
    sol = solve(empty, tol=1e-9)
    assert sol.exit_reason is ExitReason.INFEASIBLE
    assert sol.status is SolveStatus.INFEASIBLE


def test_singular_schur_system_stops_with_factorization(monkeypatch):
    """An exactly zero Schur pivot ends the iteration with FACTORIZATION and
    the best iterate so far: the one an iteration cap one step later returns."""
    g = np.array([1.0, -2.0, 0.5])
    prog = ConeProgram(n_vars=3, norm_groups=[NormGroup(np.arange(3), 1.0)],
                       quad_groups=[QuadGroup(np.arange(3), np.zeros(3))],
                       ineq_lhs=-g[None, :], ineq_rhs=np.array([-1.0]))
    k = 3
    built = []
    init = socp._NewtonSystem.__init__

    def singular_at_k(self, *args):
        init(self, *args)
        built.append(self)
        if len(built) == k + 1:
            self.schur = np.zeros_like(self.schur)

    monkeypatch.setattr(socp._NewtonSystem, "__init__", singular_at_k)
    sol = solve(prog, tol=1e-9)
    monkeypatch.undo()
    assert len(built) == k + 1
    assert sol.exit_reason is ExitReason.FACTORIZATION
    assert sol.status is SolveStatus.ITER_LIMIT and sol.iterations == k
    assert ExitReason.FACTORIZATION.value in sol.violation_report
    capped = solve(prog, tol=1e-9, max_iter=k + 1)
    assert capped.exit_reason is ExitReason.ITER_CAP
    assert np.array_equal(sol.x, capped.x)
    assert sol.objective == capped.objective and sol.kkt_residual == capped.kkt_residual


def test_zero_gradient_row_infeasibility():
    """A constraint that no variable can influence, with an unreachable
    right-hand side, must come back infeasible."""
    prog = ConeProgram(n_vars=2, linear_cost=np.ones(2),
                       quad_groups=[QuadGroup(np.arange(2), np.zeros(2))],
                       ineq_lhs=np.zeros((1, 2)), ineq_rhs=np.array([-0.5]))
    sol = solve(prog, tol=1e-9)
    assert sol.status is SolveStatus.INFEASIBLE


def test_solution_recheck_against_structure(rng):
    for _ in range(10):
        g = rng.normal(size=3)
        prog = ConeProgram(
            n_vars=3,
            norm_groups=[NormGroup(np.arange(3), 1.0)],
            quad_groups=[QuadGroup(np.arange(3), np.zeros(3))],
            ineq_lhs=-g[None, :], ineq_rhs=np.array([-1.0]))
        sol = solve(prog, tol=1e-9)
        assert sol.status is SolveStatus.OPTIMAL
        assert prog.max_violation(sol.x) <= 1e-7
        assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective))


def test_determinism():
    rng = np.random.default_rng(3)
    g = rng.normal(size=4)
    prog = ConeProgram(n_vars=4,
                       norm_groups=[NormGroup(np.arange(4), 0.8)],
                       quad_groups=[QuadGroup(np.arange(4), np.zeros(4))],
                       ineq_lhs=-g[None, :], ineq_rhs=np.array([-1.3]))
    a = solve(prog, tol=1e-9)
    b = solve(prog, tol=1e-9)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_program_validation():
    with pytest.raises(ValueError):
        ConeProgram(n_vars=2, norm_groups=[NormGroup(np.array([5]), 1.0)])
    with pytest.raises(ValueError):
        ConeProgram(n_vars=2, norm_groups=[NormGroup(np.array([0]), -1.0)])
    with pytest.raises(ValueError):
        ConeProgram(n_vars=2, disks=[Disk(0, 1, 0.0, -0.5)])


def test_stack_unstack_roundtrip(rng):
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.allclose(unstack_complex(stack_complex(v)), v)


# ---------------------------------------------------------------------------
# subproblem assembly
# ---------------------------------------------------------------------------

def _one_dim_setup():
    """Single-receiver, single-element, single-tone waveform subproblem."""
    cfg = make_scenario("fd", length=0.029, n_f=1, receivers=((0.0, 0.0, 1.0),))
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    rows = effective_rows(channel, cfg.array)
    return cfg, rows


def test_w_subproblem_one_dimensional_analytic():
    cfg, rows = _one_dim_setup()
    dev = cfg.device
    w0 = Waveform(np.array([[0.5 + 0.1j]]))
    lin = linearize_vo_in_w(rows[0], w0.omega.T, dev.k2, dev.k4, dev.hpa_gain)
    prog = assemble_w_subproblem(cfg, None, [lin], w0)
    sol = solve(prog, tol=1e-10)
    assert sol.status is SolveStatus.OPTIMAL
    # analytic: minimize k||w|| + ||w||^2 on the halfplane row.(w) >= r
    row = -prog.ineq_lhs[0]
    r = -prog.ineq_rhs[0]
    k = prog.norm_groups[0].scale
    wstar = r * row / (row @ row)
    expected = k * np.linalg.norm(wstar) + wstar @ wstar
    assert sol.objective == pytest.approx(expected, rel=1e-8)


def test_w_subproblem_expansion_point_feasible(rng):
    """A waveform feasible for the true constraint is feasible for its own
    linearized restriction with nonnegative slack."""
    cfg = make_scenario("fd", length=0.10, n_f=2)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    rows = effective_rows(channel, cfg.array)
    dev = cfg.device
    target = cfg.voltage_targets()[0]
    for _ in range(5):
        omega = 0.05 * (rng.normal(size=(cfg.array.rf_chain_count, 2))
                        + 1j * rng.normal(size=(cfg.array.rf_chain_count, 2)))
        v = harvested_voltage(rows[0], omega.T, dev.hpa_gain, dev.k2, dev.k4)
        scale = 1.0
        while v < target:  # grow until truly feasible
            scale *= 2.0
            v = harvested_voltage(rows[0], scale * omega.T, dev.hpa_gain,
                                  dev.k2, dev.k4)
        w0 = Waveform(scale * omega)
        lin = linearize_vo_in_w(rows[0], w0.omega.T, dev.k2, dev.k4,
                                dev.hpa_gain)
        prog = assemble_w_subproblem(cfg, None, [lin], w0)
        x0 = stack_complex(w0.omega)
        # slack bounded by the assembly's 1e-7 relative target margin
        assert prog.max_violation(x0) <= 1e-7 * target + 1e-12


def test_w_subproblem_row_matches_linearization_action(rng):
    """The affine row in stacked chain-major variables reproduces the
    linearization's action for multi-chain multi-tone instances."""
    cfg = make_scenario("fd", length=0.10, n_f=2)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    rows = effective_rows(channel, cfg.array)
    dev = cfg.device
    n_rf, n_f = cfg.array.rf_chain_count, 2
    w0 = Waveform(rng.normal(size=(n_rf, n_f)) + 1j * rng.normal(size=(n_rf, n_f)))
    lin = linearize_vo_in_w(rows[0], w0.omega.T, dev.k2, dev.k4, dev.hpa_gain)
    prog = assemble_w_subproblem(cfg, None, [lin], w0)
    delta = rng.normal(size=(n_rf, n_f)) + 1j * rng.normal(size=(n_rf, n_f))
    row = -prog.ineq_lhs[0]
    via_row = row @ stack_complex(delta)
    via_action = lin.action(delta.T)  # linearization acts on [n_f, n_rf]
    assert via_row == pytest.approx(via_action, rel=1e-12)


@pytest.mark.parametrize("arch", ["fd", "dma"])
def test_production_restriction_matches_its_cone_program(arch):
    """The cone program of ``assemble_w_subproblem`` poses the restriction
    of a three-receiver design's initialization: the same rows, right-hand
    sides and chain scales."""
    cfg, dma, lins, w, res = initial_waveform_restriction(arch)
    prog = assemble_w_subproblem(cfg, dma, lins, w)
    n_rf, n_f = w.omega.shape
    assert res.rows.shape == (3, n_rf, 2 * n_f)
    assert np.array_equal(prog.ineq_lhs, -res.rows.reshape(3, -1))
    assert np.array_equal(prog.ineq_rhs, -res.rhs)
    assert [g.scale for g in prog.norm_groups] == list(res.scales)


def test_w_subproblem_infeasible_when_unreachable():
    cfg, rows = _one_dim_setup()
    dev = cfg.device
    w0 = Waveform.zeros(1, 1)  # zero point: gradient vanishes, base 0 < target
    lin = linearize_vo_in_w(rows[0], w0.omega.T, dev.k2, dev.k4, dev.hpa_gain)
    prog = assemble_w_subproblem(cfg, None, [lin], w0)
    sol = solve(prog, tol=1e-9)
    assert sol.status is SolveStatus.INFEASIBLE


def test_q_subproblem_single_element_boundary(rng):
    """One element, one receiver: the restricted optimum lies on the disk
    boundary along the gradient direction, matching a fine phase grid."""
    cfg = make_scenario("dma", length=0.10, n_f=1)
    n_el = cfg.array.n_elements
    dev = cfg.device
    a_hat = np.zeros((1, n_el), dtype=complex)
    a_hat[0, 0] = 0.03 + 0.04j  # only element 0 active
    q0 = np.full(n_el, 0.4j, dtype=complex)
    wf = Waveform(np.ones((cfg.array.n_v, 1), dtype=complex))
    lin = linearize_vo_in_q(a_hat, q0, dev.k2, dev.k4, dev.hpa_gain)
    prog = assemble_q_subproblem([lin], q0)
    sol = solve(prog, tol=1e-10)
    assert sol.status is SolveStatus.OPTIMAL
    q_sol = unstack_complex(sol.x[:2 * n_el])[0]
    c = lin.coeffs[0]
    q_expected = 0.5j + 0.5 * c / abs(c)
    assert abs(q_sol - q_expected) <= 1e-6
    # every element inside its disk
    q_all = unstack_complex(sol.x[:2 * n_el])
    assert np.max(np.abs(q_all - 0.5j)) <= 0.5 + 1e-9


def test_q_subproblem_zero_gradient_returns_base(rng):
    cfg = make_scenario("dma", length=0.10, n_f=1)
    n_el = cfg.array.n_elements
    dev = cfg.device
    a_hat = np.zeros((1, n_el), dtype=complex)
    q0 = np.full(n_el, 0.3j, dtype=complex)
    wf = Waveform(np.ones((cfg.array.n_v, 1), dtype=complex))
    lin = linearize_vo_in_q(a_hat, q0, dev.k2, dev.k4, dev.hpa_gain)
    prog = assemble_q_subproblem([lin], q0)
    sol = solve(prog, tol=1e-9)
    assert sol.status is SolveStatus.OPTIMAL
    assert -sol.objective == pytest.approx(lin.base_value, abs=1e-9)


def test_q_subproblem_interior_point_feasible(rng):
    """q0 strictly inside the disks is feasible and guarantees R at least the
    smallest base voltage."""
    cfg = make_scenario("dma", length=0.10, n_f=2,
                        receivers=((0.0, 0.0, 1.5), (0.3, 0.0, 1.2)))
    n_el = cfg.array.n_elements
    dev = cfg.device
    rngl = np.random.default_rng(7)
    a_hat = 0.01 * (rngl.normal(size=(2, 2, n_el))
                    + 1j * rngl.normal(size=(2, 2, n_el)))
    q0 = np.full(n_el, 0.45j, dtype=complex)
    wf = Waveform(np.ones((cfg.array.n_v, 2), dtype=complex))
    lins = [linearize_vo_in_q(a_hat[m], q0, dev.k2, dev.k4, dev.hpa_gain)
            for m in range(2)]
    prog = assemble_q_subproblem(lins, q0)
    sol = solve(prog, tol=1e-9)
    assert sol.status is SolveStatus.OPTIMAL
    r_star = -sol.objective
    assert r_star >= min(l.base_value for l in lins) - 1e-9
