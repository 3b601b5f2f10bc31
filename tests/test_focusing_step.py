"""The focusing step against the interior-point reference, the old M = 1
closed form and its own certificate, on random restrictions of two to four
receivers and on a family whose minimizer sits at a kink of the dual."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import assert_same_step
from wptopt.focusing_step import GAP_TOL, ExitReason, focusing_step
from wptopt.linearize import LinearizedVoltage, linearize_vo_in_q
from wptopt.scenario import DeviceParams
from wptopt.socp import SolveStatus, assemble_q_subproblem, solve
from wptopt.transmitter import LORENTZIAN_CENTER, LORENTZIAN_RADIUS

# The interior-point method stops at a KKT merit of 1e-9; its objective then
# lies within 1e-8 (1 + |v|) of the optimum on these programs.
IPM_OBJECTIVE_TOL = 1e-8


def disk_points(rng, n):
    radius = LORENTZIAN_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, n))
    return LORENTZIAN_CENTER + radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def receiver_linearizations(rng, m_count, n_el, n_f, q0):
    """Each receiver's tangent model at ``q0`` from random effective rows,
    scaled so that its voltage there lies in 1 mV - 1 V; the same whole
    columns are zero for every receiver, so those elements are dead."""
    dev = DeviceParams()
    dead = rng.random(n_el) < 0.2
    lins = []
    for _ in range(m_count):
        spread = 10.0 ** rng.uniform(-2.0, 0.0, (n_f, n_el))
        a_hat = spread * (rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el)))
        a_hat[:, dead] = 0.0
        lin = linearize_vo_in_q(a_hat, q0, dev.k2, dev.k4, dev.hpa_gain)
        if lin.base_value > 0.0:
            scale = 10.0 ** rng.uniform(-3.0, 0.0) / lin.base_value
            lin = LinearizedVoltage(lin.base_value * scale, lin.coeffs * scale, q0)
        lins.append(lin)
    return lins


def kink_linearizations(rng, m_count, n_el):
    """Linearizations whose dual minimizer is a chosen ``lam`` inside the
    simplex with ``d_k(lam) = 0`` for one element: its coefficient for the
    last receiver cancels the others there. The voltages are then set so
    that a chosen ``u_k`` strictly inside the disk equalizes every receiver,
    so ``lam`` with that point meets the optimality conditions."""
    coeffs = 10.0 ** rng.uniform(-2.0, 0.0, (m_count, n_el)) \
        * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (m_count, n_el)))
    lam = rng.uniform(0.2, 1.0, m_count)
    lam /= lam.sum()
    k = int(rng.integers(n_el))
    coeffs[-1, k] = -(lam[:-1] @ coeffs[:-1, k]) / lam[-1]
    d = lam @ coeffs
    u = 0.8 * LORENTZIAN_RADIUS * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    rim = np.where(np.arange(n_el) == k, 0.0, LORENTZIAN_RADIUS * d / np.where(d == 0, 1.0, np.abs(d)))
    rim[k] = u
    rest = 2.0 * np.real(np.conj(coeffs) @ rim)
    level = 10.0 ** rng.uniform(-2.0, 0.0)
    q0 = disk_points(rng, n_el)
    # beta_m = level - rest_m, and beta_m = v_m(q0) + 2 Re{c_m^H (j/2 - q0)}
    bases = level - rest - 2.0 * np.real(np.conj(coeffs) @ (LORENTZIAN_CENTER - q0))
    return [LinearizedVoltage(float(b), c, q0) for b, c in zip(bases, coeffs)], level


@st.composite
def restrictions(draw):
    """Two to four receivers. Half the draws come from random effective rows
    (1-60 elements, 1-4 tones), half from the kink family."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m_count = draw(st.integers(2, 4))
    if draw(st.booleans()):
        n_el = draw(st.integers(2, 40))
        lins, level = kink_linearizations(rng, m_count, n_el)
        return lins, level
    n_el = draw(st.integers(1, 60))
    q0 = disk_points(rng, n_el)
    return receiver_linearizations(rng, m_count, n_el, draw(st.integers(1, 4)), q0), None


def ipm_focusing(lins):
    """The restriction solved by the interior-point method: its status and
    the maximum of the minimum linearized voltage."""
    sol = solve(assemble_q_subproblem(lins, lins[0].expansion_point), tol=1e-9)
    return sol.status, -sol.objective


def assert_in_disks(q):
    assert np.all(np.abs(q - LORENTZIAN_CENTER) <= LORENTZIAN_RADIUS * (1.0 + 1e-15))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(restrictions())
def test_focusing_step_matches_ipm(case):
    lins, kink_level = case
    step = focusing_step(lins)
    event(f"M = {len(lins)}, {'kink' if kink_level is not None else 'rows'}, "
          f"{step.exit_reason.name}")
    assert step.exit_reason is ExitReason.TOLERANCE
    assert step.gap <= GAP_TOL * (1.0 + abs(step.primal))
    assert step.multipliers.min() >= 0.0 and step.multipliers.sum() == pytest.approx(1.0)
    assert_in_disks(step.q)
    voltages = [lin.predict(step.q) for lin in lins]
    assert step.primal == min(voltages)
    q0 = lins[0].expansion_point
    dead = np.all([np.asarray(lin.coeffs) == 0 for lin in lins], axis=0)
    assert np.array_equal(step.q[dead], q0[dead])
    # Where the minimizer sits at a kink the interior-point method often
    # loses the interior short of its tolerance (up to 2e-7 below the
    # optimum on such draws); it then only bounds the step's value below.
    status, v_ipm = ipm_focusing(lins)
    assert step.primal >= v_ipm - IPM_OBJECTIVE_TOL * (1.0 + abs(v_ipm))
    if status is SolveStatus.OPTIMAL:
        assert step.primal == pytest.approx(v_ipm, rel=IPM_OBJECTIVE_TOL,
                                            abs=IPM_OBJECTIVE_TOL)
    if kink_level is not None:
        assert step.primal == pytest.approx(kink_level, rel=1e-12)


def old_closed_form(lin):
    """The one-receiver focusing step as it was solved before the dual step:
    weights, linearized voltage there, the support-function bound and the
    size of the terms that the bound sums."""
    c, q0 = lin.coeffs, lin.expansion_point
    live = c != 0
    q = q0.copy()
    q[live] = LORENTZIAN_CENTER + LORENTZIAN_RADIUS * np.exp(1j * np.angle(c[live]))
    shift = np.real(np.vdot(c, LORENTZIAN_CENTER - q0))
    support = float(np.sum(np.abs(c)))
    bound = lin.base_value + 2.0 * (shift + LORENTZIAN_RADIUS * support)
    return q, lin.predict(q), float(bound), abs(lin.base_value) + 2.0 * abs(shift) + support


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 731), st.integers(1, 4))
def test_single_receiver_is_the_old_closed_form(seed, n_el, n_f):
    rng = np.random.default_rng(seed)
    q0 = disk_points(rng, n_el)
    lin, = receiver_linearizations(rng, 1, n_el, n_f, q0)
    q, objective, bound, size = old_closed_form(lin)
    step = focusing_step([lin], start=np.array([0.3]))
    assert step.q.tobytes() == q.tobytes()
    assert step.primal == objective
    # the dual sums the bound's terms in another order
    assert abs(step.dual - bound) <= 4.0 * np.finfo(float).eps * size
    assert step.multipliers.tolist() == [1.0] and step.iterations == 0
    assert step.exit_reason is ExitReason.TOLERANCE and step.kkt_residual == 0.0


def test_warm_start_reaches_the_same_optimum():
    """Started from the optimal prices, the step takes no Newton step; from
    a vertex it reaches the same certified value."""
    rng = np.random.default_rng(14)
    q0 = disk_points(rng, 24)
    lins = receiver_linearizations(rng, 3, 24, 8, q0)
    cold = focusing_step(lins)
    warm = focusing_step(lins, start=cold.multipliers)
    vertex = focusing_step(lins, start=np.array([0.0, 0.0, 1.0]))
    assert warm.iterations == 0
    for step in (warm, vertex):
        assert step.exit_reason is ExitReason.TOLERANCE
        assert step.primal == pytest.approx(cold.primal, rel=1e-12)


def test_lowest_voltage_vertex_fallback(monkeypatch):
    """Warm-started at the vertex of receiver 0, which is already optimal:
    pricing it alone lifts receiver 1 above it. The dual value ``f`` there
    is 0, but the voltage it is compared with sums 100 terms ``3 * 0.6 +
    4 * 0.8`` that each round below 5, so it reads about -3e-13 and the
    point is not settled. With one free price the Newton direction is zero
    and does not descend, so the step points to the vertex of the lowest
    voltage, receiver 0 itself; it ends there, certified. Receiver 1 enters
    the dual through one coefficient too small to move its voltage: a
    receiver whose coefficients are all zero is solved apart, as a cap."""
    from wptopt import dual_newton
    returned = []
    newton = dual_newton.direction

    def spy(*args):
        p = newton(*args)
        returned.append(p)
        return p

    monkeypatch.setattr(dual_newton, "direction", spy)
    n_el = 100
    q0 = np.full(n_el, LORENTZIAN_CENTER)
    negligible = np.zeros(n_el, complex)
    negligible[0] = 1e-300
    lins = [LinearizedVoltage(-5.0 * n_el, np.full(n_el, 3.0 + 4.0j), q0),
            LinearizedVoltage(1.0, negligible, q0)]
    step = focusing_step(lins, start=np.array([1.0, 0.0]))
    assert returned and all(p is None for p in returned)
    assert step.exit_reason is ExitReason.TOLERANCE
    assert step.gap <= GAP_TOL * (1.0 + abs(step.primal))
    assert np.array_equal(step.multipliers, [1.0, 0.0])
    assert_in_disks(step.q)
    voltages = [lin.predict(step.q) for lin in lins]
    assert step.primal == min(voltages) == pytest.approx(0.0, abs=1e-12)
    assert voltages[1] == 1.0


def assert_certified(step, lins):
    assert step.exit_reason is ExitReason.TOLERANCE
    assert step.gap <= GAP_TOL * (1.0 + abs(step.primal))
    assert step.primal == min(lin.predict(step.q) for lin in lins)
    assert_in_disks(step.q)


def test_no_live_element_keeps_the_expansion_point():
    """Every receiver sees a constant voltage: the lowest is the optimum,
    its vertex the prices."""
    q0 = np.full(4, LORENTZIAN_CENTER + 0.1)
    lins = [LinearizedVoltage(0.3, np.zeros(4, complex), q0),
            LinearizedVoltage(0.2, np.zeros(4, complex), q0)]
    step = focusing_step(lins)
    assert_certified(step, lins)
    assert np.array_equal(step.q, q0) and step.q is not q0
    assert (step.primal, step.dual) == (0.2, 0.2)
    assert step.multipliers.tolist() == [0.0, 1.0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(restrictions(), st.integers(0, 3), st.floats(0.0, 1.5))
def test_receiver_without_coefficients_caps_the_step(case, which, level):
    """One receiver's coefficients all zero, its constant voltage anywhere
    from 0 to above the others' optimum: it caps the step where it binds."""
    lins = list(case[0])
    which %= len(lins)
    q0 = lins[0].expansion_point
    free = focusing_step(lins[:which] + lins[which + 1:])
    base = level * max(lin.base_value for lin in lins)
    lins[which] = LinearizedVoltage(base, np.zeros_like(q0), q0)
    step = focusing_step(lins, start=np.full(len(lins), 1.0))
    event(f"M = {len(lins)}, {'capped' if step.multipliers[which] else 'not capped'}")
    assert_certified(step, lins)
    assert step.multipliers.min() >= 0.0 and step.multipliers.sum() == pytest.approx(1.0)
    assert step.dual == min(base, free.dual)


@pytest.mark.parametrize("start", [[0.0, 0.0], [np.nan, 1.0], [-0.5, 1.5], [np.inf, 1.0],
                                   [0.5, 0.3, 0.2], [[0.5, 0.5]]],
                         ids=["zero", "nan", "negative", "inf", "long", "2d"])
def test_warm_start_off_the_simplex_is_rejected(start):
    rng = np.random.default_rng(3)
    q0 = disk_points(rng, 6)
    lins = receiver_linearizations(rng, 2, 6, 2, q0)
    with pytest.raises(ValueError, match="warm start"):
        focusing_step(lins, start=np.array(start))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 200), st.integers(1, 4),
       st.sampled_from([None, 0.3, 1.0]))
def test_single_receiver_branch_is_the_dual_loops_start(seed, n_el, n_f, start):
    """At one receiver the step returns the dual's start point bit for bit,
    dead elements included; without the branch the dual's loop settles
    there too."""
    from unittest import mock

    from wptopt import focusing_step as module
    rng = np.random.default_rng(seed)
    q0 = disk_points(rng, n_el)
    lin, = receiver_linearizations(rng, 1, n_el, n_f, q0)
    start = None if start is None else np.array([start])
    fast = focusing_step([lin], start)
    with mock.patch.object(module, "_single", lambda lin, lam: None):
        assert_same_step(fast, focusing_step([lin], start))


def test_single_receiver_falls_back_to_the_dual_when_unsettled(monkeypatch):
    """A start that fails the settle test is the dual loop's to move: with
    the stop below zero no start settles, and the branch hands the step
    to the loop, which takes one step and ends on its certificate."""
    from wptopt import focusing_step as module
    rng = np.random.default_rng(5)
    q0 = disk_points(rng, 12)
    lin, = receiver_linearizations(rng, 1, 12, 3, q0)
    monkeypatch.setattr(module, "GAP_STOP", -1.0)
    step = focusing_step([lin])
    assert step.iterations == 1
    monkeypatch.setattr(module, "_single", lambda lin, lam: None)
    assert_same_step(step, focusing_step([lin]))
