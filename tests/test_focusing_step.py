"""The focusing step against the weak-duality bound of its restriction, the
old M = 1 closed form and its own certificate, on random restrictions of two
to four receivers and on a family whose minimizer sits at a kink of the
dual."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (assert_certified, assert_in_disks, assert_same_step, disk_points,
                      focusing_restrictions, receiver_linearizations)
from wptopt.focusing_step import GAP_TOL, ExitReason, focusing_step
from wptopt.linearize import LinearizedVoltage
from wptopt.transmitter import LORENTZIAN_CENTER, LORENTZIAN_RADIUS


@settings(derandomize=True, max_examples=60, deadline=None)
@given(focusing_restrictions())
def test_focusing_step_is_certified(case):
    lins, kink_level = case
    step = focusing_step(lins)
    event(f"M = {len(lins)}, {'kink' if kink_level is not None else 'rows'}, "
          f"{step.exit_reason.name}")
    assert_certified(step, lins)
    assert step.gap <= GAP_TOL * (1.0 + abs(step.primal))
    assert step.multipliers.min() >= 0.0 and step.multipliers.sum() == pytest.approx(1.0)
    q0 = lins[0].expansion_point
    dead = np.all([np.asarray(lin.coeffs) == 0 for lin in lins], axis=0)
    assert np.array_equal(step.q[dead], q0[dead])
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
@given(focusing_restrictions(), st.integers(0, 3), st.floats(0.0, 1.5))
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
