import numpy as np
import pytest

from wptopt.linearize import linearize_vo_in_q, linearize_vo_in_w
from wptopt.oracle import (check_gradient_q, check_gradient_w,
                           spectrum_gradient_enumerated)
from wptopt.rectenna import harvested_voltage, tone_amplitudes

K2, K4 = 952.380952380952, 5764.0  # representative positive coefficients


def rand_instance(rng, n_f=None, n_el=None):
    n_f = n_f or int(rng.integers(1, 5))
    n_el = n_el or int(rng.integers(1, 7))
    a = rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el))
    w = rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el))
    return a, w


def test_zero_expansion_point_is_stationary(rng):
    a, _ = rand_instance(rng, 3, 4)
    lin = linearize_vo_in_w(a, np.zeros((3, 4), dtype=complex), K2, K4)
    assert lin.base_value == 0.0
    assert np.all(lin.coeffs == 0.0)
    lin_q = linearize_vo_in_q(a, np.zeros(4, dtype=complex), K2, K4)
    assert lin_q.base_value == 0.0
    assert np.all(lin_q.coeffs == 0.0)


def test_gradient_matches_finite_differences_w(rng):
    worst = 0.0
    for t in range(30):
        a, w0 = rand_instance(rng)
        worst = max(worst, check_gradient_w(a, w0, 1.0, 0.5,
                                            float(rng.uniform(0.5, 1.5)), seed=t))
    assert worst <= 1e-5


def test_gradient_matches_finite_differences_q(rng):
    worst = 0.0
    for t in range(30):
        a, _ = rand_instance(rng)
        q0 = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
        worst = max(worst, check_gradient_q(a, q0, 1.0, 0.5,
                                            float(rng.uniform(0.5, 1.5)), seed=t))
    assert worst <= 1e-5


def test_gradient_parts_scale_with_expected_degrees(rng):
    """The quadratic part of the coefficient scales linearly with the point,
    the quartic part cubically."""
    a, w0 = rand_instance(rng, 2, 3)
    t = 1.7
    k2_only = linearize_vo_in_w(a, w0, K2, 0.0)
    k2_scaled = linearize_vo_in_w(a, t * w0, K2, 0.0)
    assert np.allclose(k2_scaled.coeffs, t * k2_only.coeffs)
    k4_only = linearize_vo_in_w(a, w0, 0.0, K4)
    k4_scaled = linearize_vo_in_w(a, t * w0, 0.0, K4)
    assert np.allclose(k4_scaled.coeffs, t ** 3 * k4_only.coeffs)


def test_underestimator_property(rng):
    """First-order model is a global lower bound (convexity), checked on 1000
    random point/perturbation pairs."""
    violations = 0
    for _ in range(1000):
        a, w0 = rand_instance(rng, 2, 2)
        lin = linearize_vo_in_w(a, w0, 1.0, 0.3)
        delta = rng.normal(size=w0.shape) + 1j * rng.normal(size=w0.shape)
        actual = harvested_voltage(a, w0 + delta, 1.0, 1.0, 0.3)
        if actual < lin.predict(w0 + delta) - 1e-10 * max(abs(lin.base_value), 1.0):
            violations += 1
    assert violations == 0


def test_action_is_real_and_linear(rng):
    a, w0 = rand_instance(rng, 3, 3)
    lin = linearize_vo_in_w(a, w0, K2, K4)
    d1 = rng.normal(size=w0.shape) + 1j * rng.normal(size=w0.shape)
    d2 = rng.normal(size=w0.shape) + 1j * rng.normal(size=w0.shape)
    v1, v2 = lin.action(d1), lin.action(d2)
    assert isinstance(v1, float)
    assert lin.action(d1 + d2) == pytest.approx(v1 + v2, rel=1e-12)
    assert lin.action(2.5 * d1) == pytest.approx(2.5 * v1, rel=1e-12)
    assert lin.action(np.zeros_like(d1)) == 0.0


def test_enumerated_terms_match_canonical(rng):
    """The expanded quadruple-sum coefficient listing and the autocorrelation
    form produce identical gradients."""
    for _ in range(20):
        a, w0 = rand_instance(rng)
        fast = linearize_vo_in_w(a, w0, K2, K4)
        grad = spectrum_gradient_enumerated(tone_amplitudes(a, w0), 1.0, K2, K4)
        slow = grad[:, None] * np.conj(a)
        scale = max(np.max(np.abs(fast.coeffs)), 1e-300)
        assert np.max(np.abs(fast.coeffs - slow)) <= 1e-10 * scale
        q0 = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
        fast_q = linearize_vo_in_q(a, q0, K2, K4)
        slow_q = spectrum_gradient_enumerated(a @ q0, 1.0, K2, K4) @ np.conj(a)
        scale = max(np.max(np.abs(fast_q.coeffs)), 1e-300)
        assert np.max(np.abs(fast_q.coeffs - slow_q)) <= 1e-10 * scale


def test_q_and_w_linearizations_agree_single_tone(rng):
    """With one tone, swapping which factor is 'the variable' in the bilinear
    received spectrum yields the same voltage model."""
    n_el = 4
    a = rng.normal(size=(1, n_el)) + 1j * rng.normal(size=(1, n_el))
    x0 = rng.normal(size=n_el) + 1j * rng.normal(size=n_el)
    lin_w = linearize_vo_in_w(a, x0[None, :], K2, K4)
    lin_q = linearize_vo_in_q(a, x0, K2, K4)
    assert lin_w.base_value == pytest.approx(lin_q.base_value, rel=1e-12)
    assert np.allclose(lin_w.coeffs.reshape(-1), lin_q.coeffs)


def test_predict_at_expansion_point(rng):
    a, w0 = rand_instance(rng, 2, 3)
    lin = linearize_vo_in_w(a, w0, K2, K4)
    assert lin.predict(w0) == pytest.approx(lin.base_value)
    assert lin.base_value == pytest.approx(
        harvested_voltage(a, w0, 1.0, K2, K4), rel=1e-12)
