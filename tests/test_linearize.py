import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptopt.linearize import linearize_vo_in_q, linearize_vo_in_w
from wptopt.oracle import check_gradient, spectrum_gradient_enumerated
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
        g = float(rng.uniform(0.5, 1.5))
        worst = max(worst, check_gradient(
            linearize_vo_in_w(a, w0, 1.0, 0.5, g),
            lambda w: harvested_voltage(a, w, g, 1.0, 0.5), seed=t))
    assert worst <= 1e-5


def test_gradient_matches_finite_differences_q(rng):
    worst = 0.0
    for t in range(30):
        a, _ = rand_instance(rng)
        q0 = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
        g = float(rng.uniform(0.5, 1.5))
        worst = max(worst, check_gradient(
            linearize_vo_in_q(a, q0, 1.0, 0.5, g),
            lambda q: harvested_voltage(a, q[None, :], g, 1.0, 0.5), seed=t))
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n_f=st.integers(1, 16), n_el=st.integers(1, 16),
       k2=st.floats(0.0, 2e3), k4=st.floats(0.0, 1e7), hpa_gain=st.floats(0.1, 10.0),
       step=st.sampled_from([1e-3, 1e-1, 1.0, 10.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_underestimator_property(n_f, n_el, k2, k4, hpa_gain, step, seed):
    """The tangent plane is a global lower bound on the voltage (convexity),
    in the tone weights ``w`` and in the element weights ``q``."""
    rng = np.random.default_rng(seed)
    a, w0 = rand_instance(rng, n_f, n_el)
    delta = step * (rng.normal(size=w0.shape) + 1j * rng.normal(size=w0.shape))
    lin = linearize_vo_in_w(a, w0, k2, k4, hpa_gain)
    actual = harvested_voltage(a, w0 + delta, hpa_gain, k2, k4)
    assert actual >= lin.predict(w0 + delta) - 1e-12 * max(actual, lin.base_value)
    q0, dq = w0[0], delta[0]
    lin_q = linearize_vo_in_q(a, q0, k2, k4, hpa_gain)
    actual_q = harvested_voltage(a, (q0 + dq)[None, :], hpa_gain, k2, k4)
    assert actual_q >= lin_q.predict(q0 + dq) - 1e-12 * max(actual_q, lin_q.base_value)


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
