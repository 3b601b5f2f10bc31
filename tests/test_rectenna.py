import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptopt.oracle import moment4_enumerated, time_domain_moments
from wptopt.power import Design
from wptopt.rectenna import (harvested_voltage, moment2_from_spectrum,
                             moment4_from_spectrum, output_voltage,
                             tone_amplitudes)
from wptopt.scenario import ScenarioValidationError
from wptopt.transmitter import Waveform

from conftest import synthetic_plan


def test_moment2_single_tone_example():
    s = tone_amplitudes(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]]))
    assert moment2_from_spectrum(s, 1.0) == pytest.approx(2.0)


def test_moment2_zero_waveform():
    a = np.ones((3, 4), dtype=complex)
    assert moment2_from_spectrum(tone_amplitudes(a, np.zeros((3, 4))), 1.0) == 0.0


def test_moment4_single_tone_closed_form(rng):
    s = rng.normal() + 1j * rng.normal()
    expected = 3.0 / 8.0 * abs(s) ** 4
    assert moment4_from_spectrum(np.array([s]), 1.0) == pytest.approx(expected)


def test_moment4_two_tone_matches_enumeration(rng):
    # equal-magnitude two-tone case plus random ones
    s = np.array([1.0 + 1.0j, np.sqrt(2.0)])
    assert moment4_from_spectrum(s) == pytest.approx(moment4_enumerated(s))
    for _ in range(25):
        n_f = int(rng.integers(1, 6))
        s = rng.normal(size=n_f) + 1j * rng.normal(size=n_f)
        g = float(rng.uniform(0.5, 2.0))
        assert moment4_from_spectrum(s, g) == pytest.approx(
            moment4_enumerated(s, g), rel=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n_f=st.integers(1, 16), n_el=st.integers(1, 16), extra=st.integers(1, 6),
       g=st.floats(0.1, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_moments_match_time_domain(n_f, n_el, extra, g, seed):
    """The spectral second and fourth moments equal the time averages of the
    synthesized signal on the exact quadrature grid. The fourth moment keeps
    only the products ``f_a + f_b = f_c + f_d``, so the plan is narrow band:
    ``2 f1 > (n_f - 1) delta_f`` rules out ``f_a + f_b + f_c = f_d``."""
    rng = np.random.default_rng(seed)
    plan = synthetic_plan(n_f, ratio=(n_f - 1) // 2 + extra)
    a = rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el))
    w = rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el))
    s = tone_amplitudes(a, w)
    t = plan.quadrature_times(degree=4)
    t2, t4 = time_domain_moments(s, plan.tones, t, g)
    m2 = moment2_from_spectrum(s, g)
    m4 = moment4_from_spectrum(s, g)
    assert abs(t2 - m2) <= 1e-9 * max(m2, 1e-300)
    assert abs(t4 - m4) <= 1e-8 * max(m4, 1e-300)


def test_moment4_swap_symmetry(rng):
    """Value invariant under conjugating the spectrum (swapping the roles of
    the (n0,n1) and (n2,n3) index pairs)."""
    for _ in range(10):
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert moment4_from_spectrum(s) == pytest.approx(
            moment4_from_spectrum(np.conj(s)), rel=1e-12)


def test_output_voltage_examples():
    assert output_voltage(0.0, 0.0, 952.38, 5e6) == 0.0
    assert output_voltage(1e-6, 0.0, 952.380952380952, 0.0) \
        == pytest.approx(9.5238e-4, rel=1e-4)
    # strictly increasing in each moment
    assert output_voltage(2e-6, 1e-9, 952.38, 5e6) \
        > output_voltage(1e-6, 1e-9, 952.38, 5e6) \
        > output_voltage(1e-6, 0.5e-9, 952.38, 5e6)


def test_voltage_scaling_bounds(rng):
    """Doubling the weights scales m2 by 4 and m4 by 16; the voltage lands
    between those factors."""
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    v1 = harvested_voltage(a, w, 1.0, 952.38, 5.76e6)
    v2 = harvested_voltage(a, 2.0 * w, 1.0, 952.38, 5.76e6)
    assert 4.0 * v1 - 1e-12 <= v2 <= 16.0 * v1 + 1e-12


def test_dc_power_examples(tiny_fd, rng):
    """``Design.p_dc`` is ``v_o**2 / R_L`` per receiver; a load of no
    resistance is rejected when the scenario validates."""
    n_rf, n_f = tiny_fd.array.rf_chain_count, tiny_fd.frequency.n_f
    zero = Design(tiny_fd, Waveform.zeros(n_rf, n_f))
    assert np.all(zero.p_dc() == 0.0)
    design = Design(tiny_fd, Waveform(rng.normal(size=(n_rf, n_f))
                                      + 1j * rng.normal(size=(n_rf, n_f))))
    load = tiny_fd.device.rect_load_resistance
    assert np.array_equal(design.p_dc(), design.voltages() ** 2 / load)
    # voltage needed for a 20 uW target on a 50 ohm load
    assert np.sqrt(50.0 * 2e-5) == pytest.approx(3.1623e-2, rel=1e-4)
    for bad in (0.0, -50.0):
        device = dataclasses.replace(tiny_fd.device, rect_load_resistance=bad)
        with pytest.raises(ScenarioValidationError):
            device.validate()


def test_voltage_convexity_probe(rng):
    """Midpoint inequality for the voltage as a function of the stacked
    weights, on random pairs."""
    k2, k4, g = 952.38, 5.76e6, 1.0
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    for _ in range(1000):
        x = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        vx = harvested_voltage(a, x, g, k2, k4)
        vy = harvested_voltage(a, y, g, k2, k4)
        vm = harvested_voltage(a, (x + y) / 2.0, g, k2, k4)
        assert vm <= (vx + vy) / 2.0 + 1e-12 * max(1.0, vx + vy)


def test_moment4_real_up_to_roundoff(rng):
    """The quadruple sum is real by pair symmetry; the enumerated complex
    accumulation confirms a negligible imaginary residue."""
    for _ in range(5):
        s = rng.normal(size=5) + 1j * rng.normal(size=5)
        acc = 0.0 + 0.0j
        n_f = len(s)
        for n0 in range(n_f):
            for n1 in range(n_f):
                for n2 in range(n_f):
                    n3 = n0 + n1 - n2
                    if 0 <= n3 < n_f:
                        acc += s[n0] * s[n1] * np.conj(s[n2]) * np.conj(s[n3])
        assert abs(acc.imag) <= 1e-12 * max(abs(acc.real), 1.0)


def test_moment2_nonnegative_and_single_tone_kurtosis(rng):
    for _ in range(20):
        s = rng.normal(size=1) + 1j * rng.normal(size=1)
        m2 = moment2_from_spectrum(s)
        m4 = moment4_from_spectrum(s)
        assert m2 >= 0.0 and m4 >= 0.0
        assert m4 == pytest.approx(1.5 * m2 ** 2, rel=1e-12)
