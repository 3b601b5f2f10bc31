"""Received-signal moments and the truncated Taylor model of the rectifier.

The received multi-tone signal at a device is ``y(t) = G * sum_n Re{s_n *
exp(j*2*pi*f_n*t)}`` with per-tone spectrum ``s_n = a_n^T w_n``. Its time
averages reduce to closed frequency-domain sums: the second moment is the
spectrum power and the fourth moment couples every tone quadruple with
``n0 + n1 = n2 + n3``. The rectifier output voltage keeps the second- and
fourth-order Taylor terms only (low-power regime).
"""

from __future__ import annotations

import numpy as np


def tone_amplitudes(a_rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-tone received spectrum ``s_n = a_n^T w_n`` (plain transpose).

    ``a_rows`` and ``w`` are [n_f, N]; broadcastable shapes are accepted.
    """
    return np.sum(np.asarray(a_rows) * np.asarray(w), axis=-1)


def moment2_from_spectrum(s: np.ndarray, hpa_gain: float = 1.0) -> float:
    """Time average of ``y(t)**2`` from the tone spectrum."""
    s = np.asarray(s)
    return float(hpa_gain ** 2 / 2.0 * np.sum(np.abs(s) ** 2))


def moment4_from_spectrum(s: np.ndarray, hpa_gain: float = 1.0) -> float:
    """Time average of ``y(t)**4`` from the tone spectrum.

    Evaluated as the energy of the self-convolution of the spectrum, which is
    the O(n_f^2) rearrangement of the quadruple sum over ``n0+n1 = n2+n3``.
    """
    s = np.asarray(s, dtype=complex)
    return moment4_from_convolution(np.convolve(s, s), hpa_gain)


def moment4_from_convolution(t: np.ndarray, hpa_gain: float = 1.0) -> float:
    """Time average of ``y(t)**4`` from the self-convolution ``t = s * s``."""
    return float(3.0 * hpa_gain ** 4 / 8.0 * np.sum(np.abs(t) ** 2))


def moment2(a_rows: np.ndarray, w: np.ndarray, hpa_gain: float = 1.0) -> float:
    """Second moment of the received signal for one receiver."""
    return moment2_from_spectrum(tone_amplitudes(a_rows, w), hpa_gain)


def moment4(a_rows: np.ndarray, w: np.ndarray, hpa_gain: float = 1.0) -> float:
    """Fourth moment of the received signal for one receiver."""
    return moment4_from_spectrum(tone_amplitudes(a_rows, w), hpa_gain)


def output_voltage(m2: float, m4: float, k2: float, k4: float) -> float:
    """Rectifier output voltage ``K2*E{y^2} + K4*E{y^4}``."""
    return k2 * m2 + k4 * m4


def dc_power(v_o: float, load_resistance: float) -> float:
    """Harvested DC power ``v_o^2 / R_L``."""
    if load_resistance <= 0:
        raise ValueError("load resistance must be positive")
    return v_o * v_o / load_resistance


def harvested_voltage(a_rows: np.ndarray, w: np.ndarray, hpa_gain: float,
                      k2: float, k4: float) -> float:
    """Output voltage straight from effective rows and weights."""
    s = tone_amplitudes(a_rows, w)
    return output_voltage(moment2_from_spectrum(s, hpa_gain),
                          moment4_from_spectrum(s, hpa_gain), k2, k4)

