"""First-order models of the rectifier output voltage.

The output voltage is a convex quartic in the stacked real/imaginary weight
coordinates, so its tangent plane is a global underestimator; the convex
restriction stage relies on that. The gradient is represented by a
complex coefficient vector ``c`` acting on a perturbation as
``2*Re{c^H delta}`` (the conjugate-coordinate derivative).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rectenna import (moment2_from_spectrum, moment4_from_convolution,
                       output_voltage, tone_amplitudes)


@dataclass(frozen=True)
class LinearizedVoltage:
    """Tangent model ``v(x0) + 2*Re{coeffs^H (x - x0)}`` of the output voltage."""

    base_value: float
    coeffs: np.ndarray = field(repr=False)           # same shape as the point
    expansion_point: np.ndarray = field(repr=False)

    def action(self, delta: np.ndarray) -> float:
        """First-order change for a perturbation of the expansion point."""
        return float(2.0 * np.real(np.vdot(self.coeffs, delta)))

    def predict(self, point: np.ndarray) -> float:
        return self.base_value + self.action(np.asarray(point) - self.expansion_point)


def _voltage_and_gradient(s: np.ndarray, hpa_gain: float, k2: float, k4: float):
    """v_o and d v_o / d conj(s_n) from one self-convolution ``t = s * s``: the
    fourth moment is its energy; the gradient is ``(G^2/2) s`` plus ``t``
    correlated back against ``s``."""
    t = np.convolve(s, s)
    base = output_voltage(moment2_from_spectrum(s, hpa_gain),
                          moment4_from_convolution(t, hpa_gain), k2, k4)
    quartic = np.correlate(t, s, mode="valid")  # sum_u t[u] conj(s[u - n])
    return base, (k2 * hpa_gain ** 2 / 2.0) * s + (k4 * 3.0 * hpa_gain ** 4 / 4.0) * quartic


def linearize_vo_in_w(a_rows: np.ndarray, w0: np.ndarray, k2: float, k4: float,
                      hpa_gain: float = 1.0,
                      conj_rows: np.ndarray | None = None) -> LinearizedVoltage:
    """Tangent model of the output voltage in the digital weights.

    ``a_rows`` and ``w0`` are [n_f, N_c]; each tone has its own weight block,
    so the coefficient for tone n is ``g_n * conj(a_n)``. A stage that
    linearizes the same rows repeatedly passes ``np.conj(a_rows)`` once as
    ``conj_rows``.
    """
    a_rows = np.asarray(a_rows, dtype=complex)
    w0 = np.asarray(w0, dtype=complex)
    s = tone_amplitudes(a_rows, w0)
    base, grad_s = _voltage_and_gradient(s, hpa_gain, k2, k4)
    coeffs = grad_s[:, None] * (np.conj(a_rows) if conj_rows is None else conj_rows)
    return LinearizedVoltage(base, coeffs, w0.copy())


def linearize_vo_in_q(a_hat_rows: np.ndarray, q0: np.ndarray, k2: float, k4: float,
                      hpa_gain: float = 1.0,
                      conj_rows: np.ndarray | None = None) -> LinearizedVoltage:
    """Tangent model of the output voltage in the element weights.

    All tones share the single weight vector ``q``, so the per-tone
    contributions accumulate: ``c = sum_n g_n * conj(a_hat_n)``. A stage
    that linearizes the same rows repeatedly passes ``np.conj(a_hat_rows)``
    once as ``conj_rows``.
    """
    a_hat_rows = np.asarray(a_hat_rows, dtype=complex)
    q0 = np.asarray(q0, dtype=complex)
    s = a_hat_rows @ q0
    base, grad_s = _voltage_and_gradient(s, hpa_gain, k2, k4)
    coeffs = grad_s @ (np.conj(a_hat_rows) if conj_rows is None else conj_rows)
    return LinearizedVoltage(base, coeffs, q0.copy())
