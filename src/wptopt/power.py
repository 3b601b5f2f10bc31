"""Transmitter power consumption: exact time-sampled model and its convex bound.

A class-B amplifier driven to instantaneous output power ``P_out(t)`` consumes
``sqrt(P_max * P_out(t)) / eta_bar``; the total consumption adds the digital
input power ``sum |omega|^2``. The optimization objective replaces the
time-average of the square root by the square root of the average (Jensen),
which separates per chain into ``scale_i * ||omega_i||``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .channel import ChannelTensor, build_channel
from .rectenna import harvested_voltage
from .scenario import Architecture, ArraySpec, FrequencyPlan, ScenarioConfig
from .transmitter import DmaState, Waveform, effective_rows

_CHUNK = 1 << 16  # time samples per block when sampling long windows


def input_power(waveform: Waveform) -> float:
    """Total digital input power ``sum_i sum_n |omega[i, n]|^2``."""
    return float(np.sum(np.abs(waveform.omega) ** 2))


def chain_norm_scales(dma: DmaState | None, n_rf: int, hpa_gain: float,
                      p_max: float, eta_max: float) -> np.ndarray:
    """Per-chain coefficient turning ``||omega_i||`` into the consumption bound.

    The bound term for chain i is ``sqrt(P_max)/eta * sqrt(sum_{l,n}
    (G^2/2)|omega q h|^2)`` which factors into ``scale_i * ||omega_i||`` with
    ``scale_i = sqrt(P_max)*G/(sqrt(2)*eta) * sqrt(sum_l |q_il h_il|^2)``.
    """
    base = np.sqrt(p_max) * hpa_gain / (np.sqrt(2.0) * eta_max)
    if dma is None:
        return np.full(n_rf, base)
    qh = np.sqrt(np.sum(np.abs(dma.q * dma.h) ** 2, axis=1))
    if len(qh) != n_rf:
        raise ValueError("DMA state does not match the RF chain count")
    return base * qh


def hpa_bound_objective(waveform: Waveform, dma: DmaState | None,
                        hpa_gain: float, p_max: float, eta_max: float) -> float:
    """Convex upper bound on total consumption: sum-of-norms term plus P_in."""
    scales = chain_norm_scales(dma, waveform.n_rf, hpa_gain, p_max, eta_max)
    norms = np.linalg.norm(waveform.omega, axis=1)
    return float(scales @ norms + input_power(waveform))


@dataclass(frozen=True)
class PowerReport:
    """Consumption summary for one transmitter state. The optimization
    objective is ``p_hpa_bound + p_in`` (:func:`hpa_bound_objective`)."""

    p_in: float            # digital input power
    p_hpa_sampled: float   # time-averaged amplifier consumption
    p_hpa_bound: float     # Jensen upper bound on the amplifier term
    p_c_sampled: float     # p_hpa_sampled + p_in

    def to_dict(self) -> dict:
        return asdict(self)


def _virtual_coefficients(dma: DmaState | None, n_rf: int) -> np.ndarray:
    """At most two coefficients per chain, [n_rf, m], that radiate the chain's
    output power ``sum_l (Re c_l z)**2`` for every chain signal ``z``. It
    depends on the elements ``c_l = q_l h_l`` only through the 2x2 Gram matrix
    ``M`` of the rows ``[Re c_l, -Im c_l]``, so a chain of more than two is
    replaced by the rows of ``sqrt(M) = (M + s I) / t``, ``s = sqrt(det M)``,
    ``t = sqrt(tr M + 2 s)``. A fully-digital chain is one element, ``c = 1``."""
    c = np.ones((n_rf, 1), dtype=complex) if dma is None else dma.q * dma.h
    if c.shape[1] <= 2:
        return c
    a, b = c.real, -c.imag
    aa, bb, ab = (np.sum(u * v, axis=1) for u, v in ((a, a), (b, b), (a, b)))
    s = np.sqrt(np.maximum(aa * bb - ab * ab, 0.0))
    t = np.sqrt(aa + bb + 2.0 * s)
    t[t == 0.0] = np.inf                 # a chain of zero weights radiates nothing
    return np.column_stack([(aa + s) - 1j * ab, ab - 1j * (bb + s)]) / t[:, None]


def _unit_phasors(bin_: int, start: int, n: int, cycle: int) -> np.ndarray:
    """``exp(2j pi ((bin_ * k) mod cycle) / cycle)`` for ``start <= k < start + n``:
    with ``k = start + width * i + j``, the outer product of about ``2 sqrt(n)``
    exponentials of integer-reduced phases, so no large argument is rounded."""
    width = math.isqrt(n - 1) + 1
    outer, inner = (np.exp(2j * np.pi / cycle * (bin_ * k % cycle))
                    for k in (start + width * np.arange(-(-n // width)), np.arange(width)))
    return np.multiply.outer(outer, inner).reshape(-1)[:n]


def _output_power_chunks(weights: np.ndarray, coeffs: np.ndarray, first_bin: int,
                         bin_step: int, cycle: int, count: int):
    """Per-chain output power ``P_out[i, k]``, ``k < count``, in blocks of
    ``_CHUNK`` samples. Tone n is DFT bin ``first_bin + n * bin_step`` of a
    ``cycle``-sample period; a block builds it by recurrence from the lowest
    tone's and the tone step's phasors ``E``. Virtual element m of chain i
    radiates ``[Re v, -Im v] @ [Re E; Im E]``, ``v = coeffs[i, m] weights[i]``,
    one real product for all, and ``P_out`` is the sum of their squares."""
    (n_rf, m), n_f = coeffs.shape, weights.shape[1]
    virtual = (coeffs[:, :, None] * weights[:, None, :]).reshape(n_rf * m, n_f)
    virtual = np.hstack([virtual.real, -virtual.imag])       # [n_rf m, 2 n_f]
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        tone, advance = (_unit_phasors(b, start, n, cycle) for b in (first_bin, bin_step))
        table, spare = np.empty((2 * n_f, n)), np.empty_like(tone)   # [Re E; Im E]
        for i in range(n_f):
            if i:
                tone, spare = np.multiply(tone, advance, out=spare), tone
            table[i], table[n_f + i] = tone.real, tone.imag
        x = virtual @ table
        x = np.square(x, out=x).reshape(n_rf, m, n)
        for i in range(1, m):
            x[:, 0] += x[:, i]
        yield x[:, 0]


def sampled_consumption(waveform: Waveform, dma: DmaState | None,
                        array: ArraySpec, plan: FrequencyPlan,
                        hpa_gain: float, p_max: float, eta_max: float,
                        paper_sampling: bool = False) -> PowerReport:
    """Time-sampled total consumption plus the matching convex bound.

    Default sampling covers one fundamental period with enough points that
    squared-signal averages are exact; ``paper_sampling`` switches to a 1 ms
    window at exactly twice the highest tone. On both grids tone n is DFT bin
    ``p + n*q`` of the period, ``f1/delta_f = p/q`` (``plan.cycle_ratio()``),
    so sample phases are exact, and a window of ``laps * period + rest``
    samples sums ``sqrt(P_out)`` exactly as ``laps * sum_{k<period} +
    sum_{k<rest}``. The default grid is one period, summed plainly.
    """
    if array.architecture is Architecture.DMA and dma is None:
        raise ValueError("DMA architecture requires a DmaState")
    if paper_sampling:
        count, cycle = plan.nyquist_grid(duration=1e-3)[0], plan.nyquist_period()
    else:
        count = cycle = plan.quadrature_grid(degree=2)[0]
    period = min(cycle, count)
    laps, rest = divmod(count, period)
    n_rf, ratio = waveform.n_rf, plan.cycle_ratio()
    scales = chain_norm_scales(dma, n_rf, hpa_gain, p_max, eta_max)
    lap_sum, rest_sum, start = np.zeros(n_rf), np.zeros(n_rf), 0
    for p_out in _output_power_chunks(hpa_gain * waveform.omega,
                                      _virtual_coefficients(dma, n_rf), ratio.numerator,
                                      ratio.denominator, cycle, period):
        roots = np.sqrt(p_out, out=p_out)
        lap_sum += np.sum(roots, axis=1)
        rest_sum += np.sum(roots[:, :max(rest - start, 0)], axis=1)
        start += roots.shape[1]
    p_hpa = float(np.sqrt(p_max) / eta_max * np.sum(laps * lap_sum + rest_sum) / count)
    p_in = input_power(waveform)
    bound = float(scales @ np.linalg.norm(waveform.omega, axis=1))
    return PowerReport(p_in=p_in, p_hpa_sampled=p_hpa, p_hpa_bound=bound,
                       p_c_sampled=p_hpa + p_in)


@dataclass(frozen=True)
class Design:
    """A finished transmitter state and what is reported of it: each receiver's
    voltage and DC power, the sampled consumption and its bound. Its effective
    chain rows [M, n_f, n_rf] are built on first use, from ``channel`` if given."""

    scenario: ScenarioConfig
    waveform: Waveform
    dma: DmaState | None = None
    channel: ChannelTensor | None = None

    @functools.cached_property
    def rows(self) -> np.ndarray:
        sc = self.scenario
        channel = self.channel if self.channel is not None else build_channel(
            sc.array, sc.receivers, sc.frequency, sc.device.boresight_gain)
        return effective_rows(channel, sc.array, self.dma)

    def with_waveform(self, waveform: Waveform) -> "Design":
        """The same state with another waveform. It shares this design's rows,
        which do not depend on the waveform."""
        other = replace(self, waveform=waveform)
        vars(other)["rows"] = self.rows
        return other

    def voltages(self) -> np.ndarray:
        """Rectifier output voltage per receiver."""
        dev = self.scenario.device
        return np.array([harvested_voltage(rows, self.waveform.omega.T, dev.hpa_gain,
                                           dev.k2, dev.k4) for rows in self.rows])

    def p_dc(self) -> np.ndarray:
        """Harvested DC power per receiver."""
        return self.voltages() ** 2 / self.scenario.device.rect_load_resistance

    def report(self, paper_sampling: bool = False) -> PowerReport:
        """Sampled consumption and its bound (:func:`sampled_consumption`)."""
        sc, dev = self.scenario, self.scenario.device
        return sampled_consumption(self.waveform, self.dma, sc.array, sc.frequency,
                                   dev.hpa_gain, dev.hpa_saturation_power,
                                   dev.hpa_max_efficiency, paper_sampling=paper_sampling)
