"""Transmitter power consumption: exact time-sampled model and its convex bound.

A class-B amplifier driven to instantaneous output power ``P_out(t)`` consumes
``sqrt(P_max * P_out(t)) / eta_bar``; the total consumption adds the digital
input power ``sum |omega|^2``. The optimization objective replaces the
time-average of the square root by the square root of the average (Jensen),
which separates per chain into ``scale_i * ||omega_i||``.
"""

from __future__ import annotations

import functools
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


def _chain_element_amplitudes(waveform: Waveform, dma: DmaState | None,
                              hpa_gain: float) -> np.ndarray:
    """Complex per-element tone amplitudes grouped by chain, [n_rf, n_el, n_f].

    The radiated signal of element (i, l) is ``sum_n Re{amp[i, l, n] *
    exp(j*2*pi*f_n*t)}``; fully-digital chains have a single element.
    """
    om = waveform.omega
    if dma is None:
        return hpa_gain * om[:, None, :]
    return hpa_gain * om[:, None, :] * (dma.q * dma.h)[:, :, None]


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


def _output_power_chunks(amps: np.ndarray, tones: np.ndarray, count: int,
                         step: float):
    """Per-chain instantaneous output power ``P_out[i, k]`` on the uniform grid
    ``t_k = k * step``, ``k < count``, yielded in blocks of ``_CHUNK`` samples.

    The phasors ``exp(2j*pi*f_n*j*step)`` of one block are tabulated once as
    the real matrix ``[cos; sin]``; each block rotates the amplitudes to its
    start time (n_f exponentials), so every sample is one column of a real
    matrix product. Samples run along the last axis to keep the per-chain
    reductions contiguous.
    """
    n_rf, n_el, n_f = amps.shape
    flat = amps.reshape(n_rf * n_el, n_f)
    arg = 2.0 * np.pi * np.outer(tones, np.arange(min(_CHUNK, count)) * step)
    table = np.concatenate([np.cos(arg), np.sin(arg)])  # [2 n_f, chunk]
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        a = flat * np.exp(2j * np.pi * tones * (start * step))
        # Re{a e^{jθ}} = Re a cos θ - Im a sin θ
        x = np.hstack([a.real, -a.imag]) @ table[:, :n]  # [n_rf n_el, n]
        x = x.reshape(n_rf, n_el, n)
        yield np.einsum("cek,cek->ck", x, x)


def sampled_output_means(waveform: Waveform, dma: DmaState | None,
                         plan: FrequencyPlan, hpa_gain: float) -> np.ndarray:
    """Exact per-chain time averages of the radiated power ``E{P_out,i}``.

    Discrete means over the default grid are exact for the squared signal, so
    the result equals the frequency-domain value ``sum_{l,n}(G^2/2)|w q h|^2``.
    """
    count, step = plan.quadrature_grid(degree=2)
    amps = _chain_element_amplitudes(waveform, dma, hpa_gain)
    chunks = _output_power_chunks(amps, plan.tones, count, step)
    return sum(p_out.sum(axis=1) for p_out in chunks) / count


def sampled_consumption(waveform: Waveform, dma: DmaState | None,
                        array: ArraySpec, plan: FrequencyPlan,
                        hpa_gain: float, p_max: float, eta_max: float,
                        paper_sampling: bool = False) -> PowerReport:
    """Time-sampled total consumption plus the matching convex bound.

    Default sampling covers one fundamental period with enough points that
    squared-signal averages are exact; ``paper_sampling`` switches to a 1 ms
    window at exactly twice the highest tone.

    Either window is folded onto one period of its sampled sequence. With
    ``count = laps * period + rest`` samples and a sequence that repeats every
    ``period`` samples, the window's sum of ``sqrt(P_out)`` is exactly
    ``laps * sum_{k<period} + sum_{k<rest}``, so at most ``period`` samples are
    evaluated. The default grid is one period (``laps = 1``, ``rest = 0``), so
    its value is the plain sum over the grid. On the paper grid the fold is
    exact but for the rounding of late sample phases (2e-11 relative on a
    10-million-sample window). Like the default grid, it takes ``f1/delta_f``
    to equal ``plan.cycle_ratio()``.
    """
    if array.architecture is Architecture.DMA and dma is None:
        raise ValueError("DMA architecture requires a DmaState")
    if paper_sampling:
        count, step = plan.nyquist_grid(duration=1e-3)
        period = min(plan.nyquist_period(), count)
    else:
        count, step = plan.quadrature_grid(degree=2)
        period = count
    laps, rest = divmod(count, period)
    amps = _chain_element_amplitudes(waveform, dma, hpa_gain)
    n_rf = amps.shape[0]
    lap_sum = np.zeros(n_rf)
    rest_sum = np.zeros(n_rf)
    start = 0
    for p_out in _output_power_chunks(amps, plan.tones, period, step):
        roots = np.sqrt(p_out, out=p_out)
        lap_sum += np.sum(roots, axis=1)
        rest_sum += np.sum(roots[:, :max(rest - start, 0)], axis=1)
        start += roots.shape[1]
    sqrt_sum = laps * lap_sum + rest_sum
    p_hpa = float(np.sqrt(p_max) / eta_max * np.sum(sqrt_sum) / count)
    p_in = input_power(waveform)
    scales = chain_norm_scales(dma, n_rf, hpa_gain, p_max, eta_max)
    bound = float(scales @ np.linalg.norm(waveform.omega, axis=1))
    return PowerReport(
        p_in=p_in,
        p_hpa_sampled=p_hpa,
        p_hpa_bound=bound,
        p_c_sampled=p_hpa + p_in,
    )


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
        return effective_rows(channel, sc.array, self.dma).chain

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
