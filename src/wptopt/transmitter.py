"""Transmit front end: digital tone weights, DMA element weights, effective rows.

The DMA element weight is constrained to the Lorentzian circle
``q = (j + exp(j*phi)) / 2`` and every element additionally sees the feed-line
response ``h = exp(-(l-1)*d_l*(alpha + j*beta))`` accumulated along its
microstrip. The "effective" channel row folds these into the raw coefficients
so that both architectures share one received-signal formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelTensor
from .scenario import Architecture, ArraySpec, MicrostripParams

LORENTZIAN_CENTER = 0.5j
LORENTZIAN_RADIUS = 0.5
DISK_TOL = 1e-7  # relative overshoot of the disk radius that with_weights projects back


@dataclass(frozen=True)
class Waveform:
    """Digital weights ``omega[i, n]``, one complex entry per RF chain and tone."""

    omega: np.ndarray = field(repr=False)  # [n_rf, n_f] complex

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=complex)
        if om.ndim != 2:
            raise ValueError("omega must be a 2-D [n_rf, n_f] array")
        if not np.all(np.isfinite(om.view(float))):
            raise ValueError("omega entries must be finite")
        om = np.ascontiguousarray(om)
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)

    @property
    def n_rf(self) -> int:
        return self.omega.shape[0]

    @property
    def n_f(self) -> int:
        return self.omega.shape[1]

    @classmethod
    def zeros(cls, n_rf: int, n_f: int) -> "Waveform":
        return cls(np.zeros((n_rf, n_f), dtype=complex))


def lorentzian_weight(phi):
    """Element frequency response for tuning phase ``phi``; lies on the circle
    of radius 1/2 centered at j/2."""
    return (1j + np.exp(1j * np.asarray(phi, dtype=float))) / 2.0


def microstrip_response(l_index, spacing: float, alpha: float, beta: float):
    """Feed-line response at the ``l``-th element (1-based) of a microstrip."""
    l_index = np.asarray(l_index)
    if np.any(l_index < 1):
        raise ValueError("element index along the microstrip is 1-based")
    return np.exp(-(l_index - 1) * spacing * (alpha + 1j * beta))


@dataclass(frozen=True)
class DmaState:
    """Element weights and fixed feed responses of a DMA.

    ``q`` equals ``lorentzian_weight(phi)`` when built from phases; states
    produced by the relaxed beam-focusing stage may lie strictly inside the
    Lorentzian disk. Every microstrip shares one feed-line response, so each
    row of ``h`` is the same.
    """

    q: np.ndarray = field(repr=False)    # [n_v, n_h] complex
    h: np.ndarray = field(repr=False)    # [n_v, n_h] complex

    @classmethod
    def from_phases(cls, phi: np.ndarray, spacing: float,
                    strip: MicrostripParams) -> "DmaState":
        """Build a circle-exact state from tuning phases; ``strip`` is the
        parameter set of every feed line."""
        phi = np.mod(np.asarray(phi, dtype=float), 2.0 * np.pi)
        n_v, n_h = phi.shape
        h_row = microstrip_response(np.arange(1, n_h + 1), spacing,
                                    strip.attenuation, strip.propagation)
        return cls._frozen(lorentzian_weight(phi), np.broadcast_to(h_row, (n_v, n_h)))

    @classmethod
    def _frozen(cls, q, h):
        arrs = []
        for a in (np.asarray(q, dtype=complex), np.asarray(h, dtype=complex)):
            a = np.ascontiguousarray(a)
            a.flags.writeable = False
            arrs.append(a)
        return cls(*arrs)

    def with_weights(self, q_new: np.ndarray) -> "DmaState":
        """Replace the element weights, e.g. with a beam-focusing step's result.

        Weights must lie within the Lorentzian disk up to a relative
        ``DISK_TOL``; a rounding-sized overshoot of the focusing step's rim
        points is projected back onto the boundary.
        """
        q_new = np.asarray(q_new, dtype=complex).reshape(self.q.shape)
        offset = q_new - LORENTZIAN_CENTER
        r = np.abs(offset)
        if np.any(r > LORENTZIAN_RADIUS * (1.0 + DISK_TOL)):
            raise ValueError("weight outside the Lorentzian disk")
        scale = np.minimum(1.0, LORENTZIAN_RADIUS / np.maximum(r, 1e-300))
        q_proj = LORENTZIAN_CENTER + offset * np.where(r > LORENTZIAN_RADIUS, scale, 1.0)
        return self._frozen(q_proj, self.h)

    def q_flat(self) -> np.ndarray:
        return self.q.reshape(-1)

    def circle_distance(self) -> np.ndarray:
        """|q - j/2| - 1/2 per element; zero on the Lorentzian circle."""
        return np.abs(self.q - LORENTZIAN_CENTER) - LORENTZIAN_RADIUS


def expand_dma_weights(waveform: Waveform, n_h: int) -> np.ndarray:
    """Replicate each microstrip's scalar weight across its ``n_h`` elements.

    Returns the stacked per-tone vectors, shape [n_f, N] with element order
    ``(i-1)*n_h + l``.
    """
    if n_h < 1:
        raise ValueError("n_h must be >= 1")
    return np.repeat(waveform.omega, n_h, axis=0).T.copy()


def effective_rows(channel: ChannelTensor, array: ArraySpec,
                   dma: DmaState | None = None) -> np.ndarray:
    """The chain rows [M, n_f, n_rf] of the current transmitter state: the
    received spectrum is ``s[m, n] = rows[m, n] @ omega[:, n]``.

    Fully digital: each element is its own chain and its row is the raw
    coefficient row. DMA: the element rows ``gamma * q * h`` are summed over
    the elements of each microstrip.
    """
    n_v, n_h = array.n_v, array.n_h
    m_count, n, n_f = channel.shape
    if n != array.n_elements:
        raise ValueError("channel tensor does not match the array's element count")
    gamma_rows = channel.gamma.transpose(0, 2, 1)  # [M, n_f, N], tones fastest
    if array.architecture is Architecture.FULLY_DIGITAL:
        if dma is not None:
            raise ValueError("fully-digital array takes no DMA state")
        return gamma_rows.copy()
    if dma is None:
        raise ValueError("DMA architecture requires a DmaState")
    if dma.q.shape != (n_v, n_h):
        raise ValueError("DMA state shape does not match the array")
    qh = (dma.q * dma.h).reshape(-1)
    return (gamma_rows * qh[None, None, :]).reshape(m_count, n_f, n_v, n_h).sum(axis=3)


def element_rows(channel: ChannelTensor, dma: DmaState, waveform: Waveform) -> np.ndarray:
    """The focusing stage's rows ``a_hat = gamma * w_bar * h`` [M, n_f, N],
    which multiply the element weight vector: ``s[m, n] = a_hat[m, n] @ q``."""
    n_v, n_h = dma.q.shape
    if channel.shape[1] != n_v * n_h:
        raise ValueError("channel tensor does not match the DMA state")
    if waveform.n_rf != n_v:
        raise ValueError("waveform chain count does not match the array")
    wbar = expand_dma_weights(waveform, n_h)  # [n_f, N]
    return channel.gamma.transpose(0, 2, 1) * wbar[None, :, :] * dma.h.reshape(-1)[None, None, :]
