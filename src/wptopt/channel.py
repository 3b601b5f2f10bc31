"""Near-field line-of-sight channel coefficients and field-region boundaries.

Pure geometry: every coefficient is ``A * exp(-j*2*pi*d/lambda)`` with the
amplitude set by the free-space spreading loss and the element radiation
profile. No fading, no multipath.

The profile has one formula, :func:`cosine_profile`, in ``cos(theta) =
dz/d``; ``build_channel`` and ``oracle.field_map`` both evaluate it, and
neither takes an angle. The theta-form pattern and the scalar coefficient
that the tests check the tensor against are ``oracle.radiation_profile``
and ``oracle.channel_coefficient``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import ArraySpec, FrequencyPlan, ReceiverSpec


def cosine_profile(cos_theta, boresight_gain: float = 0.0):
    """The front-hemisphere gain ``G_t * cos(theta)**(G_t/2 - 1)`` as a
    function of ``cos(theta) >= 0``."""
    gt = 2.0 * (boresight_gain + 1.0)
    return gt * cos_theta ** (gt / 2.0 - 1.0)


@dataclass(frozen=True)
class ChannelTensor:
    """All element-to-receiver coefficients, one per tone, in row order.

    ``gamma[m, k, n]`` is the coefficient between receiver m and element
    ``k = (i-1)*n_h + l`` at tone n; ``gain`` is the amplitude it was built
    from, equal to ``|gamma|`` up to rounding.
    """

    gamma: np.ndarray = field(repr=False)  # [M, N, n_f] complex
    gain: np.ndarray = field(repr=False)   # [M, N, n_f]

    @property
    def shape(self):
        return self.gamma.shape

    @property
    def n_receivers(self) -> int:
        return self.gamma.shape[0]

    def vector_norms(self) -> np.ndarray:
        """l2 norm of the per-receiver channel vector at each tone, [M, n_f]."""
        return np.sqrt(np.sum(self.gain ** 2, axis=1))


def build_channel(array: ArraySpec, receivers, plan: FrequencyPlan,
                  boresight_gain: float = 0.0) -> ChannelTensor:
    """Evaluate the full coefficient tensor for a validated scenario."""
    positions = np.array([np.asarray(r.position if isinstance(r, ReceiverSpec) else r,
                                     dtype=float) for r in receivers])
    delta = positions[:, None, :] - array.element_positions.reshape(-1, 3)[None, :, :]
    d = np.linalg.norm(delta, axis=-1)
    if np.min(d) <= 0.0:
        raise ValueError("receiver coincides with an array element")
    cos_theta = delta[..., 2] / d
    # zero gain behind the array
    profile = np.where(cos_theta >= 0.0,
                       cosine_profile(np.maximum(cos_theta, 0.0), boresight_gain), 0.0)
    lam = plan.wavelengths
    amp = np.sqrt(profile)[..., None] * lam / (4.0 * np.pi * d[..., None])
    # Real phase argument. Times 1/lam, not divided by lam: this rounds like
    # numpy's complex division, so the coefficients, and with them every
    # design and artifact hash, stay bit-identical to the complex form.
    gamma = np.exp(1j * (-2.0 * np.pi * d[..., None] * (1.0 / lam)))
    gamma *= amp
    for a in (gamma, amp):
        a.flags.writeable = False
    return ChannelTensor(gamma=gamma, gain=amp)


def field_boundaries(array: ArraySpec, wavelength: float) -> tuple[float, float]:
    """Fresnel and Fraunhofer distances ``(d_fs, d_fr)`` for the aperture.

    ``D`` is the diagonal of the nominal square aperture; the radiative
    near-field region is ``d_fs < d < d_fr``.
    """
    d_ap = array.aperture_diagonal
    d_fs = (d_ap ** 4 / (8.0 * wavelength)) ** (1.0 / 3.0)
    d_fr = 2.0 * d_ap ** 2 / wavelength
    return d_fs, d_fr
