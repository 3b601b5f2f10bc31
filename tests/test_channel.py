import math

import numpy as np
import pytest

from wptopt.channel import build_channel, cosine_profile, field_boundaries
from wptopt.oracle import channel_coefficient, radiation_profile
from wptopt.scenario import SPEED_OF_LIGHT, Architecture, build_array

from conftest import F1, make_scenario

LAM1 = SPEED_OF_LIGHT / F1


def test_radiation_profile_boresight():
    assert radiation_profile(0.0, 0.0) == pytest.approx(2.0)


def test_radiation_profile_back_hemisphere():
    assert radiation_profile(np.pi / 2 + 0.01, 0.0) == 0.0
    assert radiation_profile(np.pi / 2 + 0.01, 7.0) == 0.0
    assert radiation_profile(-0.01, 0.0) == 0.0


def test_radiation_profile_directive():
    # G_t = 4 at b = 1: 4*cos(pi/3)^1 = 2
    assert radiation_profile(np.pi / 3, 1.0) == pytest.approx(2.0)


def test_channel_coefficient_boresight_one_wavelength():
    lam = 0.06
    g = channel_coefficient([0.0, 0.0, 0.0], [0.0, 0.0, lam], lam, 0.0)
    assert abs(g) == pytest.approx(math.sqrt(2.0) / (4.0 * math.pi))
    assert math.remainder(np.angle(g), 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_channel_coefficient_behind_array_is_zero():
    g = channel_coefficient([0.0, 0.0, 0.0], [0.0, 0.0, -1.0], 0.06, 0.0)
    assert g == 0.0


def test_channel_coefficient_inverse_distance():
    lam = 0.06
    g1 = channel_coefficient([0, 0, 0], [0, 0, 1.0], lam, 0.0)
    g2 = channel_coefficient([0, 0, 0], [0, 0, 2.0], lam, 0.0)
    assert abs(g2) == pytest.approx(abs(g1) / 2.0)
    expected_phase = -2.0 * math.pi * 2.0 / lam
    assert math.remainder(np.angle(g2) - expected_phase, 2.0 * math.pi) \
        == pytest.approx(0.0, abs=1e-9)


def test_channel_coefficient_coincident_errors():
    with pytest.raises(ValueError):
        channel_coefficient([0, 0, 0], [0, 0, 0], 0.06)


def test_phase_periodicity_and_decay():
    lam = 0.0578
    d = 1.3
    g_near = channel_coefficient([0, 0, 0], [0, 0, d], lam)
    g_far = channel_coefficient([0, 0, 0], [0, 0, d + lam], lam)
    assert np.angle(g_near) == pytest.approx(np.angle(g_far), abs=1e-9)
    assert abs(g_far) < abs(g_near)


def test_gain_scales_linearly_in_wavelength():
    g1 = channel_coefficient([0, 0, 0], [0.2, 0.1, 1.0], 0.05)
    g2 = channel_coefficient([0, 0, 0], [0.2, 0.1, 1.0], 0.10)
    assert abs(g2) == pytest.approx(2.0 * abs(g1))


def test_build_channel_single_entry_matches_scalar(tiny_dma):
    ch = build_channel(tiny_dma.array, tiny_dma.receivers, tiny_dma.frequency, 0.0)
    lam = tiny_dma.frequency.wavelengths[0]
    direct = channel_coefficient(tiny_dma.array.element_positions[0, 0],
                                 tiny_dma.receivers[0].position, lam, 0.0)
    assert ch.gamma[0, 0, 0] == pytest.approx(direct)
    assert np.allclose(np.abs(ch.gamma), ch.gain)


def test_build_channel_is_zero_behind_the_array(tiny_dma):
    """A point behind the array plane sees no element, at any directivity."""
    for b in (0.0, 1.5):
        ch = build_channel(tiny_dma.array, [(0.1, 0.0, -0.5), (0.0, 0.0, 1.0)],
                           tiny_dma.frequency, b)
        assert np.all(ch.gamma[0] == 0.0) and np.all(ch.gain[0] == 0.0)
        assert np.all(ch.gain[1] > 0.0)


def test_build_channel_in_the_array_plane_at_zero_directivity(tiny_dma):
    """At b = 0 the pattern is the constant 2 over the front hemisphere, its
    rim ``cos(theta) = 0`` included: a point in the plane z = 0 sees every
    element with gain ``sqrt(2) * lambda / (4 pi d)``."""
    assert cosine_profile(0.0, 0.0) == 2.0
    arr = tiny_dma.array
    rx = np.array([1.0, 0.3, 0.0])
    ch = build_channel(arr, [rx], tiny_dma.frequency, 0.0)
    d = np.linalg.norm(rx - arr.element_positions.reshape(-1, 3), axis=1)
    want = math.sqrt(2.0) * tiny_dma.frequency.wavelengths / (4.0 * math.pi * d[:, None])
    assert np.allclose(ch.gain[0], want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("b", [0.0, 1.5, 4000.0])
def test_build_channel_matches_the_angle_form(tiny_dma, b):
    """Every entry of the tensor, which evaluates the pattern in ``dz/d``,
    agrees with the oracle's coefficient through ``theta = acos(dz/d)``,
    from boresight out to wide angles, and ``cos**4000`` underflows alike."""
    arr, plan = tiny_dma.array, tiny_dma.frequency
    receivers = [(0.0, 0.0, 2.2), (0.6, -0.4, 0.5), (3.0, 1.0, 0.2), (0.02, 0.01, 0.3)]
    ch = build_channel(arr, receivers, plan, b)
    elements = arr.element_positions.reshape(-1, 3)
    want = np.array([[[channel_coefficient(e, rx, lam, b) for lam in plan.wavelengths]
                      for e in elements] for rx in receivers])
    assert np.allclose(ch.gamma, want, rtol=1e-12, atol=0.0)
    assert np.allclose(ch.gain, np.abs(want), rtol=1e-12, atol=0.0)
    assert np.all((ch.gain == 0.0) == (np.abs(want) == 0.0))
    if b == 4000.0:
        assert np.any(ch.gain == 0.0) and np.any(ch.gain > 0.0)


def test_build_channel_mirror_symmetry():
    cfg = make_scenario("fd", length=0.10,
                        receivers=((0.4, 0.0, 1.5), (-0.4, 0.0, 1.5)))
    ch = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    # mirrored receivers see x-mirrored element patterns
    grid = ch.gamma.reshape(2, cfg.array.n_v, cfg.array.n_h, -1)
    assert np.allclose(grid[0], grid[1, :, ::-1], rtol=1e-12)


def test_build_channel_distance_bounds():
    cfg = make_scenario("fd", length=0.20, receivers=((0.0, 0.0, 2.2),))
    ch = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    lam = cfg.frequency.wavelengths
    half_diagonal = 0.2 * math.sqrt(2) / 2
    d_lo, d_hi = 2.2 - half_diagonal, 2.2 + half_diagonal
    amax = math.sqrt(2.0) * np.max(lam) / (4 * math.pi * d_lo)
    amin = np.min(lam) / (4 * math.pi * d_hi) * math.sqrt(
        radiation_profile(math.atan(half_diagonal / 2.2), 0.0))
    assert np.max(ch.gain) <= amax
    assert np.min(ch.gain) >= amin > 0


def test_field_boundaries_values():
    arr = build_array(Architecture.DMA, 0.30, F1)
    d_fs, d_fr = field_boundaries(arr, LAM1)
    assert d_fr == pytest.approx(6.22, rel=1e-3)
    assert d_fs == pytest.approx(0.412, rel=1e-2)


def test_field_boundaries_shrink_with_aperture():
    small = build_array(Architecture.FULLY_DIGITAL, LAM1 / 2, F1)
    d_fs, d_fr = field_boundaries(small, LAM1)
    big_fs, big_fr = field_boundaries(build_array(Architecture.FULLY_DIGITAL, 0.3, F1), LAM1)
    assert d_fs < big_fs and d_fr < big_fr


def test_field_boundaries_vanish_with_aperture():
    import dataclasses
    tiny = dataclasses.replace(build_array(Architecture.FULLY_DIGITAL, LAM1 / 2, F1),
                               antenna_length=1e-9)
    d_fs, d_fr = field_boundaries(tiny, LAM1)
    assert d_fs < 1e-6 and d_fr < 1e-6


def test_far_field_phase_limit():
    """Adjacent-element phase differences approach the planar-wavefront form
    far beyond the Fraunhofer distance."""
    arr = build_array(Architecture.FULLY_DIGITAL, 0.10, F1)
    _, d_fr = field_boundaries(arr, LAM1)
    d = 100.0 * d_fr
    direction = np.array([math.sin(0.5), 0.0, math.cos(0.5)])
    rx = d * direction
    pos = arr.element_positions.reshape(-1, 3)
    exact = -2 * math.pi / LAM1 * np.linalg.norm(rx - pos, axis=1)
    planar = -2 * math.pi / LAM1 * (d - pos @ direction)
    for k in range(len(pos) - 1):
        dp_exact = exact[k + 1] - exact[k]
        dp_planar = planar[k + 1] - planar[k]
        if abs(dp_planar) > 1e-6:
            assert abs(dp_exact - dp_planar) / max(abs(dp_planar), 1.0) <= 1e-3
