import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptopt.channel import build_channel
from wptopt.scenario import MicrostripParams
from wptopt.transmitter import (DISK_TOL, LORENTZIAN_CENTER, LORENTZIAN_RADIUS,
                                DmaState, Waveform, effective_rows, element_rows,
                                expand_dma_weights, lorentzian_weight,
                                microstrip_response)

from conftest import make_scenario


def test_lorentzian_named_points():
    assert lorentzian_weight(np.pi / 2) == pytest.approx(1j)
    assert lorentzian_weight(3 * np.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert lorentzian_weight(0.0) == pytest.approx(0.5 + 0.5j)


def test_lorentzian_circle_identity(rng):
    phi = rng.uniform(0.0, 2 * np.pi, size=1_000_000)
    q = lorentzian_weight(phi)
    assert np.max(np.abs(np.abs(q - 0.5j) - 0.5)) < 1e-14


def test_microstrip_response_values():
    lam1 = 299_792_458.0 / 5.18e9
    assert microstrip_response(1, lam1 / 5, 0.356, 202.19) == pytest.approx(1.0)
    h2 = microstrip_response(2, lam1 / 5, 0.356, 202.19)
    assert abs(h2) == pytest.approx(0.99589, rel=1e-4)
    assert np.angle(h2) == pytest.approx(-2.3404, abs=1e-4)


def test_microstrip_lossless_line():
    h = microstrip_response(np.arange(1, 9), 0.01, 0.0, 200.0)
    assert np.allclose(np.abs(h), 1.0)


def test_microstrip_index_is_one_based():
    with pytest.raises(ValueError):
        microstrip_response(0, 0.01, 0.1, 100.0)


def test_dma_state_from_phases_properties():
    strip = MicrostripParams()
    phi = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(3, 8))
    dma = DmaState.from_phases(phi, 0.0578 / 5, strip)
    assert np.max(np.abs(dma.circle_distance())) < 1e-14
    mags = np.abs(dma.h)
    assert np.allclose(mags[:, 0], 1.0)
    assert np.all(np.diff(mags, axis=1) <= 1e-15)


def test_dma_with_weights_disk_check():
    strip = MicrostripParams()
    dma = DmaState.from_phases(np.zeros((1, 2)), 0.01, strip)
    inside = np.array([[0.2j, 0.4 + 0.4j]])
    updated = dma.with_weights(inside)
    assert np.allclose(updated.q, inside)
    with pytest.raises(ValueError):
        dma.with_weights(np.array([[1.2 + 0.0j, 0.0]]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n_v=st.integers(1, 8), n_h=st.integers(1, 16),
       phase_span=st.sampled_from([1.0, 2 * np.pi, 1e3]),
       overshoot_share=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_dma_weights_stay_in_their_disks(n_v, n_h, phase_span, overshoot_share, seed):
    """``from_phases`` puts every weight on the Lorentzian circle, whatever
    the phase. ``with_weights`` keeps the weights inside the disk, moves
    those within the tolerance outside it onto the circle, and rejects one
    beyond the tolerance."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-phase_span, phase_span, (n_v, n_h))
    dma = DmaState.from_phases(phi, 0.01, MicrostripParams())
    assert np.max(np.abs(dma.circle_distance())) <= 1e-15
    radius = LORENTZIAN_RADIUS * rng.uniform(0.0, 1.0, (n_v, n_h))
    over = rng.random((n_v, n_h)) < overshoot_share
    radius[over] = LORENTZIAN_RADIUS * (1.0 + DISK_TOL * rng.uniform(0.0, 1.0, over.sum()))
    q = LORENTZIAN_CENTER + radius * np.exp(1j * rng.uniform(0, 2 * np.pi, (n_v, n_h)))
    updated = dma.with_weights(q)
    assert np.all(updated.circle_distance() <= 1e-15)
    inside = np.abs(q - LORENTZIAN_CENTER) <= LORENTZIAN_RADIUS
    assert np.array_equal(updated.q[inside], q[inside])
    assert np.all(np.abs(updated.circle_distance()[~inside]) <= 1e-15)
    assert np.array_equal(updated.h, dma.h)
    q[rng.integers(n_v), rng.integers(n_h)] = LORENTZIAN_CENTER + LORENTZIAN_RADIUS * (
        1.0 + 2 * DISK_TOL)
    with pytest.raises(ValueError):
        dma.with_weights(q)


def test_expand_dma_weights_definition():
    wf = Waveform(np.array([[1.0 + 0j], [2.0j]]))
    out = expand_dma_weights(wf, 3)
    assert out.shape == (1, 6)
    assert np.allclose(out[0], [1, 1, 1, 2j, 2j, 2j])


def test_expand_dma_weights_identity_when_single_element():
    wf = Waveform(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
    out = expand_dma_weights(wf, 1)
    assert np.allclose(out, wf.omega.T)


def test_expand_dma_weights_replication_structure(rng):
    n_v, n_h, n_f = 3, 4, 2
    wf = Waveform(rng.normal(size=(n_v, n_f)) + 1j * rng.normal(size=(n_v, n_f)))
    out = expand_dma_weights(wf, n_h)
    for i in range(n_v):
        for l in range(n_h):
            assert np.allclose(out[:, i * n_h + l], wf.omega[i])


def test_expand_dma_weights_is_linear(rng):
    w1 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    w2 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    a = 0.7 - 0.2j
    lhs = expand_dma_weights(Waveform(a * w1 + w2), 4)
    rhs = a * expand_dma_weights(Waveform(w1), 4) + expand_dma_weights(Waveform(w2), 4)
    assert np.allclose(lhs, rhs)


def test_effective_rows_fd_is_raw_channel(tiny_fd):
    ch = build_channel(tiny_fd.array, tiny_fd.receivers, tiny_fd.frequency, 0.0)
    rows = effective_rows(ch, tiny_fd.array)
    assert np.allclose(rows[0, 0], ch.gamma[0, :, 0])


def test_effective_rows_dma_phase_rotation(tiny_dma):
    """q = j everywhere with a lossless line only rotates each entry: the
    element rows ``gamma * q * h`` are ``a_hat`` under a unit waveform times
    q = j, and each chain sums its elements' rotated coefficients."""
    arr = tiny_dma.array
    ch = build_channel(arr, tiny_dma.receivers, tiny_dma.frequency, 0.0)
    strip = MicrostripParams(attenuation=0.0, propagation=202.19)
    dma = DmaState.from_phases(np.full((arr.n_v, arr.n_h), np.pi / 2),
                               arr.inter_element_dx, strip)
    a_hat = element_rows(ch, dma, Waveform(np.ones((arr.n_v, tiny_dma.frequency.n_f))))
    gamma_rows = ch.gamma[0].T
    expected = gamma_rows * (1j * dma.h.reshape(-1))[None, :]
    assert np.allclose(1j * a_hat[0], expected)
    assert np.allclose(np.abs(a_hat[0]), np.abs(gamma_rows))
    n_f = tiny_dma.frequency.n_f
    assert np.allclose(effective_rows(ch, arr, dma)[0],
                       expected.reshape(n_f, arr.n_v, arr.n_h).sum(axis=2))


def test_effective_rows_equal_per_receiver_stack(rng):
    """Rows for all receivers at once are bitwise the rows, chain sums and
    focusing rows computed from a stack of per-receiver rows. The chain sums
    are bitwise equal only if the rows have the stack's memory layout."""
    receivers = ((0.0, 0.0, 1.5), (0.3, -0.2, 2.0), (-0.5, 0.1, 1.0))
    for arch, n_f in (("fd", 3), ("dma", 3), ("dma", 8)):
        cfg = make_scenario(arch, length=0.2, n_f=n_f, receivers=receivers)
        arr = cfg.array
        ch = build_channel(arr, cfg.receivers, cfg.frequency, 0.0)
        stacked = np.stack([ch.gamma[m].T for m in range(len(receivers))])
        if arch == "fd":
            rows = effective_rows(ch, arr)
            assert np.array_equal(rows, stacked)
            assert rows.flags.c_contiguous
            continue
        dma = DmaState.from_phases(rng.uniform(0, 2 * np.pi, (arr.n_v, arr.n_h)),
                                   arr.inter_element_dx, cfg.microstrip)
        wf = Waveform(rng.normal(size=(arr.n_v, n_f)) + 1j * rng.normal(size=(arr.n_v, n_f)))
        a = stacked * (dma.q * dma.h).reshape(-1)[None, None, :]
        assert np.array_equal(effective_rows(ch, arr, dma),
                              a.reshape(len(receivers), n_f, arr.n_v, arr.n_h).sum(axis=3))
        a_hat = (stacked * expand_dma_weights(wf, arr.n_h)[None, :, :]
                 * dma.h.reshape(-1)[None, None, :])
        assert np.array_equal(element_rows(ch, dma, wf), a_hat)


def test_effective_rows_zero_waveform_gives_zero_a_hat(tiny_dma):
    ch = build_channel(tiny_dma.array, tiny_dma.receivers, tiny_dma.frequency, 0.0)
    dma = DmaState.from_phases(np.zeros((tiny_dma.array.n_v, tiny_dma.array.n_h)),
                               tiny_dma.array.inter_element_dx, tiny_dma.microstrip)
    wf = Waveform.zeros(tiny_dma.array.n_v, tiny_dma.frequency.n_f)
    assert np.allclose(element_rows(ch, dma, wf), 0.0)


def test_received_spectrum_same_through_q_or_w_route(tiny_dma, rng):
    """The element rows ``gamma * q * h`` against ``w_bar`` equal
    ``a_hat . q`` and ``chain . omega``: the factorizations of the received
    signal agree on random instances."""
    arr = tiny_dma.array
    ch = build_channel(arr, tiny_dma.receivers, tiny_dma.frequency, 0.0)
    phi = rng.uniform(0, 2 * np.pi, size=(arr.n_v, arr.n_h))
    dma = DmaState.from_phases(phi, arr.inter_element_dx, tiny_dma.microstrip)
    wf = Waveform(rng.normal(size=(arr.n_v, tiny_dma.frequency.n_f))
                  + 1j * rng.normal(size=(arr.n_v, tiny_dma.frequency.n_f)))
    wbar = expand_dma_weights(wf, arr.n_h)
    a = ch.gamma[0].T * (dma.q * dma.h).reshape(-1)[None, :]
    s_via_w = np.sum(a * wbar, axis=1)
    s_via_q = element_rows(ch, dma, wf)[0] @ dma.q_flat()
    s_via_chain = np.sum(effective_rows(ch, arr, dma)[0] * wf.omega.T, axis=1)
    assert np.allclose(s_via_w, s_via_q)
    assert np.allclose(s_via_w, s_via_chain)


def test_effective_rows_dimension_checks(tiny_dma, tiny_fd):
    ch = build_channel(tiny_dma.array, tiny_dma.receivers, tiny_dma.frequency, 0.0)
    with pytest.raises(ValueError):
        effective_rows(ch, tiny_dma.array)  # DMA needs a state
    with pytest.raises(ValueError, match="element count"):
        effective_rows(ch, tiny_fd.array)  # a channel built for another array
    ch_fd = build_channel(tiny_fd.array, tiny_fd.receivers, tiny_fd.frequency, 0.0)
    dma = DmaState.from_phases(np.zeros((2, 2)), 0.01, MicrostripParams())
    with pytest.raises(ValueError):
        effective_rows(ch_fd, tiny_fd.array, dma)
    with pytest.raises(ValueError, match="DMA state"):
        element_rows(ch_fd, dma, Waveform.zeros(2, tiny_fd.frequency.n_f))
    dma = DmaState.from_phases(np.zeros((tiny_dma.array.n_v, tiny_dma.array.n_h)), 0.01,
                               MicrostripParams())
    with pytest.raises(ValueError, match="chain count"):
        element_rows(ch, dma, Waveform.zeros(tiny_dma.array.n_v + 1, tiny_dma.frequency.n_f))


def test_waveform_rejects_non_finite():
    with pytest.raises(ValueError):
        Waveform(np.array([[np.inf + 0j]]))
