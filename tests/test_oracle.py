import numpy as np
import pytest

from wptopt.channel import build_channel
from wptopt.oracle import (PlaneSpec, brute_force_small, closed_form_single,
                           field_map, synthesize_received)
from wptopt.optimize import run_sca_fd
from wptopt.power import hpa_bound_objective
from wptopt.rectenna import moment2, moment4, tone_amplitudes
from wptopt.scenario import FrequencyPlan
from wptopt.transmitter import Waveform, effective_rows

from conftest import make_scenario, single_element_fd


def _synthetic_scenario(n_f, ratio=6):
    """Small-f1/delta_f copy of the standard scenario so one signal period
    needs only a handful of samples; the identities under test are scale-free."""
    import dataclasses
    cfg = make_scenario("fd", length=0.10, n_f=n_f)
    plan = FrequencyPlan(ratio * 1e6, n_f, 1e6)
    return dataclasses.replace(cfg, frequency=plan)


def test_synthesize_single_tone_is_sinusoid(rng):
    cfg = _synthetic_scenario(1)
    wf = Waveform(np.full((cfg.array.rf_chain_count, 1), 0.3 + 0.1j))
    sig = synthesize_received(cfg, wf, None, 0)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    eff = effective_rows(channel, cfg.array)
    s = tone_amplitudes(eff.chain[0], wf.omega.T)
    amp = abs(s[0]) * cfg.device.hpa_gain
    # sampled peak undershoots the continuous peak on a coarse grid
    assert np.max(sig.samples) == pytest.approx(amp, rel=2e-2)
    assert np.mean(sig.samples ** 2) == pytest.approx(amp ** 2 / 2.0, rel=1e-12)
    assert sig.papr() == pytest.approx(2.0, rel=3e-2)


def test_synthesized_moments_match_spectral(rng):
    for trial in range(10):
        n_f = int(rng.integers(1, 4))
        cfg = _synthetic_scenario(n_f, ratio=int(rng.integers(3, 9)))
        wf = Waveform(rng.normal(size=(cfg.array.rf_chain_count, n_f))
                      + 1j * rng.normal(size=(cfg.array.rf_chain_count, n_f)))
        sig = synthesize_received(cfg, wf, None, 0)
        channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
        eff = effective_rows(channel, cfg.array)
        m2 = moment2(eff.chain[0], wf.omega.T, cfg.device.hpa_gain)
        m4 = moment4(eff.chain[0], wf.omega.T, cfg.device.hpa_gain)
        assert sig.moment(2) == pytest.approx(m2, rel=1e-9)
        assert sig.moment(4) == pytest.approx(m4, rel=1e-8)


def test_papr_grows_with_tone_count(rng):
    """Aligned multi-tone reception produces higher peaks than one tone."""
    paprs = []
    for n_f in (1, 4, 8):
        cfg = _synthetic_scenario(n_f, ratio=6)
        wf = Waveform(np.ones((cfg.array.rf_chain_count, n_f), dtype=complex))
        # align per-tone phases at the receiver for a coherent peak
        channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
        eff = effective_rows(channel, cfg.array)
        s = tone_amplitudes(eff.chain[0], wf.omega.T)
        aligned = wf.omega * np.exp(-1j * np.angle(s))[None, :]
        sig = synthesize_received(cfg, Waveform(aligned), None, 0)
        paprs.append(sig.papr())
    assert paprs[0] == pytest.approx(2.0, rel=3e-2)
    assert paprs[1] > paprs[0] and paprs[2] > paprs[1]


def test_brute_force_matches_closed_form():
    cfg = single_element_fd()
    result = brute_force_small(cfg, n_samples=200_000, seed=1)
    assert result.feasible_found
    w_opt, _ = closed_form_single(cfg)
    dev = cfg.device
    expected_bound = hpa_bound_objective(
        Waveform(np.array([[w_opt + 0j]])), None, dev.hpa_gain,
        dev.hpa_saturation_power, dev.hpa_max_efficiency)
    # 2e5 log-uniform amplitude draws resolve the 1-D optimum to ~0.1%
    assert result.best_objective == pytest.approx(expected_bound, rel=1e-3)
    assert result.best_objective >= expected_bound - 1e-9


def test_sca_beats_brute_force_two_element_toy(rng):
    """Hand-built 2-element fully-digital toy: the converged restriction
    result is at least as good as a dense random search (0.5% band)."""
    import dataclasses

    from wptopt.scenario import ArraySpec, Architecture, FrequencyPlan, \
        ReceiverSpec
    lam1 = 299_792_458.0 / 5.18e9
    pos = np.zeros((1, 2, 3))
    pos[0, 1, 0] = lam1 / 2.0
    pos.flags.writeable = False
    array = ArraySpec(Architecture.FULLY_DIGITAL, lam1, 1, 2,
                      lam1 / 2, lam1 / 2, pos)
    base = single_element_fd()
    cfg = dataclasses.replace(
        base, array=array,
        receivers=(ReceiverSpec(np.array([0.2, 0.1, 1.0]), 20e-6),))
    cfg = cfg.with_solver(max_sca_iters=40)
    cfg.validate()
    w, _ = run_sca_fd(cfg)
    dev = cfg.device
    sca_obj = hpa_bound_objective(w, None, dev.hpa_gain,
                                  dev.hpa_saturation_power,
                                  dev.hpa_max_efficiency)
    result = brute_force_small(cfg, n_samples=300_000, seed=3)
    assert result.feasible_found
    assert sca_obj <= result.best_objective * (1.0 + 0.005)


def test_unmeetable_target_raises_in_optimizer():
    from wptopt.optimize import UnmeetableRequirementError
    cfg = single_element_fd(distance=1e8)
    with pytest.raises(UnmeetableRequirementError):
        run_sca_fd(cfg)


def test_brute_force_bounds_sca_result():
    cfg = single_element_fd().with_solver(max_sca_iters=40)
    w, _ = run_sca_fd(cfg)
    dev = cfg.device
    sca_obj = hpa_bound_objective(w, None, dev.hpa_gain,
                                  dev.hpa_saturation_power,
                                  dev.hpa_max_efficiency)
    result = brute_force_small(cfg, n_samples=100_000, seed=2)
    assert sca_obj <= result.best_objective * (1.0 + 0.005)


def test_brute_force_rejects_large_instances(tiny_fd):
    with pytest.raises(ValueError):
        brute_force_small(tiny_fd)


def test_brute_force_infeasible_when_unreachable():
    cfg = single_element_fd(distance=1e8)
    result = brute_force_small(cfg, n_samples=5_000, seed=0)
    assert not result.feasible_found


def test_field_map_zero_waveform(tiny_dma):
    from wptopt.transmitter import DmaState
    dma = DmaState.from_phases(
        np.zeros((tiny_dma.array.n_v, tiny_dma.array.n_h)),
        tiny_dma.array.inter_element_dx, tiny_dma.microstrip)
    wf = Waveform.zeros(tiny_dma.array.n_v, tiny_dma.frequency.n_f)
    plane = PlaneSpec(-0.5, 0.5, 0.5, 1.5, 0.25)
    fmap = field_map(tiny_dma, wf, dma, plane)
    assert np.all(fmap.values == 0.0)


def test_field_map_values_nonnegative_and_shape(tiny_fd, rng):
    wf = Waveform(rng.normal(size=(tiny_fd.array.rf_chain_count, 2))
                  + 1j * rng.normal(size=(tiny_fd.array.rf_chain_count, 2)))
    plane = PlaneSpec(-0.4, 0.4, 0.4, 1.2, 0.2)
    fmap = field_map(tiny_fd, wf, None, plane)
    assert fmap.values.shape == (len(fmap.zs), len(fmap.xs))
    assert np.all(fmap.values >= 0.0)


def test_field_map_rows_equal_whole_grid(tiny_dma, rng):
    """The map evaluated one grid row at a time equals one evaluation over
    every cell of the plane."""
    from wptopt.transmitter import DmaState
    arr, plan, dev = tiny_dma.array, tiny_dma.frequency, tiny_dma.device
    dma = DmaState.from_phases(rng.uniform(0, 2 * np.pi, (arr.n_v, arr.n_h)),
                               arr.inter_element_dx, tiny_dma.microstrip)
    wf = Waveform(rng.normal(size=(arr.n_v, plan.n_f))
                  + 1j * rng.normal(size=(arr.n_v, plan.n_f)))
    plane = PlaneSpec(-0.6, 0.5, 0.3, 1.4, 0.1)
    fmap = field_map(tiny_dma, wf, dma, plane)
    cells = np.array([[x, plane.y_offset, z] for z in fmap.zs for x in fmap.xs])
    ch = build_channel(arr, cells, plan, dev.boresight_gain)
    s = np.einsum("mnc,cn->mn", effective_rows(ch, arr, dma).chain, wf.omega)
    p_rf = dev.hpa_gain ** 2 / 2.0 * np.sum(np.abs(s) ** 2, axis=1)
    loss = np.mean(ch.gain[:, :, :, 0].reshape(arr.n_elements, len(cells)) ** 2, axis=0)
    whole = (p_rf / loss).reshape(len(fmap.zs), len(fmap.xs))
    assert fmap.values.shape == whole.shape == (12, 12)
    np.testing.assert_allclose(fmap.values, whole, rtol=1e-13, atol=0)


def test_field_map_csv(tmp_path, tiny_fd, rng):
    wf = Waveform(rng.normal(size=(tiny_fd.array.rf_chain_count, 2))
                  + 1j * rng.normal(size=(tiny_fd.array.rf_chain_count, 2)))
    plane = PlaneSpec(-0.2, 0.2, 0.4, 0.8, 0.2)
    fmap = field_map(tiny_fd, wf, None, plane)
    fmap.to_csv(tmp_path / "map.csv")
    lines = (tmp_path / "map.csv").read_text().splitlines()
    assert len(lines) == len(fmap.zs) + 1


def test_plane_spec_validation():
    with pytest.raises(ValueError):
        PlaneSpec(-1.0, 1.0, 0.5, 2.0, 0.0).grid()      # zero resolution
    with pytest.raises(ValueError):
        PlaneSpec(-1.0, 1.0, -0.5, 2.0, 0.1).grid()     # behind the array
    with pytest.raises(ValueError):
        PlaneSpec(1.0, -1.0, 0.5, 2.0, 0.1).grid()      # empty extent
