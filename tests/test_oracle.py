import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptopt.channel import build_channel
from wptopt.oracle import (PlaneSpec, brute_force_small, closed_form_single,
                           field_map, synthesize_received)
from wptopt.optimize import run_sca_fd
from wptopt.power import hpa_bound_objective
from wptopt.rectenna import moment2, moment4, tone_amplitudes
from wptopt.scenario import FrequencyPlan
from wptopt.transmitter import LORENTZIAN_CENTER, Waveform, effective_rows

from conftest import make_scenario, single_element_fd


def _synthetic_scenario(n_f, ratio=6):
    """Small-f1/delta_f copy of the standard scenario so one signal period
    needs only a handful of samples; the identities under test are scale-free."""
    import dataclasses
    cfg = make_scenario("fd", length=0.10, n_f=n_f)
    plan = FrequencyPlan(ratio * 1e6, n_f, 1e6)
    return dataclasses.replace(cfg, frequency=plan)


def _rows(cfg):
    """Receiver 0's effective rows, [n_f, n_rf], of a fully-digital ``cfg``."""
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    return effective_rows(channel, cfg.array)[0]


def _received(cfg, wf):
    """The oracle's samples of receiver 0's signal under ``cfg``."""
    s = tone_amplitudes(_rows(cfg), wf.omega.T)
    return synthesize_received(cfg.frequency, cfg.device.hpa_gain, s)


def test_synthesize_single_tone_is_sinusoid(rng):
    cfg = _synthetic_scenario(1)
    wf = Waveform(np.full((cfg.array.rf_chain_count, 1), 0.3 + 0.1j))
    sig = _received(cfg, wf)
    s = tone_amplitudes(_rows(cfg), wf.omega.T)
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
        sig = _received(cfg, wf)
        m2 = moment2(_rows(cfg), wf.omega.T, cfg.device.hpa_gain)
        m4 = moment4(_rows(cfg), wf.omega.T, cfg.device.hpa_gain)
        assert sig.moment(2) == pytest.approx(m2, rel=1e-9)
        assert sig.moment(4) == pytest.approx(m4, rel=1e-8)


def _defining_sum(cfg, wf, period_cycles):
    """``G Re sum_n s_n e^{j2pi f_n t}`` sample by sample. ``f_n t_j`` is
    taken as the exact fraction ``period_cycles[n] * j / k`` of a turn."""
    s = tone_amplitudes(_rows(cfg), wf.omega.T)
    k, _ = cfg.frequency.quadrature_grid(degree=4)
    turns = np.array([[(b * j) % k for b in period_cycles] for j in range(k)]) / k
    return cfg.device.hpa_gain * np.real(np.exp(2j * np.pi * turns) @ s)


def test_synthesis_equals_the_defining_sum(rng):
    """The inverse-FFT samples equal the direct sum at every sample, on plans
    with q > 1 and on the 5.18 GHz, 8-tone plan. Tone n makes ``p + n q``
    cycles per period ``q/delta_f``, which the plan's own times and tones
    confirm."""
    import dataclasses
    import math
    plans = [FrequencyPlan(int(rng.choice([p for p in range(1, 40) if math.gcd(p, q) == 1]))
                           / q * 1e6, int(rng.integers(1, 17)), 1e6)
             for q in range(2, 8) for _ in range(6)]
    plans.append(make_scenario("fd", n_f=8).frequency)
    for plan in plans:
        cfg = dataclasses.replace(make_scenario("fd", length=0.10), frequency=plan)
        wf = Waveform(rng.normal(size=(cfg.array.rf_chain_count, plan.n_f))
                      + 1j * rng.normal(size=(cfg.array.rf_chain_count, plan.n_f)))
        ratio = plan.cycle_ratio()
        cycles = ratio.numerator + ratio.denominator * np.arange(plan.n_f)
        np.testing.assert_allclose(plan.tones * plan.fundamental_period(), cycles,
                                   rtol=1e-12)
        sig = _received(cfg, wf)
        k, step = plan.quadrature_grid(degree=4)
        assert sig.samples.shape == (k,) and sig.sample_rate == 1.0 / step
        assert ratio.denominator > 1 or plan.f1 == 5.18e9
        reference = _defining_sum(cfg, wf, cycles)
        peak = np.max(np.abs(reference))
        assert np.max(np.abs(sig.samples - reference)) <= 1e-12 * peak


def test_papr_grows_with_tone_count(rng):
    """Aligned multi-tone reception produces higher peaks than one tone."""
    paprs = []
    for n_f in (1, 4, 8):
        cfg = _synthetic_scenario(n_f, ratio=6)
        wf = Waveform(np.ones((cfg.array.rf_chain_count, n_f), dtype=complex))
        # align per-tone phases at the receiver for a coherent peak
        s = tone_amplitudes(_rows(cfg), wf.omega.T)
        aligned = wf.omega * np.exp(-1j * np.angle(s))[None, :]
        sig = _received(cfg, Waveform(aligned))
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


def _reference_map(cfg, wf, dma, fmap):
    """The map over the channel tensor: one probe receiver per cell."""
    arr, dev = cfg.array, cfg.device
    cells = np.array([[x, fmap.plane.y_offset, z] for z in fmap.zs for x in fmap.xs])
    ch = build_channel(arr, cells, cfg.frequency, dev.boresight_gain)
    s = np.einsum("mnc,cn->mn", effective_rows(ch, arr, dma), wf.omega)
    p_rf = dev.hpa_gain ** 2 / 2.0 * np.sum(np.abs(s) ** 2, axis=1)
    loss = np.mean(ch.gain[:, :, 0] ** 2, axis=1)
    return (p_rf / loss).reshape(len(fmap.zs), len(fmap.xs))


def test_field_map_rows_equal_whole_grid(tiny_dma, rng):
    """The map, evaluated in chunks of cells, equals one channel-tensor
    evaluation over every cell of the plane."""
    from wptopt.transmitter import DmaState
    arr, plan = tiny_dma.array, tiny_dma.frequency
    dma = DmaState.from_phases(rng.uniform(0, 2 * np.pi, (arr.n_v, arr.n_h)),
                               arr.inter_element_dx, tiny_dma.microstrip)
    wf = Waveform(rng.normal(size=(arr.n_v, plan.n_f))
                  + 1j * rng.normal(size=(arr.n_v, plan.n_f)))
    plane = PlaneSpec(-0.6, 0.5, 0.3, 1.4, 0.1)
    fmap = field_map(tiny_dma, wf, dma, plane)
    whole = _reference_map(tiny_dma, wf, dma, fmap)
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
    for bad in (dict(resolution=np.nan), dict(x_max=np.inf), dict(z_min=np.nan),
                dict(y_offset=-np.inf)):
        with pytest.raises(ValueError, match="finite"):
            PlaneSpec(**{**dict(x_min=-1.0, x_max=1.0, z_min=0.5, z_max=2.0,
                                resolution=0.1), **bad}).grid()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(arch=st.sampled_from(["dma", "fd"]), length=st.sampled_from([0.1, 0.2]),
       n_f=st.sampled_from([1, 2, 3, 8, 16]), seed=st.integers(0, 2 ** 32 - 1),
       y_offset=st.floats(-0.4, 0.4), cells_per_chunk=st.sampled_from([5, 7, 25, None]),
       boresight_gain=st.sampled_from([0.0, 1.5]))
def test_field_map_matches_channel_tensor(arch, length, n_f, seed, y_offset,
                                          cells_per_chunk, boresight_gain):
    """The tone recurrence agrees with the channel tensor cell by cell. The
    plane's 156 cells leave a partial last chunk at every chunk size drawn
    (``None``: the default, one chunk)."""
    from unittest import mock

    from wptopt import oracle
    from wptopt.transmitter import DmaState
    rng = np.random.default_rng(seed)
    cfg = make_scenario(arch, length=length, n_f=n_f, boresight_gain=boresight_gain)
    arr = cfg.array
    wf = Waveform(rng.normal(size=(arr.rf_chain_count, n_f))
                  + 1j * rng.normal(size=(arr.rf_chain_count, n_f)))
    dma = None
    if arch == "dma":
        dma = DmaState.from_phases(rng.uniform(0, 2 * np.pi, (arr.n_v, arr.n_h)),
                                   arr.inter_element_dx, cfg.microstrip)
        dma = dma.with_weights(LORENTZIAN_CENTER + rng.uniform(0, 0.5, dma.q.shape)
                               * (dma.q - LORENTZIAN_CENTER))
    plane = PlaneSpec(-0.9, 0.8, 0.3, 2.1, 0.15, y_offset=y_offset)
    # chunks count cell-column pairs; elements that see every cell alike share a column
    columns = len({(x, (y_offset - y) ** 2, z)
                   for x, y, z in arr.element_positions.reshape(-1, 3).tolist()})
    budget = oracle.MAP_CHUNK if cells_per_chunk is None else cells_per_chunk * columns
    with mock.patch.object(oracle, "MAP_CHUNK", budget):
        fmap = field_map(cfg, wf, dma, plane)
    assert fmap.values.shape == (13, 12)
    np.testing.assert_allclose(fmap.values, _reference_map(cfg, wf, dma, fmap),
                               rtol=1e-10, atol=0)


@pytest.mark.parametrize("arch, length, columns_on_plane", [
    ("dma", 0.10, 16), ("dma", 0.20, 51), ("fd", 0.10, 6)])
def test_field_map_folds_mirrored_elements_on_the_symmetry_plane(arch, length,
                                                                 columns_on_plane, rng):
    """On the array's symmetry plane y = 0, mirrored elements share one
    column of phasors, and the map still equals the channel tensor's. Off
    the plane no two elements see the cells alike, and nothing folds."""
    from unittest import mock

    from wptopt import oracle
    from wptopt.transmitter import DmaState
    cfg = make_scenario(arch, length=length, n_f=3)
    arr = cfg.array
    wf = Waveform(rng.normal(size=(arr.rf_chain_count, 3))
                  + 1j * rng.normal(size=(arr.rf_chain_count, 3)))
    dma = None
    if arch == "dma":
        dma = DmaState.from_phases(rng.uniform(0, 2 * np.pi, (arr.n_v, arr.n_h)),
                                   arr.inter_element_dx, cfg.microstrip)
    columns = []

    def recording(amplitude, cycles):
        columns.append(cycles.shape[-1])
        return phasors(amplitude, cycles)

    phasors = oracle._phasors
    for y_offset, expected in ((0.0, columns_on_plane), (0.13, arr.n_elements)):
        columns.clear()
        plane = PlaneSpec(-0.9, 0.8, 0.3, 2.1, 0.15, y_offset=y_offset)
        with mock.patch.object(oracle, "_phasors", recording):
            fmap = field_map(cfg, wf, dma, plane)
        assert set(columns) == {expected}
        np.testing.assert_allclose(fmap.values, _reference_map(cfg, wf, dma, fmap),
                                   rtol=1e-10, atol=0)
    assert columns_on_plane < arr.n_elements


@pytest.mark.parametrize("arch", ["dma", "fd"])
def test_field_map_is_bitwise_the_same_for_every_block_budget(arch, rng):
    """Blocks of part of a z row, of one row, of several rows and of the
    whole plane give bitwise the same map: every cell's distances, phasors
    and sums are the same operations in the same order. That includes a
    budget below two cells and a split row that would leave one cell over
    (11 of 12): no block of a wider plane holds a single cell, whose tone
    sum would be a dot product, summed in another order than a
    matrix-vector product. On a plane one cell wide every block is a
    column of such cells, whatever its budget."""
    from unittest import mock

    from wptopt import oracle
    from wptopt.transmitter import DmaState
    cfg = make_scenario(arch, length=0.10, n_f=3)
    arr = cfg.array
    wf = Waveform(rng.normal(size=(arr.rf_chain_count, 3))
                  + 1j * rng.normal(size=(arr.rf_chain_count, 3)))
    dma = None
    if arch == "dma":
        dma = DmaState.from_phases(rng.uniform(0, 2 * np.pi, (arr.n_v, arr.n_h)),
                                   arr.inter_element_dx, cfg.microstrip)
    columns = arr.n_elements                  # off the symmetry plane nothing folds
    for x_max, width, budgets in ((0.8, 12, (1, 5, 11, 12, 12 * 4, 13 * 12, 1 << 30)),
                                  (-0.9, 1, (1, 2, 5, 13, 1 << 30))):
        plane = PlaneSpec(-0.9, x_max, 0.3, 2.1, 0.15, y_offset=0.05)
        maps = []
        for cells in budgets:
            with mock.patch.object(oracle, "MAP_CHUNK", cells * columns):
                maps.append(field_map(cfg, wf, dma, plane).values)
        assert maps[0].shape == (13, width)
        for values in maps[1:]:
            assert np.array_equal(values, maps[0])


def test_field_map_builds_no_channel_tensor(tiny_dma, rng, monkeypatch):
    import sys

    from wptopt import channel, transmitter
    from wptopt.transmitter import DmaState
    calls = []
    for fn in (channel.build_channel, transmitter.effective_rows):
        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.startswith("wptopt") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    arr = tiny_dma.array
    dma = DmaState.from_phases(rng.uniform(0, 2 * np.pi, (arr.n_v, arr.n_h)),
                               arr.inter_element_dx, tiny_dma.microstrip)
    wf = Waveform(np.ones((arr.n_v, tiny_dma.frequency.n_f), dtype=complex))
    field_map(tiny_dma, wf, dma, PlaneSpec(-0.5, 0.5, 0.5, 1.5, 0.1))
    assert calls == []
    from wptopt import oracle                      # the counters see the oracle's calls
    oracle.effective_rows(oracle.build_channel(arr, tiny_dma.receivers,
                                               tiny_dma.frequency, 0.0), arr, dma)
    assert calls == ["build_channel", "effective_rows"]


def test_field_map_csv_bytes(tmp_path):
    """The CSV writer formats Python floats; its bytes equal formatting each
    numpy value."""
    from wptopt.oracle import FieldMap
    values = np.array([[0.0, 1e-300, 1e300, 5e-324],
                       [1.2345678901234567, 2.0 / 3.0, 1e-5, 123456789.0],
                       [np.nextafter(1.0, 2.0), 9.9999999995e-3, 0.5, 7.0]])
    fmap = FieldMap(PlaneSpec(-0.3, 0.0, 0.5, 0.7, 0.1), xs=np.array([-0.3, -0.2, -0.1, 0.0]),
                    zs=np.array([0.5, 0.6, 0.7]), values=values)
    fmap.to_csv(tmp_path / "map.csv")
    header = "x/z," + ",".join(f"{x:.6g}" for x in fmap.xs)
    rows = [f"{z:.6g}," + ",".join(f"{v:.9e}" for v in row)
            for z, row in zip(fmap.zs, fmap.values)]
    expected = header + "\n" + "\n".join(rows) + "\n"
    assert "0.000000000e+00" in expected and "1.000000000e+300" in expected
    assert (tmp_path / "map.csv").read_bytes() == expected.encode()


def _reference_csv(fmap) -> str:
    """The CSV as Python's ``%`` formats every row, the writer that
    ``FieldMap.to_csv`` must equal byte for byte."""
    header = "x/z," + ",".join(f"{x:.6g}" for x in fmap.xs)
    row_format = "%.6g," + ",".join(["%.9e"] * len(fmap.xs))
    rows = [row_format % (z, *row) for z, row in zip(fmap.zs.tolist(), fmap.values.tolist())]
    return header + "\n" + "\n".join(rows) + "\n"


def _check_scientific(values) -> np.ndarray:
    """Format ``values`` one per row; every text marked exact must be
    Python's ``'%.9e'``. Returns where the texts are exact."""
    from wptopt.oracle import _scientific
    values = np.asarray(values, dtype=float)
    text, exact = _scientific(values.reshape(-1, 1))
    assert text.shape == (len(values), 1, 16) and exact.shape == (len(values),)
    for v, line, ok in zip(values.tolist(), text[:, 0], exact):
        if ok:
            assert line.tobytes().decode("ascii") == "%.9e," % v, repr(v)
    return exact


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       floats=st.lists(st.floats(1e-14, 1e33), max_size=64))
def test_scientific_texts_are_pythons(bits, floats):
    """Any float64 bit pattern, and any value in the range the exact path
    takes, is either formatted exactly as ``'%.9e'`` or marked for Python."""
    values = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), floats])
    _check_scientific(values)


def test_scientific_on_the_edges_of_its_exact_path():
    """Each class of the exact path's rule, powers of ten 1-3 ulps either
    side, ten-digit ties and their neighbours, and mantissas that carry into
    the exponent."""
    def ulps(x, n):
        for _ in range(abs(n)):
            x = np.nextafter(x, np.inf if n > 0 else -np.inf)
        return x

    powers = [ulps(10.0 ** p, n) for p in range(-16, 36) for n in (-3, -2, -1, 0, 1, 2, 3)]
    ties = [(n + 0.5) * 10.0 ** j for n in (1_000_000_000, 1_234_567_890, 9_999_999_999)
            for j in range(-3, 10)]                  # exactly half way when j >= 0
    ties += [np.nextafter(t, d) for t in ties for d in (0.0, np.inf)]
    carries = [9.9999999995e-3, 9.99999999949e-3, 9.9999999996e-3, 9.99999999996e31,
               1e-13, 0.99999999995, 9.9999999995]
    exact = _check_scientific(powers + ties + carries)
    assert exact[:len(powers)].sum() > len(powers) // 2
    # not exact: signs, non-finite values, subnormals, |k| > 22, exact ties and their neighbours
    never = [-1.5, -0.0, -1e-5, np.nan, np.inf, -np.inf, 5e-324, 2.2e-308, 1e-300,
             9.99e-15, 1e33, 1e300, 1.7976931348623157e308, 1_234_567_890.5, 12_345_678_905.0,
             np.nextafter(1_234_567_890.5, 0.0), np.nextafter(1_234_567_890.5, np.inf)]
    assert not _check_scientific(never).any()
    always = [0.0, 1.0, 0.1, 2.0 / 3.0, 123.456, 1.2345678901234567, 1e-13, 9.99999999949e-3,
              9.9999999996e-3, 9.9999999996e31, 0.012350705626718974, 1.7292965872136437]
    assert _check_scientific(always).all()
    texts = {v: "%.9e" % v for v in (0.0, 9.9999999996e-3, 9.99999999949e-3)}
    assert texts == {0.0: "0.000000000e+00", 9.9999999996e-3: "1.000000000e-02",
                     9.99999999949e-3: "9.999999999e-03"}


@pytest.mark.parametrize("shape", [(13, 12), (7, 1), (1, 30), (40, 151)])
def test_field_map_csv_is_the_python_writers(tmp_path, rng, shape):
    """``to_csv`` writes the bytes of Python's ``%`` row format on random
    maps whose values span the exact path's range, with about a third of
    the rows holding a value it leaves to Python, whether the values are
    formatted in one block or in blocks of 7 that split rows."""
    from unittest import mock

    from wptopt import oracle
    from wptopt.oracle import FieldMap, _scientific
    for trial in range(6):
        values = 10.0 ** rng.uniform(-13, 31, size=shape)
        values[rng.random(shape) < 0.05] = 0.0
        odd = rng.random(shape[0]) < 0.3          # rows with one value left to Python
        values[odd, rng.integers(0, shape[1], int(odd.sum()))] = rng.choice(
            [-0.0, -2.5, np.nan, np.inf, 5e-324, 1e-14, 1e300, 1_234_567_890.5],
            size=int(odd.sum()))
        xs = np.round(rng.uniform(-2, 2, shape[1]), 3)
        zs = np.round(rng.uniform(0.2, 4, shape[0]), 3)
        fmap = FieldMap(PlaneSpec(-2.0, 2.0, 0.2, 4.0, 0.1), xs=xs, zs=zs, values=values)
        with mock.patch.object(oracle, "FORMAT_CHUNK", 7 if trial % 2 else oracle.FORMAT_CHUNK):
            fmap.to_csv(tmp_path / "map.csv")
        assert (tmp_path / "map.csv").read_bytes() == _reference_csv(fmap).encode()
    if shape[0] > 10:   # both writers' rows ran
        exact = _scientific(values)[1]
        assert exact.any() and not exact.all()
