import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptopt import power
from wptopt.channel import build_channel
from wptopt.power import (Design, chain_norm_scales, hpa_bound_objective, input_power,
                          sampled_consumption)
from wptopt.rectenna import harvested_voltage
from wptopt.scenario import Architecture, FrequencyPlan, MicrostripParams
from wptopt.transmitter import DmaState, Waveform, effective_rows

from conftest import make_scenario, synthetic_plan


def random_dma_state(rng, n_v, n_h, spacing=0.0115):
    phi = rng.uniform(0, 2 * np.pi, size=(n_v, n_h))
    return DmaState.from_phases(phi, spacing, MicrostripParams())


def chain_element_amplitudes(waveform, dma, hpa_gain):
    """Complex per-element tone amplitudes grouped by chain, [n_rf, n_el, n_f]:
    element (i, l) radiates ``sum_n Re{amp[i, l, n] exp(j 2 pi f_n t)}``; a
    fully-digital chain has one element."""
    om = waveform.omega
    if dma is None:
        return hpa_gain * om[:, None, :]
    return hpa_gain * om[:, None, :] * (dma.q * dma.h)[:, :, None]


def element_output_power_chunks(amps, tones, count, step):
    """Per-element reference of ``power._output_power_chunks``: ``P_out[i, k]``
    on ``t_k = k * step`` in blocks of ``power._CHUNK`` samples, each element's
    signal one column of ``[Re a, -Im a] @ [cos; sin]`` of a tabulated block."""
    n_rf, n_el, n_f = amps.shape
    flat = amps.reshape(n_rf * n_el, n_f)
    arg = 2.0 * np.pi * np.outer(tones, np.arange(min(power._CHUNK, count)) * step)
    table = np.concatenate([np.cos(arg), np.sin(arg)])  # [2 n_f, chunk]
    for start in range(0, count, power._CHUNK):
        n = min(power._CHUNK, count - start)
        a = flat * np.exp(2j * np.pi * tones * (start * step))
        x = (np.hstack([a.real, -a.imag]) @ table[:, :n]).reshape(n_rf, n_el, n)
        yield np.einsum("cek,cek->ck", x, x)


def sampled_output_means(waveform, dma, plan, hpa_gain):
    """Per-chain time averages of the radiated power ``E{P_out,i}`` over the
    default grid, on which they are exact."""
    count, step = plan.quadrature_grid(degree=2)
    amps = chain_element_amplitudes(waveform, dma, hpa_gain)
    chunks = element_output_power_chunks(amps, plan.tones, count, step)
    return sum(p_out.sum(axis=1) for p_out in chunks) / count


def kernel_chunks(wf, dma, plan, g, count, cycle):
    """``power._output_power_chunks`` for ``wf``, ``dma`` and gain ``g`` over
    ``count`` samples of a ``cycle``-sample period."""
    ratio = plan.cycle_ratio()
    return power._output_power_chunks(g * wf.omega, power._virtual_coefficients(dma, wf.n_rf),
                                      ratio.numerator, ratio.denominator, cycle, count)


def kernel_output_power(wf, dma, plan, g, count, cycle):
    """The kernel's blocks joined into one [n_rf, count] array."""
    return np.concatenate(list(kernel_chunks(wf, dma, plan, g, count, cycle)), axis=1)


def exact_phase_signals(amps, plan, count, cycle):
    """Per-element, per-sample signals [count, n_rf, n_el] with every phase
    taken from integer DFT bins: tone n at sample k is ``exp(2j pi ((b_n k)
    mod cycle) / cycle)``, ``b_n = p + n*q`` for ``f1/delta_f = p/q``."""
    ratio = plan.cycle_ratio()
    bins = ratio.numerator + ratio.denominator * np.arange(plan.n_f)
    phases = np.exp(2j * np.pi / cycle * (np.outer(np.arange(count), bins) % cycle))
    return np.real(np.einsum("kn,cen->kce", phases, amps))


def test_input_power_examples():
    assert input_power(Waveform.zeros(2, 3)) == 0.0
    assert input_power(Waveform(np.array([[3.0, 4.0j]]))) == pytest.approx(25.0)


def test_input_power_is_frobenius_norm(rng):
    om = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert input_power(Waveform(om)) == pytest.approx(np.linalg.norm(om) ** 2)


def test_hpa_bound_single_chain_example():
    wf = Waveform(np.array([[1.0 + 0j]]))
    dma = DmaState.from_phases(np.array([[np.pi / 2]]), 0.0115,
                               MicrostripParams(attenuation=0.0))
    val = hpa_bound_objective(wf, dma, 1.0, 1.0, math.pi / 4.0)
    assert val == pytest.approx(4.0 / math.pi * math.sqrt(0.5) + 1.0, rel=1e-12)


def test_hpa_bound_zero_waveform():
    assert hpa_bound_objective(Waveform.zeros(2, 2), None, 1.0, 1.0, 0.5) == 0.0


def test_hpa_bound_homogeneity(rng):
    wf = Waveform(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    dma = random_dma_state(rng, 2, 4)
    base_norm = hpa_bound_objective(wf, dma, 1.0, 1.0, 0.7) - input_power(wf)
    doubled = Waveform(2.0 * wf.omega)
    scaled_norm = hpa_bound_objective(doubled, dma, 1.0, 1.0, 0.7) - input_power(doubled)
    assert scaled_norm == pytest.approx(2.0 * base_norm, rel=1e-12)
    assert input_power(doubled) == pytest.approx(4.0 * input_power(wf), rel=1e-12)


def test_single_tone_sampled_consumption_closed_form():
    """For one fully-digital chain on one tone the amplifier average is the
    exact mean of |cos|: (2/pi) * G * |omega| * sqrt(P_max)/eta.

    |cos| is not a trig polynomial, so sampling converges at O(1/K^2); a
    dense grid pins the analytic value to 1e-4.
    """
    cfg = make_scenario("fd", length=0.10, n_f=1)
    plan = synthetic_plan(1, ratio=500)
    wf = Waveform(np.array([[0.8 - 0.6j]]))
    rep = sampled_consumption(wf, None, cfg.array, plan, 1.0, 1.0, math.pi / 4)
    expected = (2.0 / math.pi) / (math.pi / 4.0)  # |omega| = 1
    assert rep.p_hpa_sampled == pytest.approx(expected, rel=1e-4)
    assert rep.p_in == pytest.approx(1.0)


def test_sampled_consumption_zero_waveform(tiny_fd):
    plan = synthetic_plan(2)
    rep = sampled_consumption(Waveform.zeros(tiny_fd.array.rf_chain_count, 2),
                              None, tiny_fd.array, plan, 1.0, 1.0, 0.7)
    assert rep.p_c_sampled == 0.0
    assert rep.p_hpa_bound + rep.p_in == 0.0


def test_jensen_bound_and_parseval(rng):
    """Sampled amplifier consumption never exceeds the bound, and per-chain
    sampled output means equal the frequency-domain sums exactly."""
    array = make_scenario("dma").array
    for trial in range(40):
        n_f = int(rng.integers(1, 4))
        plan = synthetic_plan(n_f, ratio=int(rng.integers(3, 9)))
        dma = random_dma_state(rng, array.n_v, array.n_h)
        wf = Waveform(rng.normal(size=(array.n_v, n_f))
                      + 1j * rng.normal(size=(array.n_v, n_f)))
        g = float(rng.uniform(0.5, 1.5))
        means = sampled_output_means(wf, dma, plan, g)
        freq = g ** 2 / 2.0 * np.sum(
            np.abs(wf.omega[:, None, :] * (dma.q * dma.h)[:, :, None]) ** 2,
            axis=(1, 2))
        assert np.allclose(means, freq, rtol=1e-8)
        rep = sampled_consumption(wf, dma, array, plan, g, 1.0, 0.7)
        assert rep.p_hpa_sampled <= rep.p_hpa_bound * (1 + 1e-12) + 1e-15


def test_jensen_equality_for_constant_envelope():
    """Tuning phases 0 and pi give equal-magnitude weights 90 degrees apart,
    so a lossless two-element strip on one tone radiates constant total power
    and the bound is met with equality."""
    plan = synthetic_plan(1, ratio=5)
    strip = MicrostripParams(attenuation=0.0, propagation=1e-9)
    dma = DmaState.from_phases(np.array([[0.0, np.pi]]), 0.01, strip)
    base = make_scenario("dma").array
    wf = Waveform(np.array([[1.0 + 0j]]))
    rep = sampled_consumption(wf, dma, base, plan, 1.0, 1.0, 0.7)
    assert rep.p_hpa_sampled == pytest.approx(rep.p_hpa_bound, rel=1e-9)


def test_jensen_gap_strict_for_multitone(rng):
    cfg = make_scenario("dma", n_f=2)
    plan = synthetic_plan(2)
    dma = random_dma_state(rng, cfg.array.n_v, cfg.array.n_h)
    wf = Waveform(rng.normal(size=(cfg.array.n_v, 2))
                  + 1j * rng.normal(size=(cfg.array.n_v, 2)))
    rep = sampled_consumption(wf, dma, cfg.array, plan, 1.0, 1.0, 0.7)
    assert rep.p_hpa_sampled < rep.p_hpa_bound


def test_separability_identity(rng):
    """sum_i sqrt(sum_{l,n} |w q h|^2) factors into per-chain norm products."""
    for _ in range(20):
        n_v, n_h, n_f = 3, 4, 3
        dma = random_dma_state(rng, n_v, n_h)
        om = rng.normal(size=(n_v, n_f)) + 1j * rng.normal(size=(n_v, n_f))
        joint = np.sum([
            math.sqrt(np.sum(np.abs(om[i, None, :] * (dma.q * dma.h)[i, :, None]) ** 2))
            for i in range(n_v)])
        split = np.sum(np.sqrt(np.sum(np.abs(dma.q * dma.h) ** 2, axis=1))
                       * np.linalg.norm(om, axis=1))
        assert joint == pytest.approx(split, rel=1e-12)


def test_chain_norm_scales_fd_constant():
    scales = chain_norm_scales(None, 4, 2.0, 9.0, 0.5)
    assert np.allclose(scales, math.sqrt(9.0) * 2.0 / (math.sqrt(2.0) * 0.5))


def test_power_report_invariant(rng):
    cfg = make_scenario("dma", n_f=2)
    plan = synthetic_plan(2)
    dma = random_dma_state(rng, cfg.array.n_v, cfg.array.n_h)
    wf = Waveform(rng.normal(size=(cfg.array.n_v, 2))
                  + 1j * rng.normal(size=(cfg.array.n_v, 2)))
    rep = sampled_consumption(wf, dma, cfg.array, plan, 1.0, 1.0, 0.7)
    assert rep.p_hpa_bound >= rep.p_hpa_sampled - 1e-9 * max(1.0, rep.p_hpa_sampled)
    assert rep.p_c_sampled == pytest.approx(rep.p_hpa_sampled + rep.p_in)
    assert hpa_bound_objective(wf, dma, 1.0, 1.0, 0.7) == pytest.approx(rep.p_hpa_bound
                                                                         + rep.p_in)
    assert min(rep.p_in, rep.p_hpa_sampled, rep.p_hpa_bound) >= 0.0


def test_paper_sampling_window(tiny_fd):
    """1 ms window at twice the top tone approximates the same average; the
    coarse rate leaves a small percent-level sampling bias by design."""
    plan = synthetic_plan(2, ratio=4)
    wf = Waveform(np.array([[0.5, 0.2j]] * tiny_fd.array.rf_chain_count))
    exact = sampled_consumption(wf, None, tiny_fd.array, plan, 1.0, 1.0, 0.7)
    paper = sampled_consumption(wf, None, tiny_fd.array, plan, 1.0, 1.0, 0.7,
                                paper_sampling=True)
    assert paper.p_hpa_sampled == pytest.approx(exact.p_hpa_sampled, rel=5e-2)
    assert paper.p_in == exact.p_in


def reference_output_power(amps, plan, times):
    """Per-sample loop the chunk kernel must reproduce: one exponential per
    sample and tone, a complex einsum and its real part; P_out is [K, n_rf]."""
    phases = np.exp(2j * np.pi * np.outer(times, plan.tones))
    x = np.real(np.einsum("kn,cen->kce", phases, amps))
    return np.sum(x * x, axis=2)


@pytest.mark.parametrize("paper", [False, True], ids=["period", "paper"])
@pytest.mark.parametrize("arch", ["fd", "dma"])
def test_chunk_kernel_matches_per_sample_loop(arch, paper, rng, monkeypatch):
    """The sampling kernel agrees with the per-sample loop to 1e-10
    relative, sample by sample and in every mean, over a grid that spans
    several chunks and ends inside one."""
    for n_f in (1, 2, 3):
        plan = synthetic_plan(n_f, ratio=int(rng.integers(3, 9)))
        times = plan.nyquist_times(1e-3) if paper else plan.quadrature_times(2)
        chunk = len(times) // 3 + 1
        assert len(times) > 2 * chunk and len(times) % chunk
        monkeypatch.setattr(power, "_CHUNK", chunk)
        array = make_scenario(arch, n_f=n_f).array
        dma = random_dma_state(rng, array.n_v, array.n_h) if arch == "dma" else None
        n_rf = array.rf_chain_count
        wf = Waveform(rng.normal(size=(n_rf, n_f)) + 1j * rng.normal(size=(n_rf, n_f)))
        g, p_max, eta = float(rng.uniform(0.5, 1.5)), 2.0, 0.7
        amps = g * wf.omega[:, None, :]
        if dma is not None:
            amps = amps * (dma.q * dma.h)[:, :, None]
        ref = reference_output_power(amps, plan, times)

        cycle = plan.nyquist_period() if paper else len(times)
        got = kernel_output_power(wf, dma, plan, g, len(times), cycle).T
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-10 * ref.max())
        rep = sampled_consumption(wf, dma, array, plan, g, p_max, eta,
                                  paper_sampling=paper)
        expected = math.sqrt(p_max) / eta * np.sum(np.sqrt(ref)) / len(times)
        assert rep.p_hpa_sampled == pytest.approx(expected, rel=1e-10)
        if not paper:
            assert np.allclose(sampled_output_means(wf, dma, plan, g),
                               ref.mean(axis=0), rtol=1e-10, atol=0.0)


def _random_state(arch, n_f, rng):
    array = make_scenario(arch, n_f=n_f).array
    dma = random_dma_state(rng, array.n_v, array.n_h) if arch == "dma" else None
    n_rf = array.rf_chain_count
    wf = Waveform(rng.normal(size=(n_rf, n_f)) + 1j * rng.normal(size=(n_rf, n_f)))
    return array, dma, wf


def _paper_reference(wf, dma, plan, g, p_max, eta):
    """Per-sample amplifier consumption over the whole 1 ms window, and the
    Jensen bound built from that window's own mean output power."""
    amps = chain_element_amplitudes(wf, dma, g)
    ref = reference_output_power(amps, plan, plan.nyquist_times(1e-3))
    scale = math.sqrt(p_max) / eta
    return (scale * np.sum(np.sqrt(ref)) / len(ref),
            scale * np.sum(np.sqrt(ref.mean(axis=0))))


@pytest.mark.parametrize("chunk", [20, 1 << 16])
@pytest.mark.parametrize("p, delta_f, window_periods", [
    (22, 1e6, 8286 / 58),    # f1/delta_f = 22/7: 142 periods of 58 samples + 50
    (3001, 1e3, 859 / 6016),  # f1/delta_f = 3001/7: a 7 ms period, longer than 1 ms
], ids=["laps", "partial"])
@pytest.mark.parametrize("arch", ["fd", "dma"])
def test_paper_window_folds_onto_one_period(arch, p, delta_f, window_periods, chunk,
                                            rng, monkeypatch):
    """A window that ends inside a period, or is shorter than one, folds to
    the per-sample sum over every sample of the window."""
    plan = FrequencyPlan(p / 7 * delta_f, 2, delta_f)
    count, _ = plan.nyquist_grid(1e-3)
    assert count / plan.nyquist_period() == pytest.approx(window_periods)
    monkeypatch.setattr(power, "_CHUNK", chunk)
    array, dma, wf = _random_state(arch, 2, rng)
    rep = sampled_consumption(wf, dma, array, plan, 1.3, 2.0, 0.7,
                              paper_sampling=True)
    expected, _ = _paper_reference(wf, dma, plan, 1.3, 2.0, 0.7)
    assert rep.p_hpa_sampled == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("arch", ["fd", "dma"])
def test_default_grid_sum_is_unfolded(arch, rng, monkeypatch):
    """The default grid is one whole period, so its value is, bitwise, the
    plain sum of sqrt(P_out) over the chunk kernel's samples."""
    monkeypatch.setattr(power, "_CHUNK", 7)
    plan = synthetic_plan(3, ratio=6)
    array, dma, wf = _random_state(arch, 3, rng)
    count, _ = plan.quadrature_grid(degree=2)
    total = np.zeros(wf.n_rf)
    for p_out in kernel_chunks(wf, dma, plan, 1.1, count, count):
        total += np.sum(np.sqrt(p_out), axis=1)
    expected = float(np.sqrt(2.0) / 0.7 * np.sum(total) / count)
    rep = sampled_consumption(wf, dma, array, plan, 1.1, 2.0, 0.7)
    assert rep.p_hpa_sampled == expected


@pytest.mark.parametrize("paper", [False, True], ids=["period", "paper"])
@pytest.mark.parametrize("n_h", [None, 1, 2, 3, 8], ids=["fd", "dma1", "dma2", "dma3", "dma8"])
@pytest.mark.parametrize("n_f", [1, 2, 3, 8])
def test_kernel_matches_per_element_reference(n_h, n_f, paper, rng, monkeypatch):
    """At most two virtual elements per chain, tones by recurrence and exact
    integer phases agree with the per-element, per-sample sum of squares to
    1e-12 relative, sample by sample and in the folded consumption, on grids
    of p/q = 5 and 16/3 that end inside a chunk."""
    for plan in (FrequencyPlan(5e6, n_f, 1e6), FrequencyPlan(16e6 / 3, n_f, 1e6)):
        count = plan.nyquist_grid(1e-3)[0] if paper else plan.quadrature_grid(2)[0]
        cycle = plan.nyquist_period() if paper else count
        chunk = count // 3 + 1
        assert count > 2 * chunk and count % chunk
        monkeypatch.setattr(power, "_CHUNK", chunk)
        dma = None if n_h is None else random_dma_state(rng, 3, n_h)
        wf = Waveform(rng.normal(size=(3, n_f)) + 1j * rng.normal(size=(3, n_f)))
        x = exact_phase_signals(chain_element_amplitudes(wf, dma, 1.2), plan, count, cycle)
        ref = np.sum(x * x, axis=2)                               # [count, n_rf]
        got = kernel_output_power(wf, dma, plan, 1.2, count, cycle)
        np.testing.assert_allclose(got, ref.T, rtol=1e-12, atol=1e-12 * ref.max())
        array = make_scenario("fd" if dma is None else "dma").array
        rep = sampled_consumption(wf, dma, array, plan, 1.2, 2.0, 0.7, paper_sampling=paper)
        expected = math.sqrt(2.0) / 0.7 * np.sum(np.sqrt(ref)) / count
        assert rep.p_hpa_sampled == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_h", [None, 1, 2, 5], ids=["fd", "dma1", "dma2", "dma5"])
def test_output_power_is_a_sum_of_squares(n_h, rng):
    """P_out is never negative and is exactly 0 for a zero waveform. A
    one-element chain's P_out is the square of its signal ``Re(c z)``: on a
    200,027-sample period, whose samples come within 1e-6 of the signal's
    scale of a zero crossing, its root tracks ``|Re(c z)|`` to 1e-13 of that
    scale. A difference of squares such as ``(|cz|^2 + Re((cz)^2)) / 2``
    misses by about 1e-11 there."""
    plan = FrequencyPlan(99999 / 7 * 1e6, 3, 1e6)
    count, _ = plan.quadrature_grid(2)
    dma = None if n_h is None else random_dma_state(rng, 3, n_h)
    zero = kernel_output_power(Waveform.zeros(3, 3), dma, plan, 1.0, count, count)
    assert np.all(zero == 0.0)
    wf = Waveform(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    got = kernel_output_power(wf, dma, plan, 1.0, count, count)
    assert np.all(got >= 0.0)
    if n_h in (None, 1):
        x = exact_phase_signals(chain_element_amplitudes(wf, dma, 1.0), plan, count, count)
        scale = np.max(np.abs(x))
        assert np.min(np.abs(x)) < 1e-5 * scale
        np.testing.assert_allclose(np.sqrt(got), np.abs(x[:, :, 0].T), rtol=0,
                                   atol=1e-13 * scale)


def test_virtual_elements_keep_the_gram_matrix(rng):
    """The two virtual elements of a longer chain have its 2x2 Gram matrix, a
    rank-one chain included; a chain of zero weights radiates nothing."""
    dma = random_dma_state(rng, 4, 6)
    q = dma.q.copy()
    q[1] = q[1, 0] * dma.h[1, 0] * rng.uniform(0.5, 2.0, 6) / dma.h[1]   # q h collinear
    q[2] = 0.0
    dma = DmaState(q, dma.h)        # the kernel reads any weights, in the disk or not
    coeffs = power._virtual_coefficients(dma, 4)
    assert coeffs.shape == (4, 2)

    def gram(c):
        rows = np.stack([c.real, -c.imag], axis=-1)
        return np.einsum("ilr,ils->irs", rows, rows)
    np.testing.assert_allclose(gram(coeffs), gram(dma.q * dma.h), rtol=0,
                               atol=1e-14 * np.max(np.abs(dma.q * dma.h)) ** 2)
    assert np.all(coeffs[2] == 0.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(q=st.integers(1, 7), cycles=st.integers(1, 8), n_f=st.integers(1, 4),
       arch=st.sampled_from(["fd", "dma"]), seed=st.integers(0, 2**32 - 1))
def test_consumption_properties(q, cycles, n_f, arch, seed):
    """Over small rational f1/delta_f = p/q (p = cycles*q + 1, so p/q > 1 in
    lowest terms), tone counts, architectures and weights:

    - on the default grid, the Jensen bound ``p_hpa_sampled <= p_hpa_bound``;
    - on the paper grid, the folded value equals the per-sample loop, and
      Jensen holds against the window's own mean output power. The paper
      rate aliases the top tone's second harmonic onto DC, so the window's
      mean power, and with it the sampled value, can exceed ``p_hpa_bound``.
    """
    rng = np.random.default_rng(seed)
    plan = FrequencyPlan((cycles * q + 1) / q * 1e6, n_f, 1e6)
    array, dma, wf = _random_state(arch, n_f, rng)
    g, p_max, eta = float(rng.uniform(0.5, 1.5)), 2.0, 0.7
    rep = sampled_consumption(wf, dma, array, plan, g, p_max, eta)
    assert rep.p_hpa_sampled <= rep.p_hpa_bound * (1 + 1e-12)
    paper = sampled_consumption(wf, dma, array, plan, g, p_max, eta,
                                paper_sampling=True)
    expected, window_bound = _paper_reference(wf, dma, plan, g, p_max, eta)
    assert paper.p_hpa_sampled == pytest.approx(expected, rel=1e-10)
    assert paper.p_hpa_sampled <= window_bound * (1 + 1e-12)


@pytest.mark.parametrize("name", ["tiny_dma", "tiny_fd"])
def test_design_matches_its_building_blocks(name, request, rng):
    """``Design``'s voltages, DC powers and reports are bitwise what
    ``harvested_voltage`` per receiver and ``sampled_consumption`` with the
    device's fields give, with or without a channel passed in; its rows are
    built once."""
    cfg = request.getfixturevalue(name)
    arr, dev = cfg.array, cfg.device
    dma = None
    if arr.architecture is Architecture.DMA:
        dma = random_dma_state(rng, arr.n_v, arr.n_h, arr.inter_element_dx)
    wf = Waveform(rng.normal(size=(arr.rf_chain_count, cfg.frequency.n_f))
                  + 1j * rng.normal(size=(arr.rf_chain_count, cfg.frequency.n_f)))
    channel = build_channel(arr, cfg.receivers, cfg.frequency, dev.boresight_gain)
    chain = effective_rows(channel, arr, dma)
    v = np.array([harvested_voltage(chain[m], wf.omega.T, dev.hpa_gain, dev.k2, dev.k4)
                  for m in range(cfg.n_receivers)])
    for design in (Design(cfg, wf, dma), Design(cfg, wf, dma, channel)):
        assert np.array_equal(design.voltages(), v)
        assert np.array_equal(design.p_dc(), v ** 2 / dev.rect_load_resistance)
        assert design.rows is design.rows
        for paper in (False, True):
            assert design.report(paper) == sampled_consumption(
                wf, dma, arr, cfg.frequency, dev.hpa_gain, dev.hpa_saturation_power,
                dev.hpa_max_efficiency, paper_sampling=paper)


@pytest.mark.parametrize("name", ["tiny_dma", "tiny_fd"])
def test_design_with_waveform_equals_a_fresh_design(name, request, rng):
    """A design moved to another waveform reports bitwise what a design built
    for that waveform does, and shares the rows of the design it came from."""
    cfg = request.getfixturevalue(name)
    arr, shape = cfg.array, (cfg.array.rf_chain_count, cfg.frequency.n_f)
    dma = None
    if arr.architecture is Architecture.DMA:
        dma = random_dma_state(rng, arr.n_v, arr.n_h, arr.inter_element_dx)
    first, wf = (Waveform(rng.normal(size=shape) + 1j * rng.normal(size=shape))
                 for _ in range(2))
    design = Design(cfg, first, dma)
    moved, fresh = design.with_waveform(wf), Design(cfg, wf, dma)
    assert moved.waveform is wf and moved.dma is dma
    assert moved.rows is design.rows
    assert np.array_equal(moved.voltages(), fresh.voltages())
    assert np.array_equal(moved.p_dc(), fresh.p_dc())
    for paper in (False, True):
        assert moved.report(paper) == fresh.report(paper)
