import ctypes
import dataclasses
import glob
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from wptopt.channel import build_channel
from wptopt.dual_newton import ExitReason
from wptopt.linearize import LinearizedVoltage, linearize_vo_in_q, linearize_vo_in_w
from wptopt.optimize import allocate_chains, init_digital_weights, init_q_phases
from wptopt.power import chain_norm_scales
from wptopt.scenario import (Architecture, DeviceParams, FrequencyPlan,
                             ReceiverSpec, ScenarioConfig, build_array)
from wptopt.transmitter import LORENTZIAN_CENTER, LORENTZIAN_RADIUS, effective_rows
from wptopt.waveform_step import WaveformRestriction, waveform_restriction

F1 = 5.18e9
BW = 10e6
# The benchmark's multiuser geometry: three receivers drawn from generator
# seed 2. With 8 tones at L = 0.1 m, one focusing restriction of its DMA
# design has its minimizer at a kink of the dual.
_draw = np.random.default_rng(2)
THREE_RECEIVERS = tuple(map(tuple, np.column_stack([
    _draw.uniform(-0.8, 0.8, 3), _draw.uniform(-0.8, 0.8, 3), _draw.uniform(1.5, 3.0, 3)])))


def make_scenario(arch="dma", length=0.10, n_f=2, receivers=((0.0, 0.0, 1.5),),
                  p_target=20e-6, seed=0, **device_kwargs) -> ScenarioConfig:
    architecture = Architecture.DMA if arch == "dma" else Architecture.FULLY_DIGITAL
    array = build_array(architecture, length, F1)
    plan = FrequencyPlan.from_bandwidth(F1, BW, n_f)
    recs = tuple(ReceiverSpec(np.asarray(p, dtype=float), p_target) for p in receivers)
    cfg = ScenarioConfig(array, plan, recs, device=DeviceParams(**device_kwargs),
                         seed=seed)
    cfg.validate()
    return cfg


def single_element_fd(n_f=1, distance=1.0, p_target=20e-6) -> ScenarioConfig:
    lam1 = 299_792_458.0 / F1
    array = build_array(Architecture.FULLY_DIGITAL, lam1 / 2.0, F1)
    plan = FrequencyPlan.from_bandwidth(F1, BW, n_f) if n_f > 1 \
        else FrequencyPlan(F1, 1, 1.25e6)
    cfg = ScenarioConfig(array, plan,
                         (ReceiverSpec(np.array([0.0, 0.0, distance]), p_target),))
    cfg.validate()
    return cfg


def initial_waveform_restriction(arch):
    """The waveform restriction of a three-receiver design at its
    initialization, with what poses it: ``(scenario, dma, linearizations,
    w0, restriction)``; ``dma`` is ``None`` for FD."""
    cfg = make_scenario(arch, receivers=((0.0, 0.0, 1.5), (0.2, 0.1, 1.8),
                                         (-0.3, 0.2, 2.1)))
    dev = cfg.device
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, dev.boresight_gain)
    plan = allocate_chains(channel, cfg.n_receivers, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg) if arch == "dma" else None
    w = init_digital_weights(cfg, channel, plan, dma)
    lins = [linearize_vo_in_w(rows, w.omega.T, dev.k2, dev.k4, dev.hpa_gain)
            for rows in effective_rows(channel, cfg.array, dma)]
    scales = chain_norm_scales(dma, w.n_rf, dev.hpa_gain, dev.hpa_saturation_power,
                               dev.hpa_max_efficiency)
    return cfg, dma, lins, w, waveform_restriction(lins, w, scales, cfg.voltage_targets())


def far_from_unit_scale(restriction):
    """A waveform restriction with its right-hand side at 1e-160 and its
    chain scales at 1e160, rows unchanged: the dual step overflows and
    returns a point full of NaN."""
    return dataclasses.replace(restriction,
                               rhs=np.full_like(restriction.rhs, 1e-160),
                               scales=np.full_like(restriction.scales, 1e160))


def synthetic_plan(n_f, ratio=5) -> FrequencyPlan:
    """Small integer f1/delta_f so periodic sampling grids stay tiny."""
    return FrequencyPlan(float(ratio) * 1e6, n_f, 1e6)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_dma():
    return make_scenario("dma", length=0.10, n_f=2)


@pytest.fixture
def tiny_fd():
    return make_scenario("fd", length=0.10, n_f=2)


def assert_same_step(got, want):
    """Two restriction steps hold bitwise the same fields."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, (np.ndarray, float)):
            assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
        else:
            assert a == b, f.name


def kernel_fingerprint() -> str:
    """The floating-point kernels this process runs on: the numpy version,
    numpy's enabled CPU dispatch targets and the core that numpy's bundled
    OpenBLAS picked. A design's last bits hold only under the kernels it
    was pinned with."""
    from numpy._core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    core = "unknown"
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                              "*openblas*.so*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype, corename.argtypes = ctypes.c_char_p, []
        core = corename().decode()
        break
    return f"numpy {np.__version__}, dispatch {' '.join(targets) or 'none'}, OpenBLAS core {core}"


# ---------------------------------------------------------------------------
# weak-duality certificates of the two restriction steps
# ---------------------------------------------------------------------------

GAP_TOL = 1e-12   # certified (primal - bound) / (1 + |primal|) of an optimal step


def waveform_dual_bound(res: WaveformRestriction, lam: np.ndarray) -> float:
    """A lower bound on ``min sum_i s_i ||x_i|| + ||x||^2 s.t. g_m . x >= r_m``
    for any ``lam >= 0``: the Lagrangian's minimum over ``x``. With
    ``G = sum_m lam_m g_m`` it separates by chain, and
    ``min s ||x_i|| + ||x_i||^2 - G_i . x_i = -(||G_i|| - s)_+^2 / 4``."""
    lam = np.asarray(lam, dtype=float)
    assert lam.min() >= 0.0
    combo = np.tensordot(lam, res.rows, axes=1)
    excess = np.maximum(np.linalg.norm(combo, axis=1) - res.scales, 0.0)
    return float(lam @ res.rhs - 0.25 * (excess @ excess))


def focusing_dual_bound(lins: list[LinearizedVoltage], lam: np.ndarray) -> float:
    """An upper bound on ``max min_m v_m(q)`` over the disks
    ``|q_k - j/2| <= 1/2`` for any prices ``lam >= 0``, taken on the simplex:
    ``min_m v_m <= sum_m lam_m v_m = lam . beta + 2 Re{d^H (q - j/2)}``, with
    ``d = sum_m lam_m c_m``, and each term of the last sum is at most
    ``|d_k|``."""
    lam = np.asarray(lam, dtype=float)
    assert lam.min() >= 0.0 and lam.sum() > 0.0
    lam = lam / lam.sum()
    beta = np.array([lin.base_value + 2.0 * np.vdot(
        lin.coeffs, LORENTZIAN_CENTER - lin.expansion_point).real for lin in lins])
    d = lam @ np.array([np.ravel(lin.coeffs) for lin in lins])
    return float(lam @ beta + 2.0 * LORENTZIAN_RADIUS * np.abs(d).sum())


def assert_in_disks(q):
    assert np.all(np.abs(q - LORENTZIAN_CENTER) <= LORENTZIAN_RADIUS * (1.0 + 1e-15))


def assert_certified(step, problem):
    """The step exits on ``TOLERANCE`` at a feasible point of its restriction
    (a ``WaveformRestriction``, or the receivers' focusing linearizations)
    whose value ``p``, the one it reports, lies within ``GAP_TOL (1 + |p|)``
    of the restriction's dual bound at the step's multipliers: by weak
    duality the point is optimal to that gap."""
    assert step.exit_reason is ExitReason.TOLERANCE
    if isinstance(problem, WaveformRestriction):
        assert problem.max_violation(step.x) == 0.0
        p = problem.objective(step.x)
        gap = p - waveform_dual_bound(problem, step.multipliers)
    else:
        assert_in_disks(step.q)
        p = min(lin.predict(step.q) for lin in problem)
        gap = focusing_dual_bound(problem, step.multipliers) - p
    assert step.primal == p
    assert abs(gap) <= GAP_TOL * (1.0 + abs(p)), gap / (1.0 + abs(p))


# ---------------------------------------------------------------------------
# random waveform restrictions
# ---------------------------------------------------------------------------

def random_restriction(rng, n_rf, n_f, m_rows, scales) -> WaveformRestriction:
    """``m_rows`` rows of standard normal entries over ``n_rf`` chains of
    ``n_f`` tones, and right-hand sides in [0.5, 2]."""
    rows = rng.normal(size=(m_rows, n_rf * 2 * n_f)).reshape(m_rows, n_rf, 2 * n_f)
    return WaveformRestriction(rows=rows, rhs=rng.uniform(0.5, 2.0, m_rows),
                               scales=np.array(scales, dtype=float))


def group_soft_threshold(scales, g_chains, r):
    """min sum s_i ||w_i|| + ||w||^2 s.t. g.w >= r: ``||w_i|| =
    (mu ||g_i|| - s_i)_+ / 2`` with mu set by the active row."""
    a = np.linalg.norm(g_chains, axis=1)
    order = np.argsort(scales / a)
    act_aa = act_as = 0.0
    for k, i in enumerate(order):
        act_aa += a[i] ** 2
        act_as += a[i] * scales[i]
        mu = (2.0 * r + act_as) / act_aa
        nxt = scales[order[k + 1]] / a[order[k + 1]] if k + 1 < len(order) else np.inf
        if mu <= nxt:
            break
    norms = np.maximum(mu * a - scales, 0.0) / 2.0
    return float(scales @ norms + norms @ norms)


@st.composite
def waveform_restrictions(draw):
    """Random restrictions with M in {1, 2, 3}; one chain with one tone and
    three rows (its Hessian has rank 2 at most, and a quarter of such draws
    are infeasible); and scales that keep chains off at the optimum. Each
    comes with a label of its kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        kind, n_rf, n_f, m_rows = "one chain, one tone, M = 3", 1, 1, 3
    else:
        n_rf, n_f = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        m_rows = draw(st.integers(1, 3))
        kind = f"M = {m_rows}"
    scales = rng.uniform(0.0, 2.0, n_rf)
    if draw(st.booleans()):
        scales = scales * np.where(rng.uniform(size=n_rf) < 0.5, 10.0, 1.0)
    return kind, random_restriction(rng, n_rf, n_f, m_rows, scales)


# ---------------------------------------------------------------------------
# random focusing restrictions
# ---------------------------------------------------------------------------

def disk_points(rng, n):
    radius = LORENTZIAN_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, n))
    return LORENTZIAN_CENTER + radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def receiver_linearizations(rng, m_count, n_el, n_f, q0):
    """Each receiver's tangent model at ``q0`` from random effective rows,
    scaled so that its voltage there lies in 1 mV - 1 V; the same whole
    columns are zero for every receiver, so those elements are dead."""
    dev = DeviceParams()
    dead = rng.random(n_el) < 0.2
    lins = []
    for _ in range(m_count):
        spread = 10.0 ** rng.uniform(-2.0, 0.0, (n_f, n_el))
        a_hat = spread * (rng.normal(size=(n_f, n_el)) + 1j * rng.normal(size=(n_f, n_el)))
        a_hat[:, dead] = 0.0
        lin = linearize_vo_in_q(a_hat, q0, dev.k2, dev.k4, dev.hpa_gain)
        if lin.base_value > 0.0:
            scale = 10.0 ** rng.uniform(-3.0, 0.0) / lin.base_value
            lin = LinearizedVoltage(lin.base_value * scale, lin.coeffs * scale, q0)
        lins.append(lin)
    return lins


def kink_linearizations(rng, m_count, n_el):
    """Linearizations whose dual minimizer is a chosen ``lam`` inside the
    simplex with ``d_k(lam) = 0`` for one element: its coefficient for the
    last receiver cancels the others there. The voltages are then set so
    that a chosen ``u_k`` strictly inside the disk equalizes every receiver,
    so ``lam`` with that point meets the optimality conditions."""
    coeffs = 10.0 ** rng.uniform(-2.0, 0.0, (m_count, n_el)) \
        * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (m_count, n_el)))
    lam = rng.uniform(0.2, 1.0, m_count)
    lam /= lam.sum()
    k = int(rng.integers(n_el))
    coeffs[-1, k] = -(lam[:-1] @ coeffs[:-1, k]) / lam[-1]
    d = lam @ coeffs
    u = 0.8 * LORENTZIAN_RADIUS * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    rim = np.where(np.arange(n_el) == k, 0.0, LORENTZIAN_RADIUS * d / np.where(d == 0, 1.0, np.abs(d)))
    rim[k] = u
    rest = 2.0 * np.real(np.conj(coeffs) @ rim)
    level = 10.0 ** rng.uniform(-2.0, 0.0)
    q0 = disk_points(rng, n_el)
    # beta_m = level - rest_m, and beta_m = v_m(q0) + 2 Re{c_m^H (j/2 - q0)}
    bases = level - rest - 2.0 * np.real(np.conj(coeffs) @ (LORENTZIAN_CENTER - q0))
    return [LinearizedVoltage(float(b), c, q0) for b, c in zip(bases, coeffs)], level


@st.composite
def focusing_restrictions(draw):
    """Two to four receivers. Half the draws come from random effective rows
    (1-60 elements, 1-4 tones), half from the kink family."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m_count = draw(st.integers(2, 4))
    if draw(st.booleans()):
        n_el = draw(st.integers(2, 40))
        lins, level = kink_linearizations(rng, m_count, n_el)
        return lins, level
    n_el = draw(st.integers(1, 60))
    q0 = disk_points(rng, n_el)
    return receiver_linearizations(rng, m_count, n_el, draw(st.integers(1, 4)), q0), None
