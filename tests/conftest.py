import dataclasses

import numpy as np
import pytest

from wptopt.scenario import (Architecture, DeviceParams, FrequencyPlan,
                             ReceiverSpec, ScenarioConfig, build_array)

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
