import math

import numpy as np
import pytest

from wptopt.scenario import (SPEED_OF_LIGHT, Architecture, DeviceParams,
                             FrequencyPlan, ReceiverSpec, ScenarioParseError,
                             ScenarioValidationError, build_array,
                             load_scenario, save_scenario)

from conftest import F1, make_scenario

LAM1 = SPEED_OF_LIGHT / F1

SCENARIO_TEXT = """
[array]
architecture = dma
length = 0.25

[frequency]
f1 = 5.18e9
bandwidth = 10e6
n_tones = 8

[receiver.1]
x = 0.0
y = 0.0
z = 2.2
p_target = 20e-6
"""


def test_load_scenario_derives_tone_spacing(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(SCENARIO_TEXT)
    cfg = load_scenario(path)
    assert cfg.frequency.delta_f == pytest.approx(1.25e6)
    assert cfg.frequency.tones[0] == pytest.approx(5.18e9)
    assert cfg.frequency.tones[-1] == pytest.approx(5.18e9 + 7 * 1.25e6)


def test_load_scenario_rejects_degenerate_array(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(SCENARIO_TEXT.replace("length = 0.25", "length = 0.0"))
    with pytest.raises(ScenarioValidationError):
        load_scenario(path)


def test_load_scenario_dma_dimensions(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(SCENARIO_TEXT)
    cfg = load_scenario(path)
    # floor(2*0.25/lam1) = 8, floor(5*0.25/lam1) = 21 at 5.18 GHz
    assert (cfg.array.n_v, cfg.array.n_h) == (8, 21)


def test_load_scenario_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[array\narchitecture = dma\n")
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(path)
    assert "line" in str(err.value).lower() or "1" in str(err.value)


def test_load_scenario_bad_number_names_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SCENARIO_TEXT.replace("z = 2.2", "z = blue"))
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(path)
    assert "z" in str(err.value)


@pytest.mark.parametrize("arch,length,expected", [
    (Architecture.FULLY_DIGITAL, 0.10, (3, 3)),
    (Architecture.DMA, 0.10, (3, 8)),
    (Architecture.FULLY_DIGITAL, 0.25, (8, 8)),
    (Architecture.DMA, 0.25, (8, 21)),
])
def test_build_array_dimensions(arch, length, expected):
    arr = build_array(arch, length, F1)
    assert (arr.n_v, arr.n_h) == expected


def test_build_array_single_element_at_origin():
    arr = build_array(Architecture.FULLY_DIGITAL, LAM1 / 2.0, F1)
    assert arr.n_elements == 1
    assert np.allclose(arr.element_positions[0, 0], 0.0)


def test_build_array_too_small_errors():
    with pytest.raises(ScenarioValidationError):
        build_array(Architecture.FULLY_DIGITAL, LAM1 / 4.0, F1)
    with pytest.raises(ScenarioValidationError):
        build_array(Architecture.DMA, 0.0, F1)


@pytest.mark.parametrize("arch", [Architecture.FULLY_DIGITAL, Architecture.DMA])
def test_array_spacing_and_extent(arch):
    arr = build_array(arch, 0.20, F1)
    dx_expected = LAM1 / 2.0 if arch is Architecture.FULLY_DIGITAL else LAM1 / 5.0
    assert arr.inter_element_dx == pytest.approx(dx_expected)
    assert arr.inter_row_dy == pytest.approx(LAM1 / 2.0)
    pos = arr.element_positions.reshape(-1, 3)
    pairwise_max = 0.0
    for k in range(len(pos)):
        pairwise_max = max(pairwise_max,
                           float(np.max(np.linalg.norm(pos - pos[k], axis=1))))
    assert pairwise_max <= 0.20 * math.sqrt(2.0) + 1e-9


def test_rf_chain_count():
    fd = build_array(Architecture.FULLY_DIGITAL, 0.20, F1)
    dma = build_array(Architecture.DMA, 0.20, F1)
    assert fd.rf_chain_count == fd.n_v * fd.n_h
    assert dma.rf_chain_count == dma.n_v


def test_device_params_taylor_coefficients():
    dev = DeviceParams()
    # R_ant/(2! * eta0*vt) and R_ant^2/(4! * (eta0*vt)^3) at 50 ohm, 1.05, 25 mV
    assert dev.k2 == pytest.approx(952.380952380952, rel=1e-12)
    assert dev.k4 == pytest.approx(50.0 ** 2 / (24.0 * (1.05 * 0.025) ** 3), rel=1e-12)


def test_device_params_validation():
    with pytest.raises(ScenarioValidationError):
        DeviceParams(hpa_max_efficiency=1.5).validate()
    with pytest.raises(ScenarioValidationError):
        DeviceParams(rect_load_resistance=-1.0).validate()


def test_receiver_validation():
    cfg = make_scenario()
    on_element = cfg.array.element_positions[0, 0].copy()
    with pytest.raises(ScenarioValidationError):
        ReceiverSpec(on_element, 20e-6).validate()
    with pytest.raises(ScenarioValidationError):
        ReceiverSpec(np.array([0.0, 0.0, 1.0]), 0.0).validate()


@pytest.mark.parametrize("z", [0.0, -2.2])
def test_receiver_on_or_behind_array_rejected(z):
    """The radiation profile is zero behind the array, so such a receiver
    would see an all-zero channel; it is rejected when the scenario loads."""
    with pytest.raises(ScenarioValidationError, match="z > 0"):
        make_scenario(receivers=((0.0, 0.0, z),))


def test_chain_count_must_cover_receivers():
    # DMA L=10cm has 3 chains; 4 receivers cannot each own one
    recs = [(0.1 * k, 0.0, 1.0 + 0.1 * k) for k in range(4)]
    with pytest.raises(ScenarioValidationError):
        make_scenario("dma", receivers=recs)


def test_round_trip_text_and_json(tmp_path):
    cfg = make_scenario("dma", length=0.12, n_f=4,
                        receivers=((0.1, -0.2, 1.7), (0.0, 0.3, 2.1)))
    for name in ("roundtrip.cfg", "roundtrip.json"):
        path = tmp_path / name
        save_scenario(cfg, path)
        again = load_scenario(path)
        assert again.to_dict() == cfg.to_dict()
        assert again.content_hash() == cfg.content_hash()


def test_frequency_plan_periodicity():
    plan = FrequencyPlan(5e6, 3, 1e6)
    assert plan.fundamental_period() == pytest.approx(1e-6)
    t = plan.quadrature_times(degree=2)
    assert len(t) == 2 * (5 + 2) + 1
    irrational = FrequencyPlan(math.pi * 1e6, 2, 1e6)
    with pytest.raises(ScenarioValidationError):
        irrational.cycle_ratio()


def test_scenario_is_immutable(tiny_dma):
    with pytest.raises(Exception):
        tiny_dma.array.element_positions[0, 0, 0] = 1.0
    with pytest.raises(Exception):
        tiny_dma.seed = 1
