import configparser
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptopt.scenario import (KEYS, LEGACY_KEYS, SECTIONS, SPEED_OF_LIGHT,
                             Architecture, ArraySpec, DeviceParams, FrequencyPlan,
                             MicrostripParams,
                             ReceiverSpec, ScenarioConfig, ScenarioParseError,
                             ScenarioValidationError, SolverSettings, build_array,
                             load_scenario, save_scenario, scenario_from_dict)

from conftest import F1, make_scenario

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_validate_rejects_exactly_the_wide_band_plans():
    """With f1/delta_f = p/q, tone n sits at (p + n q) delta_f / q. A plan is
    rejected exactly when some three tones sum to a fourth, found here by
    enumerating every triple."""
    from fractions import Fraction
    for q in range(1, 5):
        for p in range(1, 13):
            if math.gcd(p, q) != 1:
                continue
            for n_f in range(1, 9):
                bins = [p + n * q for n in range(n_f)]
                wide = any(a + b + c in bins for a in bins for b in bins for c in bins)
                plan = FrequencyPlan(p / q * 1e6, n_f, 1e6)
                assert plan.cycle_ratio() == Fraction(p, q)
                if wide:
                    with pytest.raises(ScenarioValidationError, match="band is too wide"):
                        plan.validate()
                else:
                    plan.validate()


def test_scenario_is_immutable(tiny_dma):
    with pytest.raises(Exception):
        tiny_dma.array.element_positions[0, 0, 0] = 1.0
    with pytest.raises(Exception):
        tiny_dma.seed = 1


def _scenario_data(**sections) -> dict:
    """``make_scenario()``'s ``to_dict`` form with some sections replaced."""
    data = make_scenario().to_dict()
    for name, values in sections.items():
        data[name] = {**data[name], **values} if isinstance(values, dict) else values
    return data


def _bad_array(**changes):
    arr = build_array(Architecture.DMA, 0.10, F1)
    return dataclasses.replace(arr, **changes).validate


def _positions(shift):
    pos = build_array(Architecture.DMA, 0.10, F1).element_positions.copy()
    pos[0, 0] += shift
    return pos


@pytest.mark.parametrize("check, message", [
    (_bad_array(n_h=0), "at least one element"),
    (_bad_array(element_positions=np.zeros((2, 2, 3))), "shape mismatch"),
    (_bad_array(element_positions=_positions([0.0, 0.0, 1e-3])), "z=0 plane"),
    (_bad_array(inter_element_dx=0.1), "exceeds the nominal aperture"),
    (lambda: build_array(Architecture.FULLY_DIGITAL, 0.10, -F1), "frequency must be positive"),
    (FrequencyPlan(-F1, 2, 1e6).validate, "f1 must be positive"),
    (FrequencyPlan(F1, 0, 1e6).validate, "tone count"),
    (FrequencyPlan(F1, 2, 0.0).validate, "delta_f > 0"),
    (lambda: FrequencyPlan(F1, 2, 1e6).nyquist_grid(1.0), "sampling grid too large"),
    (ReceiverSpec(np.array([0.0, 1.5]), 20e-6).validate, "3-vector"),
    (DeviceParams(boresight_gain=-1.0).validate, "boresight_gain"),
    (MicrostripParams(attenuation=-0.1).validate, "attenuation"),
    (MicrostripParams(propagation=0.0).validate, "propagation"),
    (SolverSettings(sca_rel_tol=0.0).validate, "sca_rel_tol"),
    (SolverSettings(init_ramp_factor=1.0).validate, "init_ramp_factor"),
    (SolverSettings(max_outer_iters=0).validate, "iteration caps"),
    (SolverSettings(max_sca_iters=0).validate, "iteration caps"),
    (lambda: scenario_from_dict(_scenario_data(receivers=[])), "at least one receiver"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_validation_rejects(check, message):
    with pytest.raises(ScenarioValidationError, match=message):
        check()


@pytest.mark.parametrize("section, key, value, message", [
    ("solver", "max_sca_iters", "30.9", "max_sca_iters = '30.9' is not a whole number"),
    ("solver", "sca_rel_tol", "nan", "sca_rel_tol = 'nan' is not a finite number"),
    ("device", "hpa_gain", None, "hpa_gain = None is not a finite number"),
    ("solver", "max_sca_iters", True, "max_sca_iters = True is not a whole number"),
    ("solver", "max_sca_iter", 30, "[solver] unknown key 'max_sca_iter'"),
    ("microstrip", "alpha", 0.3, "[microstrip] unknown key 'alpha'"),
])
def test_section_reader_names_section_and_key(section, key, value, message):
    """A section's keys are its dataclass fields; a whole-number field takes
    no fraction, a number field no text or non-finite value."""
    data = _scenario_data(**{section: {key: value}})
    with pytest.raises(ScenarioParseError, match=re.escape(message)):
        scenario_from_dict(data)


def test_to_dict_sections_are_the_dataclass_fields():
    data = make_scenario().to_dict()
    for name, cls in SECTIONS.items():
        assert data[name] == dataclasses.asdict(cls())
    assert "cone_solver_kkt_tol" not in data["solver"]


def test_retired_solver_key_is_dropped_on_read(tmp_path):
    """Artifacts and files written while ``SolverSettings`` still had
    ``cone_solver_kkt_tol`` load to the same scenario."""
    cfg = make_scenario()
    data = cfg.to_dict()
    data["solver"]["cone_solver_kkt_tol"] = 1e-9
    assert scenario_from_dict(data).content_hash() == cfg.content_hash()
    path = tmp_path / "legacy.cfg"
    save_scenario(cfg, path)
    path.write_text(path.read_text().replace("[solver]\n",
                                             "[solver]\ncone_solver_kkt_tol = 1e-9\n"))
    assert load_scenario(path).content_hash() == cfg.content_hash()


@pytest.mark.parametrize("edit, message", [
    (("[receiver.1]", "[receiver.01]"), "unknown section [receiver.01]"),
    (("[receiver.1]", "[receiver]"), "unknown section [receiver]"),
    (("z = 2.2", ""), "[receiver.1] missing keys: ['z']"),
    (("bandwidth = 10e6", ""), "[frequency] needs delta_f or bandwidth"),
    (("[frequency]", "[freq]"), "unknown section [freq]"),
])
def test_text_reader_rejects_sections_and_keys_outside_the_schema(tmp_path, edit, message):
    """Cases beyond ``test_cli.py::test_keys_outside_the_schema_exit_2``:
    receiver sections need a plain index, and a plan needs its spacing."""
    path = tmp_path / "s.cfg"
    path.write_text(SCENARIO_TEXT.replace(*edit))
    with pytest.raises(ScenarioParseError, match=re.escape(message)):
        load_scenario(path)


def test_text_receivers_load_in_the_order_of_k(tmp_path):
    """``[receiver.10]`` comes after ``[receiver.2]``, whatever the order of
    the sections in the file."""
    text = SCENARIO_TEXT.replace("length = 0.25", "length = 0.5")
    for k in (10, 2, 3, 4, 5, 6, 7, 8, 9, 11):
        text += f"\n[receiver.{k}]\nx = {0.01 * k}\ny = 0.0\nz = 2.0\np_target = 1e-5\n"
    path = tmp_path / "s.cfg"
    path.write_text(text)
    xs = [r.position[0] for r in load_scenario(path).receivers]
    assert xs == pytest.approx([0.0] + [0.01 * k for k in range(2, 12)])


def _readme_ini() -> str:
    return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)


def test_readme_scenario_block_loads_and_lists_the_defaults(tmp_path):
    """README's scenario block loads as written, inline comments included,
    and its [device], [microstrip] and [solver] sections list exactly the
    dataclass fields at their defaults (and [solver] the seed)."""
    path = tmp_path / "readme.cfg"
    path.write_text(_readme_ini())
    cfg = load_scenario(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(_readme_ini())
    for name, cls in SECTIONS.items():
        keys = set(parser[name]) - {"seed"}
        assert keys == {f.name for f in dataclasses.fields(cls)}
        assert getattr(cfg, name) == cls()
    assert parser["solver"]["seed"] == "0" and cfg.seed == 0
    assert (cfg.array.architecture, cfg.frequency.n_f) == (Architecture.DMA, 8)


@st.composite
def scenarios(draw):
    """M = 1-12 distinct receivers on a DMA or FD array with enough RF
    chains, 1-16 tones, and drawn device, microstrip and solver values."""
    finite = dict(allow_nan=False, allow_infinity=False)
    arch = draw(st.sampled_from(list(Architecture)))
    m_count = draw(st.integers(1, 12))
    lengths = [length for length in (0.1, 0.2, 0.4)
               if build_array(arch, length, F1).rf_chain_count >= m_count]
    array = build_array(arch, draw(st.sampled_from(lengths)), F1)
    receivers = tuple(
        ReceiverSpec(np.array([0.1 * k + draw(st.floats(0.0, 0.05, **finite)),
                               draw(st.floats(-3.0, 3.0, **finite)),
                               draw(st.floats(0.1, 5.0, **finite))]),
                     draw(st.floats(1e-7, 1e-3, **finite)))
        for k in range(m_count))
    positive = st.floats(1e-3, 1e3, **finite)
    device = DeviceParams(
        hpa_gain=draw(positive), hpa_max_efficiency=draw(st.floats(0.1, 1.0, **finite)),
        hpa_saturation_power=draw(positive), rect_antenna_resistance=draw(positive),
        rect_load_resistance=draw(positive), rect_thermal_voltage=draw(positive),
        rect_ideality=draw(st.floats(1.0, 2.0, **finite)),
        boresight_gain=draw(st.floats(0.0, 4.0, **finite)))
    microstrip = MicrostripParams(draw(st.floats(0.0, 2.0, **finite)),
                                  draw(st.floats(50.0, 400.0, **finite)))
    solver = SolverSettings(draw(st.floats(1e-9, 1e-3, **finite)),
                            draw(st.floats(1e-6, 1e-1, **finite)),
                            draw(st.floats(1.5, 10.0, **finite)),
                            draw(st.integers(1, 200)), draw(st.integers(1, 200)))
    cfg = ScenarioConfig(array, FrequencyPlan.from_bandwidth(F1, 10e6, draw(st.integers(1, 16))),
                         receivers, device, microstrip, solver, draw(st.integers(0, 2 ** 31)))
    cfg.validate()
    return cfg


@settings(derandomize=True, max_examples=40, deadline=None)
@given(scenarios())
def test_round_trip_property(tmp_path_factory, cfg):
    """Saved as text or JSON, a scenario loads back to the same dictionary
    and content hash, with its receivers in their order."""
    out = tmp_path_factory.mktemp("round_trip")
    for name in ("s.cfg", "s.json"):
        save_scenario(cfg, out / name)
        again = load_scenario(out / name)
        assert again.to_dict() == cfg.to_dict()
        assert again.content_hash() == cfg.content_hash()
    assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


# Every key name the schema knows, in any section and either format.
_KNOWN = {*(k for keys in KEYS.values() for k in keys),
          *(k for keys in LEGACY_KEYS.values() for k in keys),
          *(f.name for cls in SECTIONS.values() for f in dataclasses.fields(cls)),
          "x", "y", "z", "p_target"}
_NAMES = st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True).filter(
    lambda name: name not in _KNOWN)


@st.composite
def strays(draw):
    """One edit of a two-receiver scenario and the names its error must
    give: an unknown section, an unknown key in any section, or a
    non-finite receiver coordinate or target."""
    kind = draw(st.sampled_from(["section", "key", "value"]))
    if kind == "section":
        name = draw(_NAMES)
        return kind, name, None, None, ("unknown section", f"[{name}]")
    if kind == "key":
        section = draw(st.sampled_from(["array", "frequency", "receiver.1",
                                        "receiver.2", *SECTIONS]))
        key = draw(_NAMES)
        return kind, section, key, 1.0, (f"[{section}] unknown key {key!r}",)
    section = draw(st.sampled_from(["receiver.1", "receiver.2"]))
    key = draw(st.sampled_from(["x", "y", "z", "p_target"]))
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return kind, section, key, value, (f"[{section}]", "is not a finite number")


def _edit_json(data, kind, section, key, value):
    if kind == "section":
        data[section] = {}
        return
    if section.startswith("receiver."):
        target = data["receivers"][int(section[-1]) - 1]
        if kind == "value":   # the dict form's names for a text receiver's keys
            if key == "p_target":
                key = "eh_requirement"
            else:
                target, key = target["position"], "xyz".index(key)
    else:
        target = data[section]
    target[key] = value


@settings(derandomize=True, max_examples=60, deadline=None)
@given(stray=strays(), suffix=st.sampled_from([".json", ".cfg"]))
def test_one_stray_key_or_value_fails_the_load_naming_it(tmp_path_factory, stray, suffix):
    """Both formats go through one checker: an unknown section or key in any
    section, or a non-finite receiver value, is a one-line parse error that
    names the section and key (in the text format a coordinate is x, y or
    z, a target p_target)."""
    kind, section, key, value, names = stray
    cfg = make_scenario(receivers=((0.1, -0.2, 1.7), (0.0, 0.3, 2.1)))
    path = tmp_path_factory.mktemp("stray") / f"s{suffix}"
    if suffix == ".json":
        data = cfg.to_dict()
        _edit_json(data, kind, section, key, value)
        path.write_text(json.dumps(data))
        if kind == "value":
            names += ("eh_requirement" if key == "p_target" else "position",)
    else:
        save_scenario(cfg, path)
        parser = configparser.ConfigParser()
        parser.read(path)
        if kind == "section":
            parser.add_section(section)
        else:
            parser[section][key] = str(value)
        with open(path, "w") as fh:
            parser.write(fh)
        if kind == "value":
            names += (f"{key} = {str(value)!r}",)
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(path)
    message = str(err.value)
    assert "\n" not in message and all(name in message for name in names), message
