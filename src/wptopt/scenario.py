"""Problem configuration: array geometry, tone plan, receivers, device parameters.

A scenario is loaded from a sectioned key/value text file (or its JSON export),
validated once, and then treated as immutable. All derived quantities (tone
frequencies, element positions, rectifier Taylor coefficients) are populated at
construction time so downstream code never re-derives them.
"""

from __future__ import annotations

import configparser
import enum
import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


class ScenarioError(ValueError):
    """Base class for scenario loading/validation failures."""


class ScenarioParseError(ScenarioError):
    """Malformed scenario file (syntax, missing keys, unparseable values)."""


class ScenarioValidationError(ScenarioError):
    """Structurally valid file whose values violate a documented invariant."""


class Architecture(enum.Enum):
    FULLY_DIGITAL = "fd"
    DMA = "dma"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ArraySpec:
    """Uniform planar array centered at the origin in the z=0 plane.

    Boresight points along +z. For the fully-digital architecture every
    element has a dedicated RF chain; for the DMA architecture each row is one
    microstrip fed by a single RF chain.
    """

    architecture: Architecture
    antenna_length: float          # side of the nominal square aperture [m]
    n_v: int                       # rows (DMA: number of microstrips)
    n_h: int                       # elements per row
    inter_element_dx: float        # spacing along a row [m]
    inter_row_dy: float            # spacing between rows [m]
    element_positions: np.ndarray = field(repr=False)  # [n_v, n_h, 3]

    @property
    def n_elements(self) -> int:
        return self.n_v * self.n_h

    @property
    def rf_chain_count(self) -> int:
        if self.architecture is Architecture.FULLY_DIGITAL:
            return self.n_elements
        return self.n_v

    @property
    def aperture_diagonal(self) -> float:
        return math.sqrt(2.0) * self.antenna_length

    def validate(self):
        if self.n_v < 1 or self.n_h < 1:
            raise ScenarioValidationError("array must contain at least one element")
        pos = self.element_positions
        if pos.shape != (self.n_v, self.n_h, 3):
            raise ScenarioValidationError("element_positions shape mismatch")
        if np.any(pos[..., 2] != 0.0):
            raise ScenarioValidationError("all element positions must lie in the z=0 plane")
        ext_x = (self.n_h - 1) * self.inter_element_dx
        ext_y = (self.n_v - 1) * self.inter_row_dy
        if ext_x > self.antenna_length * (1 + 1e-9) or ext_y > self.antenna_length * (1 + 1e-9):
            raise ScenarioValidationError("element grid exceeds the nominal aperture side")


def build_array(architecture: Architecture, length: float, f1: float) -> ArraySpec:
    """Dimension and place the array elements for the given aperture side.

    Fully digital: ``n_v = n_h = floor(2L/lambda1)`` with half-wavelength
    spacing on both axes. DMA: ``n_v = floor(2L/lambda1)`` microstrips spaced
    half a wavelength apart, each carrying ``n_h = floor(5L/lambda1)`` elements
    spaced a fifth of a wavelength apart.
    """
    if length <= 0:
        raise ScenarioValidationError("array length must be positive")
    if f1 <= 0:
        raise ScenarioValidationError("operating frequency must be positive")
    lam1 = SPEED_OF_LIGHT / f1
    n_v = int(math.floor(2.0 * length / lam1))
    if architecture is Architecture.FULLY_DIGITAL:
        n_h = n_v
        dx = dy = lam1 / 2.0
    else:
        n_h = int(math.floor(5.0 * length / lam1))
        dx = lam1 / 5.0
        dy = lam1 / 2.0
    if n_v < 1 or n_h < 1:
        raise ScenarioValidationError(
            f"length {length} m is too small to fit one element at f1={f1} Hz")
    xs = (np.arange(n_h) - (n_h - 1) / 2.0) * dx
    ys = (np.arange(n_v) - (n_v - 1) / 2.0) * dy
    pos = np.zeros((n_v, n_h, 3))
    pos[..., 0] = xs[None, :]
    pos[..., 1] = ys[:, None]
    spec = ArraySpec(architecture, float(length), n_v, n_h, dx, dy, _readonly(pos))
    spec.validate()
    return spec


@dataclass(frozen=True)
class FrequencyPlan:
    """Equally spaced multi-tone plan: ``f_n = f1 + (n-1) * delta_f``."""

    f1: float
    n_f: int
    delta_f: float

    @classmethod
    def from_bandwidth(cls, f1: float, bandwidth: float, n_f: int) -> "FrequencyPlan":
        if n_f <= 1:   # spacing is irrelevant for one tone; validate rejects fewer
            return cls(f1, n_f, bandwidth)
        return cls(f1, n_f, bandwidth / n_f)

    @property
    def tones(self) -> np.ndarray:
        return self.f1 + np.arange(self.n_f) * self.delta_f

    @property
    def wavelengths(self) -> np.ndarray:
        return SPEED_OF_LIGHT / self.tones

    @property
    def f_max(self) -> float:
        return self.f1 + (self.n_f - 1) * self.delta_f

    def validate(self):
        if self.f1 <= 0:
            raise ScenarioValidationError("f1 must be positive")
        if self.n_f < 1:
            raise ScenarioValidationError("tone count must be >= 1")
        if self.delta_f <= 0:
            raise ScenarioValidationError("tones must be strictly increasing (delta_f > 0)")
        # simulate's oracle samples the received signal on this grid, and
        # paper-rate sampling folds its window onto the same period.
        self.quadrature_grid(degree=4)
        # f_a + f_b + f_c = f_d has solutions exactly when 2*f1/delta_f is a
        # whole number d - a - b - c <= n_f - 1; the spectral fourth moment
        # keeps only f_a + f_b = f_c + f_d and would miss those products.
        twice = 2 * self.cycle_ratio()
        if twice.denominator == 1 and twice <= self.n_f - 1:
            raise ScenarioValidationError(
                f"2*f1/delta_f = {twice} is at most n_f - 1 = {self.n_f - 1}: "
                "the band is too wide for the spectral fourth moment")

    # -- periodic time base ------------------------------------------------
    def cycle_ratio(self) -> Fraction:
        """f1/delta_f as an exact small fraction; the composite multi-tone
        signal is periodic only when this ratio is rational."""
        ratio = self.f1 / self.delta_f
        frac = Fraction(ratio).limit_denominator(10_000)
        if abs(float(frac) - ratio) > 1e-9 * max(1.0, ratio):
            raise ScenarioValidationError(
                "f1/delta_f is not a small rational: composite signal is not periodic")
        return frac

    def fundamental_period(self) -> float:
        return self.cycle_ratio().denominator / self.delta_f

    def quadrature_grid(self, degree: int) -> tuple[int, float]:
        """Sample count and spacing of ``quadrature_times(degree)``."""
        frac = self.cycle_ratio()
        p, q = frac.numerator, frac.denominator
        k = degree * (p + (self.n_f - 1) * q) + 1
        if k > 20_000_000:
            raise ScenarioValidationError("periodic sampling grid too large")
        period = q / self.delta_f
        return k, period / k

    def quadrature_times(self, degree: int) -> np.ndarray:
        """Uniform samples over one fundamental period whose discrete mean is
        exact for any trigonometric polynomial of the tones up to ``degree``.

        Every frequency in ``y(t)**degree`` is an integer multiple of
        ``delta_f/q``; with more samples per period than the largest multiple,
        no component aliases onto DC.
        """
        k, step = self.quadrature_grid(degree)
        times = np.arange(k, dtype=float)
        times *= step  # in place: no integer copy beside the float one
        return times

    def nyquist_grid(self, duration: float) -> tuple[int, float]:
        """Sample count and spacing of ``nyquist_times(duration)``."""
        rate = 2.0 * self.f_max
        k = int(round(duration * rate))
        if k > 50_000_000:
            raise ScenarioValidationError("sampling grid too large")
        return k, 1.0 / rate

    def nyquist_period(self) -> int:
        """Samples in one fundamental period of ``nyquist_times``.

        With ``f1/delta_f = p/q``, tone n advances ``(p + (n-1)*q)/K`` cycles
        per sample at the rate ``2*f_max``, where ``K = 2*(p + (n_f-1)*q)``,
        so the sampled sequence repeats exactly every ``K`` samples.
        """
        frac = self.cycle_ratio()
        return 2 * (frac.numerator + (self.n_f - 1) * frac.denominator)

    def nyquist_times(self, duration: float) -> np.ndarray:
        """Samples at exactly twice the highest tone over ``duration``."""
        k, step = self.nyquist_grid(duration)
        times = np.arange(k, dtype=float)
        times *= step
        return times


@dataclass(frozen=True)
class ReceiverSpec:
    """An energy-harvesting device: position and required DC power."""

    position: np.ndarray   # [3] meters
    eh_requirement: float  # watts

    def validate(self):
        if np.asarray(self.position).shape != (3,):
            raise ScenarioValidationError("receiver position must be a 3-vector")
        if self.eh_requirement <= 0:
            raise ScenarioValidationError("EH requirement must be positive")
        # Elements lie in the z=0 plane and radiate only into z > 0, so this
        # also rules out a receiver on top of an element.
        if not np.asarray(self.position)[2] > 0.0:
            raise ScenarioValidationError(
                "receiver must lie in front of the array (z > 0)")


@dataclass(frozen=True)
class DeviceParams:
    """HPA and rectifier characteristics shared by transmitter and receivers.

    ``k2`` and ``k4`` are the fourth-order Taylor coefficients of the rectifier
    output voltage, derived from the antenna resistance, diode ideality and
    thermal voltage.
    """

    hpa_gain: float = 1.0
    hpa_max_efficiency: float = math.pi / 4.0
    hpa_saturation_power: float = 1.0      # watts
    rect_antenna_resistance: float = 50.0  # ohms
    rect_load_resistance: float = 50.0     # ohms
    rect_thermal_voltage: float = 25e-3    # volts
    rect_ideality: float = 1.05
    boresight_gain: float = 0.0

    @property
    def k2(self) -> float:
        vt = self.rect_ideality * self.rect_thermal_voltage
        return self.rect_antenna_resistance / (2.0 * vt)

    @property
    def k4(self) -> float:
        vt = self.rect_ideality * self.rect_thermal_voltage
        return self.rect_antenna_resistance ** 2 / (24.0 * vt ** 3)

    def validate(self):
        for name in ("hpa_gain", "hpa_max_efficiency", "hpa_saturation_power",
                     "rect_antenna_resistance", "rect_load_resistance",
                     "rect_thermal_voltage", "rect_ideality"):
            if getattr(self, name) <= 0:
                raise ScenarioValidationError(f"{name} must be positive")
        if self.hpa_max_efficiency > 1.0:
            raise ScenarioValidationError("hpa_max_efficiency must lie in (0, 1]")
        if self.boresight_gain < 0:
            raise ScenarioValidationError("boresight_gain must be >= 0")


@dataclass(frozen=True)
class MicrostripParams:
    """Waveguide propagation constants for the DMA feed lines."""

    attenuation: float = 0.356    # alpha [1/m]
    propagation: float = 202.19   # beta [1/m]

    def validate(self):
        if self.attenuation < 0:
            raise ScenarioValidationError("microstrip attenuation must be >= 0")
        if self.propagation <= 0:
            raise ScenarioValidationError("microstrip propagation constant must be positive")


@dataclass(frozen=True)
class SolverSettings:
    sca_rel_tol: float = 1e-6          # upsilon: relative SCA/outer stop
    init_seed_amplitude: float = 1e-3  # tau_s: amplitude ramp seed
    init_ramp_factor: float = 5.0      # varsigma: amplitude ramp multiplier
    max_outer_iters: int = 50
    max_sca_iters: int = 60

    def validate(self):
        for name in ("sca_rel_tol", "init_seed_amplitude"):
            if getattr(self, name) <= 0:
                raise ScenarioValidationError(f"{name} must be positive")
        if self.init_ramp_factor <= 1.0:
            raise ScenarioValidationError("init_ramp_factor must exceed 1")
        if self.max_outer_iters < 1 or self.max_sca_iters < 1:
            raise ScenarioValidationError("iteration caps must be >= 1")


# Scenario sections held by one dataclass each; its fields are the section's
# keys, in both the text format and the JSON export.
SECTIONS = {"device": DeviceParams, "microstrip": MicrostripParams,
            "solver": SolverSettings}

# The keys that no dataclass holds, as ``to_dict`` writes them: "" is the top
# level, "receiver" each entry of its receiver list.
KEYS = {"": ("array", "frequency", "receivers", *SECTIONS, "seed"),
        "array": ("architecture", "length"),
        "frequency": ("f1", "n_tones", "delta_f", "bandwidth"),
        "receiver": ("position", "eh_requirement")}

# Keys that older writers wrote and the reader drops: the array dimensions
# that ``build_array`` derives, and the retired interior-point tolerance.
LEGACY_KEYS = {"array": ("n_v", "n_h", "inter_element_dx", "inter_row_dy"),
               "solver": ("cone_solver_kkt_tol",)}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated problem instance; safe to share across workers."""

    array: ArraySpec
    frequency: FrequencyPlan
    receivers: tuple[ReceiverSpec, ...]
    device: DeviceParams = DeviceParams()
    microstrip: MicrostripParams = MicrostripParams()
    solver: SolverSettings = SolverSettings()
    seed: int = 0

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    @property
    def eh_targets(self) -> np.ndarray:
        return np.array([r.eh_requirement for r in self.receivers], dtype=float)

    def voltage_targets(self) -> np.ndarray:
        """Per-receiver rectifier output voltage needed: sqrt(R_L * Pbar)."""
        return np.sqrt(self.device.rect_load_resistance * self.eh_targets)

    def validate(self):
        self.array.validate()
        self.frequency.validate()
        self.device.validate()
        self.microstrip.validate()
        self.solver.validate()
        if not self.receivers:
            raise ScenarioValidationError("at least one receiver is required")
        for r in self.receivers:
            r.validate()
        if self.array.rf_chain_count < self.n_receivers:
            raise ScenarioValidationError(
                "RF chain count must be >= number of receivers")

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "array": {"architecture": self.array.architecture.value,
                      "length": self.array.antenna_length},
            "frequency": {"f1": self.frequency.f1, "n_tones": self.frequency.n_f,
                          "delta_f": self.frequency.delta_f},
            "receivers": [
                {"position": list(map(float, r.position)), "eh_requirement": r.eh_requirement}
                for r in self.receivers
            ],
            **{name: asdict(getattr(self, name)) for name in SECTIONS},
            "seed": self.seed,
        }

    def content_hash(self) -> str:
        return _digest(self.to_dict())

    def with_solver(self, **kwargs) -> "ScenarioConfig":
        return replace(self, solver=replace(self.solver, **kwargs))


def _digest(payload: dict) -> str:
    """sha256 of ``payload`` as sorted JSON: the scenario and artifact hashes."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _number(section: str, key: str, value, kind: type = float):
    """``value`` as a finite float, or as a whole number where ``kind`` is int;
    anything else (a JSON ``true`` included) is a parse error that names the
    section and key."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or (kind is int and not number.is_integer()):
        what = "a whole number" if kind is int else "a finite number"
        raise ScenarioParseError(f"[{section}] {key} = {value!r} is not {what}")
    return kind(number)


def _known(section: str, raw: dict, keys, required=()) -> dict:
    """``raw`` without ``section``'s legacy keys; a key outside ``keys``, or a
    missing ``required`` key, is a parse error that names the section and key."""
    legacy = LEGACY_KEYS.get(section, ())
    for key in raw:
        if key not in keys and key not in legacy:
            raise ScenarioParseError(f"[{section}] unknown key {key!r}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ScenarioParseError(f"[{section}] missing keys: {missing}")
    return {k: v for k, v in raw.items() if k not in legacy}


def _read_section(name: str, raw: dict):
    """Build section ``name``'s dataclass; its fields are the only keys."""
    kinds = {f.name: type(f.default) for f in fields(SECTIONS[name])}
    return SECTIONS[name](**{k: _number(name, k, v, kinds[k])
                             for k, v in _known(name, raw, kinds).items()})


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a scenario from its ``to_dict`` form; both file
    formats load through here. Its keys are ``KEYS`` and the ``SECTIONS``
    fields, and ``LEGACY_KEYS`` are dropped. An unknown section or key, a
    missing [array], [frequency] or receiver key, or a value that is not a
    finite (whole) number is a parse error naming the section and key; list
    entry i, counted from 1, is ``[receiver.<i>]``."""
    try:
        for name in data:
            if name not in KEYS[""]:
                raise ScenarioParseError(f"unknown section [{name}]")
        for name in ("array", "frequency"):
            if name not in data:
                raise ScenarioParseError(f"missing required section [{name}]")
        arr = _known("array", data["array"], KEYS["array"])
        freq = _known("frequency", data["frequency"], KEYS["frequency"])
        f1 = _number("frequency", "f1", freq.get("f1"))
        n_f = _number("frequency", "n_tones", freq.get("n_tones", 1), int)
        if "delta_f" in freq:
            plan = FrequencyPlan(f1, n_f, _number("frequency", "delta_f", freq["delta_f"]))
        elif "bandwidth" in freq:
            plan = FrequencyPlan.from_bandwidth(
                f1, _number("frequency", "bandwidth", freq["bandwidth"]), n_f)
        else:
            raise ScenarioParseError("[frequency] needs delta_f or bandwidth")
        array = build_array(Architecture(arr.get("architecture", "fd").lower()),
                            _number("array", "length", arr.get("length")), f1)
        receivers = []
        for i, r in enumerate(data.get("receivers", []), start=1):
            name = f"receiver.{i}"
            _known(name, r, KEYS["receiver"], required=KEYS["receiver"])
            receivers.append(ReceiverSpec(
                _readonly(np.array([_number(name, "position", x) for x in r["position"]])),
                _number(name, "eh_requirement", r["eh_requirement"])))
        sections = {name: _read_section(name, data.get(name, {})) for name in SECTIONS}
        seed = _number("solver", "seed", data.get("seed", 0), int)
    except ScenarioError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad scenario data: {exc}") from exc
    cfg = ScenarioConfig(array, plan, tuple(receivers), seed=seed, **sections)
    cfg.validate()
    return cfg


# A text receiver is a ``[receiver.<k>]`` section with these keys, read in the
# order of k: x, y, z make its position and p_target its eh_requirement.
_RECEIVER_KEYS = ("x", "y", "z", "p_target")


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario from a text (.cfg/.ini) or .json file.

    The text format is sectioned key/value, with ``seed`` in ``[solver]``.
    Its reader only translates it to the ``to_dict`` form (and names a text
    receiver's own keys), so :func:`scenario_from_dict` checks both formats
    alike. See README for the full schema.
    """
    path = str(path)
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"{path}: cannot read: {exc}") from exc
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        return scenario_from_dict(data)

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ScenarioParseError(str(exc)) from exc

    data, receivers = {}, {}
    for name in parser.sections():
        raw = dict(parser.items(name))
        receiver = re.fullmatch(r"receiver\.(0|[1-9][0-9]*)", name)
        if receiver:
            _known(name, raw, _RECEIVER_KEYS, required=_RECEIVER_KEYS)
            receivers[int(receiver[1])] = {
                "position": [_number(name, k, raw[k]) for k in "xyz"],
                "eh_requirement": _number(name, "p_target", raw["p_target"])}
        elif name in ("receivers", "seed"):  # top-level keys, not text sections
            raise ScenarioParseError(f"unknown section [{name}]")
        else:
            if name == "solver" and "seed" in raw:
                data["seed"] = raw.pop("seed")
            data[name] = raw
    data["receivers"] = [receivers[k] for k in sorted(receivers)]
    return scenario_from_dict(data)


def save_scenario(config: ScenarioConfig, path) -> None:
    """Write a scenario back out; format chosen by extension (.json or text)."""
    path = str(path)
    data = config.to_dict()
    if path.endswith(".json"):
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    data["solver"]["seed"] = data.pop("seed")
    for i, r in enumerate(data.pop("receivers"), start=1):
        data[f"receiver.{i}"] = {**dict(zip("xyz", r["position"])),
                                 "p_target": r["eh_requirement"]}
    with open(path, "w") as fh:
        for name, values in data.items():
            fh.write(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()) + "\n")
