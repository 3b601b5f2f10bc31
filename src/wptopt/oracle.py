"""Independent verification paths: time sampling, finite differences,
exhaustive small-instance search, an angle-form channel, and spatial field
maps.

Everything here validates the frequency-domain formulas from the outside:
received signals are synthesized over one signal period by one inverse FFT,
on whose grid every tone is an exact DFT bin, gradients are re-derived by
central differences of a voltage the caller supplies, tiny instances are
optimized by brute force, and single channel coefficients are evaluated from
the element's angle off boresight. None of these routines share code with
the closed-form paths they check. ``field_map`` is not a check but the
``fieldmap`` command's map; it evaluates the element pattern by
``channel.cosine_profile``, the formula ``build_channel`` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import build_channel, cosine_profile
from .linearize import LinearizedVoltage
from .power import chain_norm_scales
from .scenario import SPEED_OF_LIGHT, Architecture, FrequencyPlan, ScenarioConfig
from .transmitter import DmaState, Waveform, effective_rows


@dataclass(frozen=True)
class SampledSignal:
    """Real samples of a received (or radiated) signal over one period."""

    sample_rate: float
    samples: np.ndarray = field(repr=False)
    duration: float

    def moment(self, order: int) -> float:
        """Mean of ``y**order`` for ``order >= 1``, by repeated products:
        numpy's float power takes a slow path for exponents other than 2
        (1.1 ms for ``y**4`` on 16,605 samples, against 23 us)."""
        power = self.samples
        for _ in range(order - 1):
            power = power * self.samples
        return float(np.mean(power))

    def papr(self) -> float:
        """Peak-to-average power ratio of the sampled waveform."""
        p = self.samples ** 2
        return float(np.max(p) / np.mean(p))


def synthesize_received(plan: FrequencyPlan, hpa_gain: float,
                        s: np.ndarray) -> SampledSignal:
    """Sample the exact received signal ``G * Re sum_n s_n e^{j2pi f_n t}`` of
    the tone spectrum ``s`` (one entry per tone of ``plan``) over one period.

    The grid is ``quadrature_times(degree=4)``: ``k`` samples over one period
    ``q/delta_f``, where ``f1/delta_f = p/q``. It is dense enough that
    discrete means of powers up to ``y**4`` are exact, so the sampled moments
    are quadratures, not approximations. Tone ``n`` makes ``p + n*q < k/2``
    whole cycles per period, so it is exactly that bin of a ``k``-point DFT,
    and the samples are one inverse real FFT of a spectrum holding
    ``k*s_n/2`` in those bins. The phases come from integer bins, so no
    carrier-scale argument is rounded.
    """
    k, step = plan.quadrature_grid(degree=4)
    ratio = plan.cycle_ratio()
    spectrum = np.zeros(k // 2 + 1, dtype=complex)
    spectrum[ratio.numerator + ratio.denominator * np.arange(plan.n_f)] = 0.5 * k * s
    # numpy.fft is imported on first use, so importing the CLI does not load it
    y = hpa_gain * np.fft.irfft(spectrum, n=k)
    return SampledSignal(sample_rate=1.0 / step, samples=y,
                         duration=plan.fundamental_period())


def time_domain_moments(spectrum: np.ndarray, tones: np.ndarray,
                        period_samples: np.ndarray, hpa_gain: float = 1.0):
    """Second and fourth moments of ``G * sum Re{s_n e^{j2pi f_n t}}`` by
    direct sampling; the independent check of the spectral formulas."""
    phases = np.exp(2j * np.pi * np.outer(period_samples, tones))
    y = hpa_gain * np.real(phases @ np.asarray(spectrum, dtype=complex))
    return float(np.mean(y ** 2)), float(np.mean(y ** 4))


def moment4_enumerated(s: np.ndarray, hpa_gain: float = 1.0) -> float:
    """Reference O(n_f^4) evaluation of the quadruple sum over
    ``n0 + n1 = n2 + n3``; the check of ``rectenna.moment4_from_spectrum``."""
    s = np.asarray(s, dtype=complex)
    n_f = len(s)
    acc = 0.0 + 0.0j
    for n0 in range(n_f):
        for n1 in range(n_f):
            for n2 in range(n_f):
                n3 = n0 + n1 - n2
                if 0 <= n3 < n_f:
                    acc += s[n0] * s[n1] * np.conj(s[n2]) * np.conj(s[n3])
    return float(3.0 * hpa_gain ** 4 / 8.0 * acc.real)


def spectrum_gradient_enumerated(s: np.ndarray, hpa_gain: float,
                                 k2: float, k4: float) -> np.ndarray:
    """``d v_o / d conj(s_n)`` assembled by walking the quadruple index set
    term by term; the check of ``rectenna.voltage_and_gradient``."""
    s = np.asarray(s, dtype=complex)
    n_f = len(s)
    grad4 = np.zeros(n_f, dtype=complex)
    for n0 in range(n_f):
        for n1 in range(n_f):
            for n2 in range(n_f):
                n3 = n0 + n1 - n2
                if not 0 <= n3 < n_f:
                    continue
                # conjugated slots n2, n3 of s0*s1*conj(s2)*conj(s3)
                grad4[n2] += s[n0] * s[n1] * np.conj(s[n3])
                grad4[n3] += s[n0] * s[n1] * np.conj(s[n2])
    return (k2 * hpa_gain ** 2 / 2.0) * s + (k4 * 3.0 * hpa_gain ** 4 / 8.0) * grad4


# ---------------------------------------------------------------------------
# finite-difference gradient checks
# ---------------------------------------------------------------------------

def _central_difference(fun, x0: np.ndarray, direction: np.ndarray, step: float) -> float:
    return (fun(x0 + step * direction) - fun(x0 - step * direction)) / (2.0 * step)


def check_gradient(lin: LinearizedVoltage, voltage, step=1e-6, n_directions=8,
                   seed=0) -> float:
    """Max relative error of the tangent model ``lin`` against central
    differences of ``voltage`` (a callable of the point) at its expansion
    point, over random complex directions."""
    rng = np.random.default_rng(seed)
    x0 = lin.expansion_point
    worst = 0.0
    for _ in range(n_directions):
        d = rng.normal(size=x0.shape) + 1j * rng.normal(size=x0.shape)
        d /= np.linalg.norm(d)
        num = _central_difference(voltage, x0, d, step)
        ana = lin.action(d)
        worst = max(worst, abs(num - ana) / max(abs(num), 1e-10))
    return worst


# ---------------------------------------------------------------------------
# channel coefficients from the angle off boresight
# ---------------------------------------------------------------------------

def radiation_profile(theta, boresight_gain: float = 0.0):
    """Element gain pattern ``G_t * cos(theta)**(G_t/2 - 1)`` on the front
    hemisphere ``0 <= theta <= pi/2``, zero behind the array; ``G_t =
    2*(b+1)``. The angle form of ``channel.cosine_profile``."""
    theta = np.asarray(theta, dtype=float)
    gt = 2.0 * (boresight_gain + 1.0)
    front = (theta >= 0.0) & (theta <= np.pi / 2.0)
    out = np.where(front, gt * np.cos(np.where(front, theta, 0.0)) ** (gt / 2.0 - 1.0), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def channel_coefficient(element_pos, receiver_pos, wavelength: float,
                        boresight_gain: float = 0.0) -> complex:
    """Complex LoS gain between one element and one receiver at one tone,
    through the angle ``theta = acos(dz/d)``; one entry of
    ``channel.build_channel``'s tensor, evaluated on its own."""
    delta = np.asarray(receiver_pos, dtype=float) - np.asarray(element_pos, dtype=float)
    d = float(np.linalg.norm(delta))
    if d <= 0.0:
        raise ValueError("receiver coincides with the array element")
    theta = math.acos(np.clip(delta[2] / d, -1.0, 1.0))
    amp = math.sqrt(radiation_profile(theta, boresight_gain)) * wavelength / (4.0 * math.pi * d)
    return amp * np.exp(-2j * math.pi * d / wavelength)


# ---------------------------------------------------------------------------
# exhaustive small-instance optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BruteForceResult:
    best_objective: float          # best feasible consumption bound found
    best_waveform: np.ndarray | None
    feasible_found: bool
    samples: int


def closed_form_single(scenario: ScenarioConfig) -> tuple[float, float]:
    """Analytic optimum for a single-element, single-tone, single-receiver
    fully-digital instance.

    Solves the active harvesting constraint for |omega|^2 (quadratic in the
    squared magnitude) and returns ``(optimal |omega|, exact sampled P_c)``
    where the amplifier term uses the exact single-tone mean of |cos|, 2/pi.
    """
    if (scenario.array.architecture is not Architecture.FULLY_DIGITAL
            or scenario.array.n_elements != 1 or scenario.frequency.n_f != 1
            or scenario.n_receivers != 1):
        raise ValueError("closed form requires a 1-element, 1-tone, 1-receiver "
                         "fully-digital instance")
    dev = scenario.device
    channel = build_channel(scenario.array, scenario.receivers,
                            scenario.frequency, dev.boresight_gain)
    g = abs(channel.gamma.reshape(-1)[0])
    target = scenario.voltage_targets()[0]
    gg = dev.hpa_gain * g
    a2 = dev.k4 * 3.0 * gg ** 4 / 8.0
    a1 = dev.k2 * gg ** 2 / 2.0
    u = (-a1 + math.sqrt(a1 * a1 + 4.0 * a2 * target)) / (2.0 * a2)
    w_opt = math.sqrt(u)
    p_hpa = (math.sqrt(dev.hpa_saturation_power) / dev.hpa_max_efficiency
             * (2.0 / math.pi) * dev.hpa_gain * w_opt)
    return w_opt, p_hpa + u


def brute_force_small(scenario: ScenarioConfig, n_samples: int = 100_000,
                      seed: int | None = None) -> BruteForceResult:
    """Dense random search over waveform weights for tiny instances.

    Phases are uniform; amplitudes are log-uniform between the ramp seed and
    an amplitude cap. Feasibility is checked with the exact rectifier model;
    the reported objective is the convex consumption bound, the same measure
    the optimizer minimizes.
    """
    if scenario.array.n_elements > 2 or scenario.frequency.n_f > 2 \
            or scenario.n_receivers != 1:
        raise ValueError("brute force supports N <= 2, n_f <= 2, M = 1 only")
    dev = scenario.device
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    channel = build_channel(scenario.array, scenario.receivers,
                            scenario.frequency, dev.boresight_gain)
    rows = effective_rows(channel, scenario.array)[0]   # [n_f, n_rf]
    n_rf, n_f = scenario.array.rf_chain_count, scenario.frequency.n_f
    target = scenario.voltage_targets()[0]
    scales = chain_norm_scales(None, n_rf, dev.hpa_gain,
                               dev.hpa_saturation_power, dev.hpa_max_efficiency)
    lo, hi = np.log(scenario.solver.init_seed_amplitude), np.log(10.0)
    best = (np.inf, None)
    block = 4096
    done = 0
    while done < n_samples:
        k = min(block, n_samples - done)
        amps = np.exp(rng.uniform(lo, hi, size=(k, n_rf, n_f)))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, n_rf, n_f))
        omega = amps * np.exp(1j * phases)
        s = np.einsum("nc,kcn->kn", rows, omega)
        m2 = dev.hpa_gain ** 2 / 2.0 * np.sum(np.abs(s) ** 2, axis=1)
        if n_f == 1:
            sum_t = np.abs(s[:, 0]) ** 4
        else:
            sum_t = (np.abs(s[:, 0] ** 2) ** 2 + np.abs(2.0 * s[:, 0] * s[:, 1]) ** 2
                     + np.abs(s[:, 1] ** 2) ** 2)
        m4 = 3.0 * dev.hpa_gain ** 4 / 8.0 * sum_t
        v = dev.k2 * m2 + dev.k4 * m4
        feasible = v >= target
        if np.any(feasible):
            obj = (np.linalg.norm(omega, axis=2) @ scales
                   + np.sum(np.abs(omega) ** 2, axis=(1, 2)))
            obj = np.where(feasible, obj, np.inf)
            j = int(np.argmin(obj))
            if obj[j] < best[0]:
                best = (float(obj[j]), omega[j].copy())
        done += k
    return BruteForceResult(best_objective=best[0], best_waveform=best[1],
                            feasible_found=best[1] is not None, samples=n_samples)


# ---------------------------------------------------------------------------
# spatial field maps
# ---------------------------------------------------------------------------

# Cell-column pairs per field-map block (a column holds the elements that every
# cell sees alike; see field_map), about 100 bytes each, so a block fits a 2 MB
# L2 cache. The verify benchmark's 2 cm map (16 columns) took 24 ms at 2**14 and
# 2**15, 27 ms at 2**13, 33 ms at 2**16 and 75 ms at 2**11.
MAP_CHUNK = 1 << 14
MAX_MAP_CELLS = 4_000_000  # cells a plane may hold, about 2,000 x 2,000


@dataclass(frozen=True)
class PlaneSpec:
    """Vertical slice y = y_offset sampled on a regular x/z grid."""

    x_min: float
    x_max: float
    z_min: float
    z_max: float
    resolution: float
    y_offset: float = 0.0

    def validate(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.z_min, self.z_max,
                                       self.resolution, self.y_offset))):
            raise ValueError("plane bounds, resolution and offset must be finite")
        if self.resolution <= 0:
            raise ValueError("plane resolution must be positive")
        if self.x_max < self.x_min or self.z_max < self.z_min:
            raise ValueError("plane extent is empty")
        if self.z_min <= 0:
            raise ValueError("plane must lie strictly in front of the array (z > 0)")
        cells = math.prod(math.ceil(min((hi + 1e-12 - lo) / self.resolution, MAX_MAP_CELLS + 1))
                          for lo, hi in ((self.x_min, self.x_max), (self.z_min, self.z_max)))
        if cells > MAX_MAP_CELLS:  # grid()'s np.arange lengths, counted without allocating
            raise ValueError(f"plane has more than {MAX_MAP_CELLS:,} cells")

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        self.validate()
        xs = np.arange(self.x_min, self.x_max + 1e-12, self.resolution)
        zs = np.arange(self.z_min, self.z_max + 1e-12, self.resolution)
        return xs, zs


@dataclass(frozen=True)
class FieldMap:
    plane: PlaneSpec
    xs: np.ndarray = field(repr=False)
    zs: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)  # [len(zs), len(xs)] normalized power

    def argmax_position(self) -> tuple[float, float]:
        iz, ix = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return float(self.xs[ix]), float(self.zs[iz])

    def to_csv(self, path) -> None:
        """A header line of the x positions, then per z row its z and its
        values (``%.9e``), comma-separated. Each axis's positions take the
        shortest ``%.{p}g``, p >= 6, that keeps them apart. A row whose every
        value has an exact text from :func:`_scientific` is copied from it;
        any other row is formatted by Python."""
        header = "x/z," + ",".join(_labels(self.xs))
        text, exact = _scientific(self.values)
        cells = ",".join(["%.9e"] * len(self.xs))
        rows = [z + "," + (line.tobytes()[:-1].decode("ascii") if fast
                           else cells % tuple(values.tolist()))
                for z, line, fast, values in zip(_labels(self.zs), text, exact, self.values)]
        with open(path, "w") as fh:
            fh.write(header + "\n" + "\n".join(rows) + "\n")


def _labels(coords: np.ndarray) -> list[str]:
    """``coords`` as the shortest ``%.{p}g`` texts, p >= 6, that are as many
    as the distinct coordinates (``%.17g`` keeps any two floats apart)."""
    values = coords.tolist()
    distinct = len(set(values))
    for p in range(6, 18):
        labels = [f"{v:.{p}g}" for v in values]
        if len(set(labels)) >= distinct:
            break
    return labels


# Values per block of _scientific, which keeps its temporaries in cache and
# off freshly mapped pages. On a 2-CPU x86-64 host, 188 x 151 values took
# 0.97 ms at 2**13, 1.0 ms at 2**12, 1.5 ms at 2**14 and 1.6 ms as one block.
FORMAT_CHUNK = 1 << 13

# A value's '%.9e' text and separator as eight two-byte pieces, "d." "dd" "dd"
# "dd" "dd" "de", then its exponent e in [-13, 32] and "," as one four-byte piece.
_POW10 = 10.0 ** np.arange(23)                       # exact up to 10**22
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_LEAD = np.frombuffer("".join(f"{i}." for i in range(10)).encode(), np.uint16)
_TAIL = np.frombuffer("".join(f"{i}e" for i in range(10)).encode(), np.uint16)
_EXPONENT = np.frombuffer("".join(f"{e:+03d}," for e in range(-13, 33)).encode(), np.uint32)


def _scientific(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's ``'%.9e'`` text followed by ``','``, as ``[rows, cols,
    16]`` bytes, and the rows where every one of those texts is exactly
    Python's; the texts of other rows are unspecified.

    A finite ``v > 0`` with ``e = floor(log10 v)`` and ``k = 9 - e`` in
    [-22, 22] has its mantissa ``m = v * 10**k`` (or ``v / 10**-k``) from one
    correctly rounded product of exact operands, so ``m`` is off the exact
    value by at most half a unit in its last place, below 1.2e-6 for
    ``m < 1e10``. Where ``1e9 <= m < 1e10`` (``log10`` was not one off) and
    ``m`` lies more than 1e-5 from a tie, ``rint(m)`` is the correctly
    rounded ten-digit mantissa; one that rounds up to ``1e10`` carries into
    the exponent. The bound on ``k`` keeps the exponent in [-13, 32], two
    digits. ``+0.0`` is ``0.000000000e+00``. Any other value (negative,
    ``-0.0``, NaN, infinite, subnormal, far from 1, near a tie) is not
    exact."""
    v = np.asarray(values, dtype=float)
    flat = v.reshape(-1)
    out = np.empty((flat.size, 8), np.uint16)
    exact = np.empty(flat.size, dtype=bool)
    for start in range(0, flat.size, FORMAT_CHUNK):
        part = slice(start, start + FORMAT_CHUNK)
        exact[part] = _fill_scientific(flat[part], out[part])
    return out.view(np.uint8).reshape(v.shape + (16,)), exact.reshape(v.shape).all(axis=-1)


def _fill_scientific(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the texts of the flat values ``v`` into ``out`` [len(v), 8] and
    return where they are exact (:func:`_scientific`)."""
    with np.errstate(all="ignore"):      # the values that warn are not exact
        k = 9.0 - np.floor(np.log10(v))  # NaN below 0 and for NaN, +-inf at 0 and inf
        exact = np.abs(k) <= 22.0
        zero = (v == 0.0) & ~np.signbit(v)
        k[~exact] = 9.0                  # so +0.0 reads as 0 * 10**9 at exponent 0
        k = k.astype(np.intp)
        up = np.maximum(k, 0)
        m = v * _POW10.take(up) / _POW10.take(up - k)   # one of the factors is 1
        digits = np.rint(m)
        # the range, not log10's accuracy, makes m the mantissa
        exact &= (m >= 1e9) & (m < 1e10) & (np.abs(m - digits) < 0.5 - 1e-5)
    exact |= zero
    digits[~exact] = 1e9                 # any ten digits
    carry = digits == 1e10
    digits[carry] = 1e9
    low = digits.astype(np.intp)
    high = low // 100_000                # d0..d4
    low -= high * 100_000                # d5..d9
    lead = high // 10_000
    high -= lead * 10_000
    pair = high // 100
    out[:, 0] = _LEAD.take(lead)
    out[:, 1] = _PAIRS.take(pair)
    out[:, 2] = _PAIRS.take(high - pair * 100)
    pair = low // 1000
    low -= pair * 1000
    out[:, 3] = _PAIRS.take(pair)
    pair = low // 10
    out[:, 4] = _PAIRS.take(pair)
    low -= pair * 10
    out[:, 5] = _TAIL.take(low)
    out.view(np.uint32)[:, 3] = _EXPONENT.take(22 - k + carry)   # e + 13 = 9 - k + carry + 13
    return exact


def field_map(scenario: ScenarioConfig, waveform: Waveform,
              dma: DmaState | None, plane: PlaneSpec) -> FieldMap:
    """Received RF power over a spatial grid, normalized per cell.

    Each grid cell acts as a probe receiver; its mean received RF power is
    divided by the cell's path loss, evaluated as the aperture average of the
    per-element power gains ``F(theta_k) * (lambda1/(4 pi d_k))^2`` at the
    lowest tone. A uniformly illuminating transmitter maps flat; against a
    center-referenced divisor, the aperture average also cancels the
    first-order obliquity tilt, so a focused beam peaks at the focus rather
    than slightly beyond it.

    No channel tensor is built. Element k's coefficient at tone n (counted
    from 0) factors into ``g_k * lambda_n * e_k * r_k**n``, with
    ``g_k = sqrt(F(theta_k)) / (4 pi d_k)``, the lowest tone's phasor
    ``e_k = exp(-j 2 pi d_k / lambda1)`` and the tone step
    ``r_k = exp(-j 2 pi delta_f d_k / c)``. So each cell and element costs two
    complex exponentials (:func:`_phasors`), and each further tone one complex
    multiply; the received tone is ``(g e r**n) @ (lambda_n x_n)``, with ``x``
    the element drive: ``omega`` for the fully-digital array, and for the DMA
    ``q h`` times the weight of the element's microstrip, the product that
    ``effective_rows`` folds into its chain rows. The values agree with the
    channel tensor's to about 1e-12 relative. ``d = sqrt(((x - ex)**2 + dy**2)
    + (z - ez)**2)`` adds parts taken once per x and once per z, in blocks of
    whole z rows of at most ``MAP_CHUNK`` cell-column pairs (longer rows split
    into parts of at least two cells, so every cell of a plane wider than one
    cell sums its tones by the same matrix-vector product).

    Elements with equal ``(x, (y_offset - y)**2, z)`` have the same distance
    and angle to every cell of the plane, so their drives are summed before
    the cell loop and the aperture-mean loss counts each such column by its
    multiplicity. On the array's symmetry plane this folds mirrored strips
    into one column (24 columns to 16 for a 3 x 8 DMA); off it, nothing folds.
    """
    dev, plan, arr = scenario.device, scenario.frequency, scenario.array
    if (dma is None) != (arr.architecture is Architecture.FULLY_DIGITAL):
        raise ValueError("a DMA state is required for, and only for, a DMA array")
    xs, zs = plane.grid()
    drive = waveform.omega                            # [N, n_f], element order
    if dma is not None:
        drive = np.repeat(drive, arr.n_h, axis=0) * (dma.q * dma.h).reshape(-1, 1)
    drive = drive * plan.wavelengths                  # [N, n_f]
    ex, ey, ez = arr.element_positions.reshape(-1, 3).T
    views = np.column_stack([ex, (plane.y_offset - ey) ** 2, ez]).tolist()
    columns: dict = {}                   # distinct view -> column, in element order
    group = [columns.setdefault(tuple(view), len(columns)) for view in views]
    counts = np.bincount(group)
    folded = np.zeros((len(columns), plan.n_f), dtype=complex)
    np.add.at(folded, group, drive)
    drive = np.ascontiguousarray(folded.T)            # [n_f, columns]
    ex, dy2, ez = np.array(list(columns)).T
    across = (xs[:, None] - ex) ** 2 + dy2            # [x, columns]
    dz = zs[:, None, None] - ez                       # [z, 1, columns]; > 0, in front
    p_rf, loss = np.zeros((len(zs), len(xs))), np.empty((len(zs), len(xs)))
    lambda1 = plan.wavelengths[0]
    # cells of a row per block, at least 2: a block of one cell would sum its
    # tones by a dot product, in another order than a matrix-vector product
    width = min(len(xs), max(2, MAP_CHUNK // len(ex)))
    rows = max(1, MAP_CHUNK // (width * len(ex)))
    cuts = list(range(0, len(xs), width))
    if len(xs) - cuts[-1] == 1 < len(cuts):
        cuts.pop()                       # a one-cell remainder joins its neighbour
    cuts.append(len(xs))
    blocks = [(slice(top, top + rows), slice(left, right))
              for top in range(0, len(zs), rows) for left, right in zip(cuts, cuts[1:])]
    for part in blocks:
        d = np.sqrt(across[part[1]] + dz[part[0]] ** 2)   # [rows, width, columns]
        g = np.sqrt(cosine_profile(dz[part[0]] / d, dev.boresight_gain)) / (4.0 * np.pi * d)
        phasor = _phasors(g, d * (1.0 / lambda1))
        advance = _phasors(1.0, d * (plan.delta_f / SPEED_OF_LIGHT))
        for n in range(plan.n_f):
            if n:
                phasor *= advance
            s = phasor @ drive[n]
            p_rf[part] += s.real ** 2 + s.imag ** 2
        loss[part] = np.sum((g * lambda1) ** 2 * counts, axis=-1) / arr.n_elements
    p_rf *= dev.hpa_gain ** 2 / 2.0
    values = np.where(loss > 0, p_rf / np.maximum(loss, 1e-300), 0.0)
    return FieldMap(plane=plane, xs=xs, zs=zs, values=values)


def _phasors(amplitude, cycles: np.ndarray) -> np.ndarray:
    """``amplitude * exp(-j 2 pi cycles)`` by the half-angle tangent.

    With ``t = tan(pi r)`` of the remainder ``r`` of ``cycles`` after the
    nearest whole number, the phasor is ``(1 - t**2 - 2j t) / (1 + t**2)``,
    to within a few units of 1e-16 even where ``t`` is large. numpy's
    float64 tangent is vectorized where its sine and cosine are not, so this
    takes about a third of the time of ``np.exp`` of the imaginary argument.
    """
    t = np.tan(np.pi * (cycles - np.rint(cycles)))
    t2 = t * t
    scale = amplitude / (1.0 + t2)
    out = np.empty(t.shape, dtype=complex)
    np.multiply(1.0 - t2, scale, out=out.real)
    np.multiply(-2.0 * t, scale, out=out.imag)
    return out
