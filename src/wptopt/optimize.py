"""Initialization and the alternating convex-restriction optimization loops.

The driver alternates two stages until the consumption objective settles:
a beam-focusing stage that maximizes the minimum linearized output voltage
over the Lorentzian disks, and a waveform stage that minimizes the convex
consumption bound subject to linearized harvesting constraints. Both stages
repeat solve/re-linearize until their objectives move by less than the
configured relative tolerance. Because every linearization is a global
underestimator of the true output voltage, each accepted waveform iterate
satisfies the exact non-linear harvesting constraints.

Both restrictions are solved through their small duals, and each step
certifies its point with a primal-dual gap (Boyd & Vandenberghe, *Convex
Optimization*, ch. 5): every waveform restriction through its
M-dimensional dual by :func:`waveform_step.dual_step`, and every focusing
restriction through its dual on the simplex of receiver prices by
:func:`focusing_step.focusing_step`. With one receiver the focusing dual
is a single point and the waveform dual's start a single ray, which each
step takes without the machinery of the general case, bit for bit the
general path's. No design calls the interior-point method of
:mod:`wptopt.socp`, and the tests certify both steps by the weak-duality
bounds of their restrictions, not against it.

Each stage builds its inputs once per transmitter state: the focusing stage
its element rows, the waveform stage its chain rows, chain scales and
voltage targets, and both their rows' conjugates for the linearizations.
The waveform stage returns the design it ends on, sharing those rows, so a
pass's candidate design builds none of its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelTensor, build_channel
from .dual_newton import ExitReason
from .focusing_step import FocusingStep, focusing_step
from .linearize import linearize_vo_in_q, linearize_vo_in_w
from .power import Design, chain_norm_scales
from .scenario import Architecture, ScenarioConfig
from .transmitter import DmaState, Waveform, element_rows
from .waveform_step import WaveformStep, dual_step, waveform_restriction

_AMP_CAP = 1e6


class OptimizationError(RuntimeError):
    """Optimization could not produce a feasible converged state."""


class UnmeetableRequirementError(OptimizationError):
    """EH targets unreachable: every receiver sees a zero channel, or the
    amplitude ramp cannot meet them within its cap."""


class TargetMissedError(OptimizationError):
    """The final state misses an EH target although the loop ended normally."""


class InfeasibleRestrictionError(OptimizationError):
    """The first step of a waveform stage found its restriction infeasible,
    or returned a point that violates it. A numerical failure, which ends the
    run: the output voltage is a degree-2 plus degree-4 form in ``w``, so
    each row's gradient has ``g_m . w = 2 k2 E[y^2] + 4 k4 E[y^4] > 0`` and
    scaling the waveform up meets every row. (The focusing restriction cannot
    raise it: its disks always hold the expansion point.)"""


# ---------------------------------------------------------------------------
# initialization (chain allocation, element phases, amplitude ramp)
# ---------------------------------------------------------------------------

@dataclass
class InitPlan:
    """Chain-to-receiver allocation used only during initialization."""

    z: np.ndarray                    # allocation coefficient per receiver
    chain_sets: list[list[int]]      # disjoint RF-chain indices per receiver
    strongest_tone: np.ndarray       # per-receiver strongest sub-carrier index
    w_amp: np.ndarray | None = None  # final ramp amplitude per receiver


def allocate_chains(channel: ChannelTensor, m_count: int, n_rf: int) -> InitPlan:
    """Dedicate RF chains to receivers, weakest channels first.

    Every receiver first gets its own chain; the surplus is granted in
    descending order of ``z_m = 1 - |gamma_m| / sum |gamma|`` (evaluated at
    each receiver's strongest tone), ``ceil(z_m * surplus)`` at a time until
    the chains run out; a receiver whose quota is 0 takes all that remain.
    """
    if m_count != channel.n_receivers:
        raise ValueError("receiver count does not match the channel tensor")
    if n_rf < m_count:
        raise OptimizationError("need at least one RF chain per receiver")
    norms = channel.vector_norms()               # [M, n_f]
    n_star = np.argmax(norms, axis=1)
    best = norms[np.arange(m_count), n_star]
    total = float(np.sum(best))
    if total <= 0.0:
        raise UnmeetableRequirementError("all receivers see a zero channel")
    z = 1.0 - best / total
    sets = [[m] for m in range(m_count)]
    surplus = n_rf - m_count
    quota = np.ceil(z * surplus).astype(int)
    next_chain = m_count
    for m in sorted(range(m_count), key=lambda m: (-z[m], m)):
        remaining = n_rf - next_chain
        take = min(int(quota[m]), remaining) if quota[m] else remaining
        sets[m] += range(next_chain, next_chain + take)
        next_chain += take
    return InitPlan(z=z, chain_sets=sets, strongest_tone=n_star)


def phase_search(coeffs):
    """Phase that rotates each coefficient onto the positive real axis,
    ``-arg(c)`` wrapped to [0, 2*pi); elementwise, and 0 for ``c = 0``."""
    return np.mod(-np.angle(coeffs), 2.0 * np.pi)


def init_q_phases(channel: ChannelTensor, plan: InitPlan,
                  scenario: ScenarioConfig) -> DmaState:
    """Tune each allocated element so the phase of ``q * h * gamma`` at the
    owner's strongest tone is as close to zero as possible.

    On the Lorentzian circle ``q = sin(t) * exp(j*t)`` for ``t`` in [0, pi],
    so a target phase in (0, pi) is met exactly; any other target is best
    approached at ``q = 0``. Elements with a zero coefficient or on
    unallocated chains keep the maximum-amplitude weight ``q = j``.
    """
    if scenario.array.architecture is not Architecture.DMA:
        raise ValueError("element phases only exist for the DMA architecture")
    n_v, n_h = scenario.array.n_v, scenario.array.n_h
    template = DmaState.from_phases(np.full((n_v, n_h), np.pi / 2.0),
                                    scenario.array.inter_element_dx,
                                    scenario.microstrip)
    q = template.q.copy()
    for m, chains in enumerate(plan.chain_sets):
        tone = int(plan.strongest_tone[m])
        coeffs = template.h[chains] * channel.gamma[m, :, tone].reshape(n_v, n_h)[chains]
        t = phase_search(coeffs)
        aligned = np.maximum(np.sin(t), 0.0) * np.exp(1j * t)
        q[chains] = np.where(coeffs == 0, q[chains], aligned)
    return template.with_weights(q)


def _ramp(start: Design, omega_for, amp: np.ndarray) -> np.ndarray:
    """Grow ``amp[m]`` by the ramp factor until receiver ``m`` meets its
    target under the non-linear rectifier model; extra passes cover the
    coupling between receivers. ``omega_for(amp)`` builds the waveform that
    each trial puts on ``start``'s transmitter state."""
    scenario = start.scenario
    targets = scenario.voltage_targets()
    def voltages():
        return start.with_waveform(Waveform(omega_for(amp))).voltages()
    for _ in range(32):
        for m in range(len(amp)):
            while voltages()[m] < targets[m]:
                amp[m] *= scenario.solver.init_ramp_factor
                if amp[m] > _AMP_CAP:
                    raise UnmeetableRequirementError(
                        f"receiver {m}: EH target unreachable within amplitude cap")
        if np.all(voltages() >= targets):
            return amp
    raise UnmeetableRequirementError("amplitude ramp did not stabilize")


def init_digital_weights(scenario: ScenarioConfig, channel: ChannelTensor,
                         plan: InitPlan, dma: DmaState | None) -> Waveform:
    """Phase-align each allocated chain per tone, then grow per-receiver
    amplitudes geometrically until every harvesting target is met exactly
    under the non-linear rectifier model."""
    n_rf, n_f = scenario.array.rf_chain_count, scenario.frequency.n_f
    start = Design(scenario, Waveform.zeros(n_rf, n_f), dma, channel)
    phases = np.zeros((n_rf, n_f))
    owner = np.full(n_rf, -1, dtype=int)
    for m, chains in enumerate(plan.chain_sets):
        owner[chains] = m
        phases[chains] = phase_search(start.rows[m][:, chains].T)
    mask = owner >= 0

    def omega_for(amp_vec):
        om = np.zeros((n_rf, n_f), dtype=complex)
        om[mask] = amp_vec[owner[mask]][:, None] * np.exp(1j * phases[mask])
        return om

    plan.w_amp = _ramp(start, omega_for,
                       np.full(scenario.n_receivers, scenario.solver.init_seed_amplitude))
    return Waveform(omega_for(plan.w_amp))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass
class StageTrace:
    """The steps a stage accepted, in order. ``exit_reasons`` holds one
    entry per restriction step the stage made, including a final step whose
    result it discarded; it stays out of the artifact. A closed-form step
    counts 0 iterations, KKT residual 0 and exits on ``TOLERANCE``."""

    steps: list[WaveformStep | FocusingStep] = field(default_factory=list)
    exit_reasons: list[ExitReason] = field(default_factory=list)
    converged: bool = False

    @property
    def objectives(self) -> list[float]:
        return [step.primal for step in self.steps]

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def final_objective(self) -> float:
        return self.steps[-1].primal if self.steps else math.nan

    def accept(self, step: WaveformStep | FocusingStep, rel_tol: float) -> bool:
        """Append ``step``; the stage has converged once its objective moved
        by at most ``rel_tol`` from the previous step's."""
        self.converged = _relative_move(step.primal, self.final_objective) <= rel_tol
        self.steps.append(step)
        return self.converged


@dataclass
class OuterRecord:
    index: int
    p_c_bound: float          # consumption objective after the waveform stage
    min_voltage: float        # focusing-stage objective (nan for FD)
    q_sca_iters: int
    w_sca_iters: int
    eh_residual: float        # max_m(target_m - v_o_m), negative means slack
    q_seconds: float
    w_seconds: float
    solver_rel_gap: float = 0.0  # worst relative duality gap this pass


@dataclass
class RunTrace:
    records: list[OuterRecord] = field(default_factory=list)
    converged: bool = False
    final_p_dc: np.ndarray | None = None

    @property
    def p_c_values(self) -> np.ndarray:
        return np.array([r.p_c_bound for r in self.records])


def _relative_move(new: float, old: float) -> float:
    if not math.isfinite(old):
        return math.inf
    return abs(1.0 - new / old)


# ---------------------------------------------------------------------------
# SCA stages
# ---------------------------------------------------------------------------

def run_sca_w(scenario: ScenarioConfig, channel: ChannelTensor,
              dma: DmaState | None, w_init: Waveform) -> tuple[Design, StageTrace]:
    """Iterate the waveform restriction to convergence of the consumption bound.

    Every iterate remains feasible for the exact harvesting constraints; the
    objective is non-increasing because the expansion point itself is feasible
    for each restriction. Returns the design the stage ends on, which shares
    the stage's effective rows.
    """
    dev = scenario.device
    settings = scenario.solver
    start = Design(scenario, w_init, dma, channel)
    scales = chain_norm_scales(dma, w_init.n_rf, dev.hpa_gain, dev.hpa_saturation_power,
                               dev.hpa_max_efficiency)
    targets = scenario.voltage_targets()
    conj_rows = [np.conj(rows) for rows in start.rows]
    trace = StageTrace()
    w = w_init
    for _ in range(settings.max_sca_iters):
        lins = [linearize_vo_in_w(rows, w.omega.T, dev.k2, dev.k4, dev.hpa_gain, conj)
                for rows, conj in zip(start.rows, conj_rows)]
        restriction = waveform_restriction(lins, w, scales, targets)
        # Far from unit scale the dual overflows; its NaN point fails the
        # violation test below.
        with np.errstate(over="ignore", invalid="ignore"):
            step = dual_step(restriction)
        trace.exit_reasons.append(step.exit_reason)
        if step.exit_reason is ExitReason.INFEASIBLE:
            failure = "waveform restriction reported infeasible"
        elif not restriction.max_violation(step.x) <= 1e-7:  # NaN included
            failure = "waveform step returned a point that violates its restriction"
        else:
            failure = None
        if failure:
            if not trace.steps:
                raise InfeasibleRestrictionError(failure)
            break  # keep the last feasible iterate
        w = Waveform(step.omega)
        if trace.accept(step, settings.sca_rel_tol):
            break
    return start.with_waveform(w), trace


def run_sca_q(scenario: ScenarioConfig, channel: ChannelTensor,
              waveform: Waveform, q_init: DmaState) -> tuple[DmaState, StageTrace]:
    """Iterate the beam-focusing restriction; the minimum exact output voltage
    over receivers never decreases across iterations. Each step solves the
    max-min restriction through its dual, warm-started from the previous
    step's receiver prices. The disks hold the expansion point, so a step
    whose minimum linearized voltage falls below the expansion point's is
    rejected and ends the stage."""
    dev = scenario.device
    settings = scenario.solver
    a_hat = element_rows(channel, q_init, waveform)
    conj_rows = [np.conj(rows) for rows in a_hat]
    trace = StageTrace()
    dma = q_init
    prices = None
    for _ in range(settings.max_sca_iters):
        q0 = dma.q_flat()
        lins = [linearize_vo_in_q(rows, q0, dev.k2, dev.k4, dev.hpa_gain, conj)
                for rows, conj in zip(a_hat, conj_rows)]
        step = focusing_step(lins, prices)
        trace.exit_reasons.append(step.exit_reason)
        if step.primal < min(lin.base_value for lin in lins):
            break
        dma = dma.with_weights(step.q)
        prices = step.multipliers
        if trace.accept(step, settings.sca_rel_tol):
            break
    return dma, trace


# ---------------------------------------------------------------------------
# full drivers
# ---------------------------------------------------------------------------

def _start(scenario: ScenarioConfig,
           architecture: Architecture) -> tuple[ChannelTensor, InitPlan]:
    """The channel and the chain allocation that a driver for
    ``architecture`` starts from."""
    if scenario.array.architecture is not architecture:
        raise ValueError(f"a driver for the {architecture.value!r} architecture was "
                         f"given a {scenario.array.architecture.value!r} scenario")
    channel = build_channel(scenario.array, scenario.receivers,
                            scenario.frequency, scenario.device.boresight_gain)
    return channel, allocate_chains(channel, scenario.n_receivers,
                                    scenario.array.rf_chain_count)


def _record(index: int, design: Design, q_trace: StageTrace, w_trace: StageTrace,
            q_seconds: float, w_seconds: float) -> OuterRecord:
    """The record of a pass whose stages ended on ``design``; a fully-digital
    pass has an empty focusing trace."""
    gaps = [step.gap / (1.0 + abs(step.primal)) for step in q_trace.steps + w_trace.steps]
    return OuterRecord(
        index=index, p_c_bound=w_trace.final_objective,
        min_voltage=q_trace.final_objective,
        q_sca_iters=q_trace.iterations, w_sca_iters=w_trace.iterations,
        eh_residual=float(np.max(design.scenario.voltage_targets() - design.voltages())),
        q_seconds=q_seconds, w_seconds=w_seconds, solver_rel_gap=max([0.0, *gaps]))


def _final_p_dc(design: Design) -> np.ndarray:
    p_dc = design.p_dc()
    if np.any(p_dc < 0.999 * design.scenario.eh_targets):
        raise TargetMissedError("converged state misses an EH target by >0.1%")
    return p_dc


def run_asca_dma(scenario: ScenarioConfig) -> tuple[Waveform, DmaState, RunTrace]:
    """Alternate focusing and waveform stages until the consumption bound
    settles to the configured relative tolerance.

    A pass that does not lower the bound ends the loop on the previous state;
    its record is dropped if the bound rose by more than the tolerance. The
    bound is finite on every pass, since a stage whose first step fails
    raises.
    """
    settings = scenario.solver
    channel, plan = _start(scenario, Architecture.DMA)
    dma = init_q_phases(channel, plan, scenario)
    design = Design(scenario, init_digital_weights(scenario, channel, plan, dma), dma, channel)
    trace = RunTrace()
    pc_prev = math.inf
    for outer in range(settings.max_outer_iters):
        t0 = time.perf_counter()
        dma_new, q_trace = run_sca_q(scenario, channel, design.waveform, design.dma)
        t1 = time.perf_counter()
        candidate, w_trace = run_sca_w(scenario, channel, dma_new, design.waveform)
        t2 = time.perf_counter()
        pc = w_trace.final_objective
        trace.records.append(_record(outer, candidate, q_trace, w_trace, t1 - t0, t2 - t1))
        if pc >= pc_prev:  # no fall: stop on the previous state
            if pc > pc_prev * (1.0 + settings.sca_rel_tol):
                trace.records.pop()  # a rejected pass
            trace.converged = True
            break
        design = candidate
        if _relative_move(pc, pc_prev) <= settings.sca_rel_tol:
            trace.converged = True
            break
        pc_prev = pc
    trace.final_p_dc = _final_p_dc(design)
    return design.waveform, design.dma, trace


def run_sca_fd(scenario: ScenarioConfig) -> tuple[Waveform, RunTrace]:
    """Single-stage waveform design for the fully-digital architecture."""
    channel, plan = _start(scenario, Architecture.FULLY_DIGITAL)
    w0 = init_digital_weights(scenario, channel, plan, None)
    t0 = time.perf_counter()
    design, w_trace = run_sca_w(scenario, channel, None, w0)
    t1 = time.perf_counter()
    trace = RunTrace(records=[_record(0, design, StageTrace(), w_trace, 0.0, t1 - t0)],
                     converged=w_trace.converged)
    trace.final_p_dc = _final_p_dc(design)
    return design.waveform, trace
