import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from wptopt import dual_newton
from wptopt import optimize as optimize_module
from wptopt import socp, transmitter
from wptopt.channel import ChannelTensor, build_channel
from wptopt.cli import write_csv
from wptopt.optimize import (OuterRecord, UnmeetableRequirementError,
                             allocate_chains, init_digital_weights,
                             init_q_phases, phase_search, run_asca_dma,
                             run_sca_fd, run_sca_q, run_sca_w)
from wptopt.oracle import closed_form_single
from wptopt.power import Design
from wptopt.rectenna import harvested_voltage
from wptopt.scenario import Architecture, load_scenario
from wptopt.transmitter import DmaState, Waveform, element_rows, lorentzian_weight
from wptopt.waveform_step import ExitReason

from conftest import (THREE_RECEIVERS, far_from_unit_scale, make_scenario,
                      single_element_fd)
from make_golden import SCENARIOS


def _fake_channel(norms_by_receiver_tone, n_v=4, n_h=1):
    """Channel tensor with prescribed per-receiver/tone vector norms spread
    uniformly over elements."""
    m, n_f = norms_by_receiver_tone.shape
    gamma = np.zeros((m, n_v * n_h, n_f), dtype=complex)
    per_element = norms_by_receiver_tone / np.sqrt(n_v * n_h)
    gamma += per_element[:, None, :]
    return ChannelTensor(gamma=gamma, gain=np.abs(gamma))


def test_allocate_chains_symmetric_split():
    ch = _fake_channel(np.array([[1.0], [1.0]]))
    plan = allocate_chains(ch, 2, 4)
    assert np.allclose(plan.z, [0.5, 0.5])
    assert plan.chain_sets[0][0] == 0 and plan.chain_sets[1][0] == 1
    assert sorted(sum(plan.chain_sets, [])) == [0, 1, 2, 3]


def test_allocate_chains_single_receiver_takes_all():
    ch = _fake_channel(np.array([[2.0, 1.0]]))
    plan = allocate_chains(ch, 1, 4)
    assert np.allclose(plan.z, [0.0])
    assert plan.chain_sets[0] == [0, 1, 2, 3]
    assert plan.strongest_tone[0] == 0


def test_allocate_chains_weaker_receiver_gets_surplus():
    """Norm ratio 3:1 -> the weak receiver (larger z) absorbs the surplus."""
    ch = _fake_channel(np.array([[3.0], [1.0]]))
    plan = allocate_chains(ch, 2, 4)
    assert plan.z[1] > plan.z[0]
    assert plan.chain_sets[1] == [1, 2, 3]
    assert plan.chain_sets[0] == [0]


def test_allocate_chains_requires_enough_chains():
    ch = _fake_channel(np.array([[1.0], [1.0]]))
    with pytest.raises(Exception):
        allocate_chains(ch, 2, 1)


def test_phase_search_matches_closed_form(rng):
    """The returned phase rotates every coefficient onto the positive real
    axis; a zero coefficient gets phase 0."""
    c = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    c[0, 0] = 0.0
    phase = phase_search(c)
    assert phase.shape == c.shape
    assert np.all((phase >= 0.0) & (phase < 2 * np.pi))
    assert np.max(np.abs(np.angle(c * np.exp(1j * phase)))) <= 1e-12
    assert phase[0, 0] == 0.0


def test_init_q_phases_aligns_products(tiny_dma):
    channel = build_channel(tiny_dma.array, tiny_dma.receivers,
                            tiny_dma.frequency, 0.0)
    plan = allocate_chains(channel, 1, tiny_dma.array.rf_chain_count)
    dma = init_q_phases(channel, plan, tiny_dma)
    n_sel = int(plan.strongest_tone[0])
    phis = np.arange(0.0, 2 * np.pi, 1e-4)
    # allocated elements: the tuned product phase is near zero where the
    # circle reaches the target phase, and q = 0 elsewhere
    for i in plan.chain_sets[0]:
        for l in range(tiny_dma.array.n_h):
            coeff = dma.h[i, l] * channel.gamma[0, i * tiny_dma.array.n_h + l, n_sel]
            target = phase_search(coeff)
            if not 0.0 < target < np.pi:
                assert dma.q[i, l] == 0
                continue
            # compare against a brute-force grid at 1e-4 rad resolution
            ring = lorentzian_weight(phis) * coeff
            assert np.abs(np.angle(dma.q[i, l] * coeff)) \
                <= np.min(np.abs(np.angle(ring))) + 1e-3


def test_init_pins_sample_scenario():
    """Start weights of sample_scenario.cfg: 46 of 102 elements start at
    q = 0, the rest lie on the Lorentzian circle with the product phase
    aligned, and the ramp stops at the same amplitude as the search-based
    initialization did (0.025 = 1e-3 * 5**2)."""
    cfg = load_scenario(Path(__file__).resolve().parent.parent / "sample_scenario.cfg")
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency,
                            cfg.device.boresight_gain)
    plan = allocate_chains(channel, 1, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg)
    coeff = dma.h * channel.gamma[0, :, int(plan.strongest_tone[0])].reshape(dma.h.shape)
    zero = dma.q == 0
    assert dma.q.size == 102 and int(np.sum(zero)) == 46
    assert np.max(np.abs(dma.circle_distance()[~zero])) <= 1e-12
    assert np.max(np.abs(np.angle(dma.q[~zero] * coeff[~zero]))) <= 1e-9
    init_digital_weights(cfg, channel, plan, dma)
    assert plan.w_amp.tolist() == [0.025]


def count_row_builds(monkeypatch) -> dict[str, int]:
    """Calls of ``effective_rows`` and ``element_rows``, counted through
    every name in ``wptopt`` that refers to them, from now on."""
    calls = {}
    for fn in (transmitter.effective_rows, transmitter.element_rows):
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.startswith("wptopt") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("arch", ["dma", "fd"])
def test_init_digital_weights_builds_its_rows_once(arch, monkeypatch):
    """The ramp tries amplitudes on one transmitter state, so the start
    builds its effective rows once however many trials it makes."""
    cfg = make_scenario(arch, length=0.10, n_f=8, receivers=THREE_RECEIVERS)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    plan = allocate_chains(channel, cfg.n_receivers, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg) if arch == "dma" else None
    trials = []
    builds = count_row_builds(monkeypatch)
    real_voltages = Design.voltages
    monkeypatch.setattr(Design, "voltages",
                        lambda design: trials.append(1) or real_voltages(design))
    init_digital_weights(cfg, channel, plan, dma)
    assert len(trials) > 3
    assert builds == {"effective_rows": 1, "element_rows": 0}


@pytest.mark.parametrize("name, passes, builds", [
    ("sample", 16, (17, 16)), ("multiuser_dma", 3, (4, 3)), ("multiuser_fd", 1, (2, 0))])
def test_a_design_builds_its_rows_once_per_transmitter_state(name, passes, builds,
                                                             monkeypatch):
    """Chain rows are built for the start and once per waveform stage, whose
    design each pass ends on; the focusing stage builds its element rows
    once. An FD design's final state is its waveform stage's."""
    cfg = SCENARIOS[name]()
    calls = count_row_builds(monkeypatch)
    stages = []
    real_stage = optimize_module.run_sca_w
    monkeypatch.setattr(optimize_module, "run_sca_w",
                        lambda *args: stages.append(1) or real_stage(*args))
    if cfg.array.architecture is Architecture.DMA:
        run_asca_dma(cfg)
    else:
        run_sca_fd(cfg)
    assert len(stages) == passes
    assert (calls["effective_rows"], calls["element_rows"]) == builds


def test_init_q_phases_rejects_fd(tiny_fd):
    channel = build_channel(tiny_fd.array, tiny_fd.receivers, tiny_fd.frequency, 0.0)
    plan = allocate_chains(channel, 1, tiny_fd.array.rf_chain_count)
    with pytest.raises(ValueError):
        init_q_phases(channel, plan, tiny_fd)


def test_init_digital_weights_feasible(tiny_dma):
    channel = build_channel(tiny_dma.array, tiny_dma.receivers,
                            tiny_dma.frequency, 0.0)
    plan = allocate_chains(channel, 1, tiny_dma.array.rf_chain_count)
    dma = init_q_phases(channel, plan, tiny_dma)
    wf = init_digital_weights(tiny_dma, channel, plan, dma)
    v = Design(tiny_dma, wf, dma, channel).voltages()[0]
    assert v >= tiny_dma.voltage_targets()[0]
    assert plan.w_amp is not None and plan.w_amp[0] > 0


def test_init_digital_weights_trivial_target_returns_seed():
    cfg = make_scenario("dma", p_target=1e-30)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    plan = allocate_chains(channel, 1, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg)
    wf = init_digital_weights(cfg, channel, plan, dma)
    used = np.abs(wf.omega[np.abs(wf.omega) > 0])
    assert np.allclose(used, cfg.solver.init_seed_amplitude)


def test_init_digital_weights_unmeetable_requirement():
    # path loss so extreme the target stays unreachable within the amplitude cap
    cfg = make_scenario("dma", receivers=((0.0, 0.0, 1e8),), p_target=20e-6)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    plan = allocate_chains(channel, 1, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg)
    with pytest.raises(UnmeetableRequirementError):
        init_digital_weights(cfg, channel, plan, dma)


def test_run_sca_w_monotone_and_feasible(tiny_dma):
    cfg = tiny_dma.with_solver(max_sca_iters=15)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    plan = allocate_chains(channel, 1, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg)
    w0 = init_digital_weights(cfg, channel, plan, dma)
    design, trace = run_sca_w(cfg, channel, dma, w0)
    objs = np.array(trace.objectives)
    assert len(objs) >= 1
    assert np.all(np.diff(objs) <= 1e-6 * np.maximum(objs[:-1], 1.0))
    assert design.dma is dma
    v = design.voltages()
    assert np.array_equal(v, Design(cfg, design.waveform, dma, channel).voltages())
    assert v[0] >= cfg.voltage_targets()[0] - 1e-9


def test_run_sca_w_fixed_point_terminates_quickly(tiny_dma):
    """Feeding a converged waveform back in exits within two iterations."""
    cfg = tiny_dma.with_solver(max_sca_iters=25)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    plan = allocate_chains(channel, 1, cfg.array.rf_chain_count)
    dma = init_q_phases(channel, plan, cfg)
    w0 = init_digital_weights(cfg, channel, plan, dma)
    design, _ = run_sca_w(cfg, channel, dma, w0)
    _, trace = run_sca_w(cfg, channel, dma, design.waveform)
    assert trace.iterations <= 2
    assert trace.final_objective == pytest.approx(
        np.abs(trace.objectives[0]), rel=1e-5)


def test_run_sca_q_single_element_matches_grid():
    """Single-element focusing stage converges to the phase-grid optimum of
    the true voltage over the Lorentzian circle.

    The floor dimensioning never yields a 1x1 array, so the spec is built by
    hand for this oracle comparison.
    """
    import dataclasses

    from wptopt.scenario import ArraySpec, FrequencyPlan, ReceiverSpec
    lam1 = 299_792_458.0 / 5.18e9
    pos = np.zeros((1, 1, 3))
    pos.flags.writeable = False
    array = ArraySpec(Architecture.DMA, lam1 / 2, 1, 1, lam1 / 5, lam1 / 2, pos)
    base = make_scenario("dma", n_f=1)
    cfg = dataclasses.replace(base, array=array,
                              frequency=FrequencyPlan(5.18e9, 1, 1.25e6),
                              receivers=(ReceiverSpec(np.array([0.0, 0.0, 1.0]),
                                                      20e-6),))
    cfg = cfg.with_solver(max_sca_iters=40)
    cfg.validate()
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    wf = Waveform(np.array([[0.5 + 0.2j]]))
    q_init = DmaState.from_phases(np.array([[0.1]]), cfg.array.inter_element_dx,
                                  cfg.microstrip)
    dma, trace = run_sca_q(cfg, channel, wf, q_init)
    dev = cfg.device
    a_hat = element_rows(channel, q_init, wf)
    phis = np.arange(0.0, 2 * np.pi, 1e-4)
    ring = lorentzian_weight(phis)
    vals = [harvested_voltage(a_hat[0], np.array([q]), dev.hpa_gain,
                              dev.k2, dev.k4) for q in ring]
    v_best = np.max(vals)
    v_found = harvested_voltage(a_hat[0], dma.q_flat(), dev.hpa_gain,
                                dev.k2, dev.k4)
    assert v_found == pytest.approx(v_best, rel=1e-4)
    # optimum sits at the maximum-amplitude weight q = j for this geometry
    assert abs(dma.q[0, 0] - 1j) <= 1e-3


def test_run_sca_q_improves_min_voltage(tiny_dma, rng):
    cfg = tiny_dma.with_solver(max_sca_iters=10)
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    wf = Waveform(0.1 * (rng.normal(size=(cfg.array.n_v, 2))
                         + 1j * rng.normal(size=(cfg.array.n_v, 2))))
    phi = rng.uniform(0, 2 * np.pi, size=(cfg.array.n_v, cfg.array.n_h))
    q0 = DmaState.from_phases(phi, cfg.array.inter_element_dx, cfg.microstrip)
    dev = cfg.device
    a_hat = element_rows(channel, q0, wf)
    v_before = harvested_voltage(a_hat[0], q0.q_flat(), dev.hpa_gain,
                                 dev.k2, dev.k4)
    dma, trace = run_sca_q(cfg, channel, wf, q0)
    v_after = harvested_voltage(a_hat[0], dma.q_flat(), dev.hpa_gain,
                                dev.k2, dev.k4)
    assert v_after >= v_before - 1e-12
    assert np.all(np.abs(dma.q - 0.5j) <= 0.5 + 1e-9)


TWO_RECEIVERS = ((0.2, 0.0, 1.4), (-0.3, 0.1, 1.8))


def _initial_state(cfg):
    channel = build_channel(cfg.array, cfg.receivers, cfg.frequency, 0.0)
    plan = allocate_chains(channel, cfg.n_receivers, cfg.array.rf_chain_count)
    dma0 = init_q_phases(channel, plan, cfg)
    return channel, dma0, init_digital_weights(cfg, channel, plan, dma0)


def test_stage_traces_record_one_exit_reason_per_solve(tiny_dma, monkeypatch):
    """Each stage records the exit reason of every restriction step it makes,
    also of its second step here, which the stage discards. The focusing
    stage runs on two receivers, where its step searches the simplex of
    their prices; the waveform stage steps through the dual."""
    cfg = tiny_dma.with_solver(max_sca_iters=6)
    channel, dma0, w0 = _initial_state(cfg)
    cfg2 = make_scenario("dma", length=0.10, n_f=2,
                         receivers=TWO_RECEIVERS).with_solver(max_sca_iters=6)
    channel2, dma2, w2 = _initial_state(cfg2)
    real_focusing = optimize_module.focusing_step
    real_step = optimize_module.dual_step
    real_restriction = optimize_module.waveform_restriction
    reasons = []

    def focusing_spoiling_second(spoiled):
        def wrapped(lins, start=None):
            step = real_focusing(lins, start)
            if len(reasons) == 1:
                step = spoiled(step)
            reasons.append(step.exit_reason)
            return step
        return wrapped

    def recorded_step(restriction):
        step = real_step(restriction)
        reasons.append(step.exit_reason)
        return step

    # focusing: a capped step whose value falls below the expansion point's
    # (its point far outside the disks) is discarded
    monkeypatch.setattr(optimize_module, "focusing_step", focusing_spoiling_second(
        lambda step: dataclasses.replace(step, q=np.full_like(step.q, 1e3),
                                         primal=-np.inf,
                                         exit_reason=ExitReason.ITER_CAP)))
    dma_q, q_trace = run_sca_q(cfg2, channel2, w2, dma2)
    assert q_trace.exit_reasons == reasons
    assert len(reasons) == 2 and q_trace.iterations == 1
    assert reasons == [ExitReason.TOLERANCE, ExitReason.ITER_CAP]
    assert np.all(np.abs(dma_q.q - 0.5j) <= 0.5 + 1e-9)

    # waveform: a certificate of infeasibility after the first step ends the
    # stage; zeroed rows make the second restriction infeasible
    reasons.clear()
    def unreachable_after_first(*args):
        res = real_restriction(*args)
        return dataclasses.replace(res, rows=np.zeros_like(res.rows)) if reasons else res

    monkeypatch.setattr(optimize_module, "dual_step", recorded_step)
    monkeypatch.setattr(optimize_module, "waveform_restriction", unreachable_after_first)
    _, w_trace = run_sca_w(cfg, channel, dma0, w0)
    assert w_trace.exit_reasons == reasons
    assert reasons == [ExitReason.TOLERANCE, ExitReason.INFEASIBLE]
    assert w_trace.iterations == 1

    # unmodified steps
    monkeypatch.setattr(optimize_module, "focusing_step",
                        focusing_spoiling_second(lambda step: step))
    monkeypatch.setattr(optimize_module, "waveform_restriction", real_restriction)
    for run_stage, stage_args in ((run_sca_q, (cfg2, channel2, w2, dma2)),
                                  (run_sca_w, (cfg, channel, dma0, w0))):
        reasons.clear()
        _, trace = run_stage(*stage_args)
        assert trace.exit_reasons == reasons
        assert len(reasons) >= trace.iterations >= 2


def test_waveform_stage_ends_on_its_last_finite_iterate(tiny_fd, monkeypatch):
    """A step whose point is not finite, after the stage's first, ends the
    stage on the last accepted iterate."""
    channel = build_channel(tiny_fd.array, tiny_fd.receivers, tiny_fd.frequency, 0.0)
    plan = allocate_chains(channel, 1, tiny_fd.array.rf_chain_count)
    w0 = init_digital_weights(tiny_fd, channel, plan, None)
    real_restriction = optimize_module.waveform_restriction
    posed = []

    def far_after_first(*args):
        posed.append(real_restriction(*args))
        return far_from_unit_scale(posed[-1]) if len(posed) > 1 else posed[-1]

    monkeypatch.setattr(optimize_module, "waveform_restriction", far_after_first)
    design, trace = run_sca_w(tiny_fd, channel, None, w0)
    assert len(posed) == len(trace.exit_reasons) == 2
    assert trace.iterations == 1 and not trace.converged
    assert np.array_equal(design.waveform.omega, trace.steps[0].omega)


def test_single_receiver_focusing_takes_closed_form_steps(tiny_dma, monkeypatch):
    """One receiver: every focusing step settles at the start of the
    one-point simplex, its closed form, and exits on TOLERANCE with 0
    iterations and KKT residual 0."""
    cfg = tiny_dma.with_solver(max_sca_iters=6)
    channel, dma0, w0 = _initial_state(cfg)
    real_focusing = optimize_module.focusing_step
    steps = []

    def recorded(lins, start=None):
        steps.append(real_focusing(lins, start))
        return steps[-1]

    monkeypatch.setattr(optimize_module, "focusing_step", recorded)
    _, trace = run_sca_q(cfg, channel, w0, dma0)
    assert trace.iterations >= 2 and len(steps) == trace.iterations
    assert all(step.multipliers.tolist() == [1.0] for step in steps)
    assert trace.exit_reasons == [ExitReason.TOLERANCE] * trace.iterations
    assert [step.iterations for step in trace.steps] == [0] * trace.iterations
    assert [step.kkt_residual for step in trace.steps] == [0.0] * trace.iterations
    assert all(step.gap <= 1e-12 * (1.0 + abs(step.primal)) for step in trace.steps)


def test_no_design_reaches_the_interior_point_method(monkeypatch):
    """Every restriction a design poses is solved through its dual: with
    every reference to the cone solver replaced by one that fails, a
    two-receiver and a three-receiver DMA design and an FD design still run,
    and ``optimize`` imports nothing from ``socp``."""
    def no_solve(*args, **kwargs):
        raise AssertionError("a design called the interior-point method")

    for name, module in list(sys.modules.items()):
        if name.startswith("wptopt") and getattr(module, "solve", None) is socp.solve:
            monkeypatch.setattr(module, "solve", no_solve)
    assert not [name for name, value in vars(optimize_module).items()
                if getattr(value, "__module__", None) == "wptopt.socp"]
    run_asca_dma(make_scenario("dma", length=0.10, n_f=2, receivers=TWO_RECEIVERS)
                 .with_solver(max_sca_iters=10, max_outer_iters=3))
    run_asca_dma(make_scenario("dma", length=0.10, n_f=8, receivers=THREE_RECEIVERS))
    run_sca_fd(make_scenario("fd", length=0.10, n_f=2, receivers=TWO_RECEIVERS)
               .with_solver(max_sca_iters=30))


def test_run_asca_dma_end_to_end(tiny_dma):
    cfg = tiny_dma.with_solver(max_sca_iters=25, max_outer_iters=8)
    w, dma, trace = run_asca_dma(cfg)
    assert np.all(trace.final_p_dc >= 0.999 * cfg.eh_targets)
    pcs = trace.p_c_values
    assert np.all(np.diff(pcs) <= 1e-6 * np.maximum(pcs[:-1], 1e-12))
    assert np.all(np.abs(dma.q - 0.5j) <= 0.5 + 1e-9)


def test_run_asca_dma_rejects_fd(tiny_fd):
    with pytest.raises(ValueError):
        run_asca_dma(tiny_fd)


def test_run_sca_fd_single_element_matches_closed_form():
    cfg = single_element_fd().with_solver(max_sca_iters=40)
    w, trace = run_sca_fd(cfg)
    w_opt, pc_opt = closed_form_single(cfg)
    assert abs(w.omega[0, 0]) == pytest.approx(w_opt, rel=1e-3)
    rep = Design(cfg, w).report()
    assert rep.p_c_sampled == pytest.approx(pc_opt, rel=1e-3)


def test_run_sca_fd_two_receivers():
    cfg = make_scenario("fd", length=0.10, n_f=2,
                        receivers=((0.2, 0.0, 1.4), (-0.3, 0.1, 1.8))) \
        .with_solver(max_sca_iters=30)
    w, trace = run_sca_fd(cfg)
    assert w.omega.shape == (cfg.array.n_elements, 2)
    assert np.all(trace.final_p_dc >= 0.999 * cfg.eh_targets)


def test_run_is_bitwise_deterministic(tiny_dma):
    cfg = tiny_dma.with_solver(max_sca_iters=10, max_outer_iters=3)
    w1, dma1, tr1 = run_asca_dma(cfg)
    w2, dma2, tr2 = run_asca_dma(cfg)
    assert np.array_equal(w1.omega, w2.omega)
    assert np.array_equal(dma1.q, dma2.q)
    assert [r.p_c_bound for r in tr1.records] == [r.p_c_bound for r in tr2.records]


def test_two_receiver_run_is_bitwise_deterministic():
    """The same check where the focusing stage searches the simplex of two
    receiver prices by Newton steps."""
    cfg = make_scenario("dma", length=0.10, n_f=2, receivers=TWO_RECEIVERS) \
        .with_solver(max_sca_iters=10, max_outer_iters=3)
    w1, dma1, tr1 = run_asca_dma(cfg)
    w2, dma2, tr2 = run_asca_dma(cfg)
    assert np.array_equal(w1.omega, w2.omega)
    assert np.array_equal(dma1.q, dma2.q)
    assert [r.p_c_bound for r in tr1.records] == [r.p_c_bound for r in tr2.records]
    assert [r.q_sca_iters for r in tr1.records] == [r.q_sca_iters for r in tr2.records]


def test_three_receiver_dma_run_is_bitwise_deterministic(monkeypatch):
    """The same check on a three-receiver design whose focusing steps
    include one solved at a kink of the dual (an element strictly inside
    its disk). Its step and Newton-iteration counts are pinned, and the
    projected Newton takes the null space of the same few rows again and
    again, so it runs an SVD only for rows it has not seen."""
    cfg = make_scenario("dma", length=0.10, n_f=8, receivers=THREE_RECEIVERS)
    real_focusing, real_waveform = optimize_module.focusing_step, optimize_module.dual_step
    real_svd = np.linalg.svd
    inside, focusing, waveform, svd_calls = [], [], [], []

    def recorded(lins, start=None):
        step = real_focusing(lins, start)
        inside.append(bool(np.any(np.abs(step.q - 0.5j) < 0.5 * (1.0 - 1e-9))))
        focusing.append(step.iterations)
        return step

    def recorded_waveform(restriction):
        step = real_waveform(restriction)
        waveform.append(step.iterations)
        return step

    def counted_svd(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == dual_newton.__name__:
            svd_calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(optimize_module, "focusing_step", recorded)
    monkeypatch.setattr(optimize_module, "dual_step", recorded_waveform)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    dual_newton._null_space.cache_clear()
    w1, dma1, tr1 = run_asca_dma(cfg)
    assert any(inside)
    assert (len(focusing), sum(focusing), len(waveform), sum(waveform)) == (105, 282, 17, 82)
    assert len(svd_calls) <= 2
    w2, dma2, tr2 = run_asca_dma(cfg)
    assert w1.omega.tobytes() == w2.omega.tobytes()
    assert dma1.q.tobytes() == dma2.q.tobytes()
    fields = ("p_c_bound", "min_voltage", "q_sca_iters", "w_sca_iters", "solver_rel_gap")
    assert [[getattr(r, f) for f in fields] for r in tr1.records] == \
        [[getattr(r, f) for f in fields] for r in tr2.records]
    # recorded values: a solver change that moves this design shows here
    assert [(r.q_sca_iters, r.w_sca_iters) for r in tr1.records] == [(48, 10), (38, 4)]
    assert tr1.records[-1].p_c_bound == pytest.approx(1.3065789925798068, rel=1e-12)


def test_three_receiver_fd_run_is_bitwise_deterministic():
    """The same check on a design whose every step is the dual waveform step
    with three rows."""
    cfg = make_scenario("fd", length=0.10, n_f=2,
                        receivers=TWO_RECEIVERS + ((0.0, -0.2, 2.0),)) \
        .with_solver(max_sca_iters=30)
    w1, tr1 = run_sca_fd(cfg)
    w2, tr2 = run_sca_fd(cfg)
    assert tr1.records[0].w_sca_iters >= 2
    assert w1.omega.tobytes() == w2.omega.tobytes()
    assert tr1.final_p_dc.tobytes() == tr2.final_p_dc.tobytes()
    fields = ("p_c_bound", "w_sca_iters", "eh_residual", "solver_rel_gap")
    assert [[getattr(r, f) for f in fields] for r in tr1.records] == \
        [[getattr(r, f) for f in fields] for r in tr2.records]
    # recorded values: a solver change that moves this design shows here
    assert [(r.q_sca_iters, r.w_sca_iters) for r in tr1.records] == [(0, 7)]
    assert tr1.records[-1].p_c_bound == pytest.approx(2.504824945380174, rel=1e-12)


def test_dma_vs_fd_matched_aperture_reported():
    """Monitored comparison, not a hard assertion at desk scale: both
    architectures must be feasible; their consumption is printed for the
    record."""
    results = {}
    for arch in ("dma", "fd"):
        cfg = make_scenario(arch, length=0.10, n_f=2,
                            receivers=((0.0, 0.0, 1.5),)) \
            .with_solver(max_sca_iters=30, max_outer_iters=8)
        if arch == "dma":
            w, dma, trace = run_asca_dma(cfg)
        else:
            w, trace = run_sca_fd(cfg)
            dma = None
        rep = Design(cfg, w, dma).report()
        assert np.all(trace.final_p_dc >= 0.999 * cfg.eh_targets)
        results[arch] = rep.p_c_sampled
    print(f"\nmatched-aperture consumption: dma {results['dma']:.4e} W, "
          f"fd {results['fd']:.4e} W")


def test_trace_serialization(tmp_path, tiny_dma):
    cfg = tiny_dma.with_solver(max_sca_iters=6, max_outer_iters=2)
    _, _, trace = run_asca_dma(cfg)
    rows = [dataclasses.asdict(r) for r in trace.records]
    write_csv(tmp_path / "trace.csv", [f.name for f in dataclasses.fields(OuterRecord)], rows)
    with open(tmp_path / "trace.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert "p_c_bound" in lines[0]
    assert len(lines) == len(trace.records) + 1
    assert json.loads(json.dumps(rows)) == rows
