import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wptopt import blas
from wptopt import cli as cli_module
from wptopt.cli import (EXIT_ERROR, EXIT_INFEASIBLE, EXIT_ITER_LIMIT, EXIT_OK,
                        EXIT_PARSE, EXIT_VALIDATION, RunArtifact, main,
                        run_optimization)
from wptopt import optimize as optimize_module
from wptopt import power
from wptopt.optimize import OuterRecord
from wptopt.waveform_step import waveform_restriction

from conftest import far_from_unit_scale

SCENARIO = """
[array]
architecture = dma
length = 0.10

[frequency]
f1 = 5.18e9
bandwidth = 10e6
n_tones = 2

[receiver.1]
x = 0.0
y = 0.0
z = 1.5
p_target = 20e-6

[solver]
max_sca_iters = 20
max_outer_iters = 6
"""


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenario.cfg"
    path.write_text(SCENARIO)
    return path


@pytest.fixture(scope="module")
def two_receiver_file(tmp_path_factory):
    """Two receivers: the focusing stage searches the simplex of their prices."""
    path = tmp_path_factory.mktemp("cli") / "two_receivers.cfg"
    path.write_text(SCENARIO.replace("[solver]", """[receiver.2]
x = 0.2
y = 0.1
z = 1.8
p_target = 20e-6

[solver]"""))
    return path


def _rehash(data):
    """Set an edited artifact's content hash as its writer would have."""
    data["content_hash"] = cli_module._digest(
        {k: v for k, v in data.items() if k not in ("content_hash", "timings")})


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory, scenario_file):
    out = tmp_path_factory.mktemp("runs")
    code = main(["optimize", str(scenario_file), "--out", str(out)])
    assert code == EXIT_OK
    sub = next(out.iterdir())
    return sub


def test_cli_import_loads_no_scipy():
    """A cold ``import wptopt.cli`` imports no scipy module: scipy's LAPACK
    wrappers alone cost about half of every command's start-up. Nor does it
    load ``numpy.fft``, unless a bare ``import numpy`` already does: the
    oracle reaches it only when it synthesizes a signal."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cold(module):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
                "'numpy.fft' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        return proc.stdout.strip()

    assert cold("wptopt.cli") == f"[] {cold('numpy').split()[-1]}"


def test_optimize_writes_artifact_and_trace(artifact_dir):
    assert (artifact_dir / "artifact.json").exists()
    data = json.loads((artifact_dir / "artifact.json").read_text())
    assert data["scenario"]["array"]["architecture"] == "dma"
    assert all(p >= 0.999 * 20e-6 for p in data["p_dc"])
    assert "content_hash" in data
    with open(artifact_dir / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f.name for f in dataclasses.fields(OuterRecord)]
    assert "solver_rel_gap" in rows[0]
    assert len(rows) - 1 == len(data["trace"]) >= 1


def test_receiver_behind_array_exit_code(tmp_path):
    bad = tmp_path / "behind.cfg"
    bad.write_text(SCENARIO.replace("z = 1.5", "z = -2.2"))
    assert main(["optimize", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_malformed_scenario_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[array\nlength = oops")
    assert main(["optimize", str(bad)]) == EXIT_PARSE


def test_invalid_scenario_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SCENARIO.replace("length = 0.10", "length = 0.001"))
    assert main(["optimize", str(bad)]) == EXIT_VALIDATION


def test_aperiodic_plan_rejected_before_design(tmp_path, monkeypatch, capsys):
    """f1/delta_f needs a denominator near 10^4 here, so the period's sampling
    grid is too large for simulate's oracle; the scenario exits 3 at load."""
    bad = tmp_path / "aperiodic.cfg"
    bad.write_text(SCENARIO.replace("f1 = 5.18e9", "f1 = 5.1834567891e9")
                   .replace("n_tones = 2", "n_tones = 8"))

    def no_design(scenario):
        raise AssertionError("a design ran on an invalid scenario")

    monkeypatch.setattr(optimize_module, "run_asca_dma", no_design)
    out = tmp_path / "runs"
    assert main(["optimize", str(bad), "--paper-sampling", "--out", str(out)]) \
        == EXIT_VALIDATION
    assert "periodic sampling grid too large" in capsys.readouterr().err
    assert not out.exists()


def test_wide_band_plan_exits_3(tmp_path, monkeypatch, capsys):
    """Eight tones 1.48 GHz apart from 5.18 GHz: 2*f1/delta_f = 7 = n_f - 1,
    so f_a + f_b + f_c = f_d has solutions that the spectral fourth moment
    misses. The scenario exits 3 with one line before any design runs."""
    bad = tmp_path / "wide.cfg"
    bad.write_text(SCENARIO.replace("bandwidth = 10e6", "bandwidth = 11.84e9")
                   .replace("n_tones = 2", "n_tones = 8"))

    def no_design(scenario):
        raise AssertionError("a design ran on an invalid scenario")

    monkeypatch.setattr(optimize_module, "run_asca_dma", no_design)
    out = tmp_path / "runs"
    assert main(["optimize", str(bad), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err == ["invalid scenario: 2*f1/delta_f = 7 is at most n_f - 1 = 7: "
                   "the band is too wide for the spectral fourth moment"]
    assert not out.exists()


SAMPLE = Path(__file__).resolve().parents[1] / "sample_scenario.cfg"


@pytest.mark.parametrize("edit, names", [
    (("n_tones = 8", "n_tone = 8"), ("[frequency]", "n_tone")),
    (("n_tones = 8", "n_tones = 8.7"), ("[frequency]", "n_tones")),
    (("max_sca_iters = 30", "max_sca_iters = 30.9"), ("[solver]", "max_sca_iters")),
    (("[solver]", "[solvr]"), ("[solvr]",)),
    (("length = 0.20", "lenght = 0.20"), ("[array]", "lenght")),
    (("p_target = 20e-6", "p_tagret = 20e-6"), ("[receiver.1]", "p_tagret")),
    (("[receiver.1]", "[receivers.1]"), ("[receivers.1]",)),
])
def test_keys_outside_the_schema_exit_2(tmp_path, capsys, edit, names):
    """Each edit is a typo in the sample scenario that would otherwise load
    as a different design (or as the defaults); it exits 2 with one stderr
    line naming the section and key."""
    text = SAMPLE.read_text()
    assert edit[0] in text
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(*edit))
    assert main(["optimize", str(bad), "--out", str(tmp_path / "runs")]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and all(name in err[0] for name in names)
    assert not (tmp_path / "runs").exists()


def test_fractional_tone_count_in_json_exits_2(tmp_path, capsys):
    from wptopt.scenario import load_scenario
    data = load_scenario(SAMPLE).to_dict()
    data["frequency"]["n_tones"] = 8.7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["optimize", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert err == ["parse error: [frequency] n_tones = 8.7 is not a whole number"]


def _receiver(data):
    return data["receivers"][0]


@pytest.mark.parametrize("edit, names", [
    (lambda d: d.update(solvr={}), ("[solvr]",)),
    (lambda d: d["array"].update(lenght=0.2), ("[array]", "lenght")),
    (lambda d: d["frequency"].update(n_tone=8), ("[frequency]", "n_tone")),
    (lambda d: _receiver(d).update(p_target=20e-6), ("[receiver.1]", "p_target")),
    (lambda d: _receiver(d)["position"].__setitem__(0, float("nan")),
     ("[receiver.1]", "position")),
    (lambda d: _receiver(d)["position"].__setitem__(2, float("inf")),
     ("[receiver.1]", "position")),
    (lambda d: _receiver(d).update(eh_requirement=float("inf")),
     ("[receiver.1]", "eh_requirement")),
], ids=["section", "array-key", "frequency-key", "receiver-key", "nan-x", "inf-z",
        "inf-target"])
def test_json_keys_and_values_outside_the_schema_exit_2(tmp_path, capsys, edit, names):
    """The JSON form of the sample scenario is as strict as its text: each
    edit exits 2 with one stderr line naming the section and key, before
    any design runs."""
    from wptopt.scenario import load_scenario
    data = load_scenario(SAMPLE).to_dict()
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["optimize", str(bad), "--out", str(tmp_path / "runs")]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and all(name in err[0] for name in names), err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("text", [
    SCENARIO.replace("[solver]", "[device]\nboresight_gain = -1\n\n[solver]"),
    SCENARIO.replace("[solver]", "[microstrip]\nattenuation = -0.1\n\n[solver]"),
    SCENARIO.replace("max_sca_iters = 20", "max_sca_iters = 0"),
    SCENARIO.replace("[solver]", "[solver]\ninit_ramp_factor = 1.0"),
    SCENARIO.replace("n_tones = 2", "n_tones = 0"),
    SCENARIO.split("[receiver.1]")[0] + "[solver]" + SCENARIO.split("[solver]")[1],
], ids=["boresight", "microstrip", "cap", "ramp", "no-tones", "no-receiver"])
def test_invalid_values_exit_3_before_design(tmp_path, monkeypatch, capsys, text):
    def no_design(scenario):
        raise AssertionError("a design ran on an invalid scenario")

    monkeypatch.setattr(optimize_module, "run_asca_dma", no_design)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["optimize", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid scenario: ")


def test_missing_file_exit_code(tmp_path, capsys):
    """A scenario path that is missing, a directory, or not UTF-8 text exits
    2 with one line naming the path."""
    unreadable = [tmp_path / "nope.cfg", tmp_path]
    for name in ("latin.cfg", "latin.json"):
        unreadable.append(tmp_path / name)
        unreadable[-1].write_bytes(b"[array]\nlength = 0.1 ; caf\xe9\n")
    for path in unreadable:
        capsys.readouterr()
        assert main(["optimize", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"parse error: {path}: "), err


def test_arch_override_runs_fd(scenario_file, tmp_path):
    code = main(["optimize", str(scenario_file), "--arch", "fd",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    artifact = RunArtifact.load(next(tmp_path.iterdir()) / "artifact.json")
    assert artifact.scenario["array"]["architecture"] == "fd"
    assert artifact.dma_q is None


def test_artifact_reproducible(scenario_file):
    from wptopt.scenario import load_scenario
    cfg = load_scenario(scenario_file)
    a = run_optimization(cfg)
    b = run_optimization(cfg)
    assert a.content_hash() == b.content_hash()


def test_simulate_passes_on_fresh_artifact(artifact_dir, capsys):
    code = main(["simulate", str(artifact_dir / "artifact.json")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") >= 5


def test_commands_run_on_one_blas_thread(artifact_dir, monkeypatch):
    """A command runs with OpenBLAS on one thread, so no worker busy-waits
    between its small products; the count is restored when it returns, also
    after a failing command."""
    control = blas._thread_control()
    if control is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set")
    get, set_ = control
    original = get()
    seen = []
    simulate = cli_module.cmd_simulate

    def recording(args):
        seen.append(get())
        return simulate(args)

    monkeypatch.setattr(cli_module, "cmd_simulate", recording)
    set_(2)
    try:
        assert main(["simulate", str(artifact_dir / "artifact.json")]) == EXIT_OK
        assert seen == [1]
        assert get() == 2
        assert main(["simulate", str(artifact_dir / "missing.json")]) == EXIT_PARSE
        assert seen == [1, 1]
        assert get() == 2
    finally:
        set_(original)


def test_single_blas_thread_without_openblas(monkeypatch):
    """Where numpy ships no OpenBLAS, the block runs unchanged."""
    monkeypatch.setattr(blas, "_thread_control", lambda: None)
    ran = []
    with blas.single_thread():
        ran.append(True)
    assert ran == [True]


def test_simulate_accepts_the_retired_solver_key(artifact_dir, scenario_file,
                                                tmp_path, capsys):
    """An artifact or scenario file written while ``SolverSettings`` had
    ``cone_solver_kkt_tol`` still loads, and simulate passes it."""
    data = json.loads((artifact_dir / "artifact.json").read_text())
    data["scenario"]["solver"]["cone_solver_kkt_tol"] = 1e-9
    _rehash(data)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(data))
    assert main(["simulate", str(legacy)]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    cfg = tmp_path / "legacy.cfg"
    cfg.write_text(scenario_file.read_text() + "cone_solver_kkt_tol = 1e-9\n")
    out = tmp_path / "runs"
    assert main(["optimize", str(cfg), "--out", str(out)]) == EXIT_OK
    assert next(out.iterdir()).name == artifact_dir.name
    assert main(["simulate", str(next(out.iterdir()) / "artifact.json")]) == EXIT_OK


def test_seed_changes_the_hash_but_not_the_design(artifact_dir, scenario_file, tmp_path):
    """No design step draws random numbers: ``--seed`` moves the scenario
    hash (and so the artifact directory), not the weights."""
    out = tmp_path / "runs"
    assert main(["optimize", str(scenario_file), "--seed", "7", "--out", str(out)]) == EXIT_OK
    seeded = RunArtifact.load(next(out.iterdir()) / "artifact.json")
    base = RunArtifact.load(artifact_dir / "artifact.json")
    assert seeded.scenario["seed"] == 7 and base.scenario["seed"] == 0
    assert seeded.scenario_hash != base.scenario_hash
    assert np.array_equal(seeded.waveform, base.waveform)
    assert np.array_equal(seeded.dma_q, base.dma_q)
    assert seeded.power_report == base.power_report


def test_simulate_detects_tampering(artifact_dir, tmp_path, capsys):
    data = json.loads((artifact_dir / "artifact.json").read_text())
    data["waveform"]["values"][0][0] *= 3.0  # corrupt one weight
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    code = main(["simulate", str(tampered)])
    out = capsys.readouterr().out
    assert code == EXIT_ERROR
    assert "FAIL" in out


def _scale_report(field, factor):
    def edit(data):
        data["power_report"][field] *= factor
        _rehash(data)
    return edit


def _zero_hash(data):
    data["content_hash"] = "0" * 64


def _halve_last_bound(data):
    data["trace"][-1]["p_c_bound"] /= 2.0
    _rehash(data)


def test_simulate_rederives_the_report_bound_and_input_power(artifact_dir, tmp_path,
                                                             capsys):
    """Each falsified field fails exactly its own line, and exits 1."""
    original = json.loads((artifact_dir / "artifact.json").read_text())
    falsified = [("p-hpa-bound-matches-artifact", _scale_report("p_hpa_bound", 1 + 1e-10)),
                 ("p-in-matches-artifact", _scale_report("p_in", 1 - 1e-10)),
                 ("content-hash-matches-artifact", _zero_hash),
                 ("trace-bound-matches-artifact", _halve_last_bound)]
    for name, edit in falsified:
        data = json.loads(json.dumps(original))
        edit(data)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code = main(["simulate", str(path)])
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        assert code == EXIT_ERROR
        assert len(fails) == 1 and fails[0].startswith(f"FAIL {name}: "), (name, fails)


def test_simulate_accepts_a_weight_inside_its_disk(scenario_file, tmp_path, monkeypatch,
                                                   capsys):
    """A weight strictly inside its Lorentzian disk is feasible: the design
    passes every check. Its derived phase is the direction of ``q - j/2``,
    although ``(q - j/2)/(1/2)`` falls short of a unit phasor by the weight's
    depth."""
    from wptopt.transmitter import LORENTZIAN_CENTER, LORENTZIAN_RADIUS
    depth = 1e-6
    design = optimize_module.run_asca_dma

    def interior_design(scenario):
        waveform, dma, trace = design(scenario)
        q = dma.q.copy()
        q[0, 0] = LORENTZIAN_CENTER + (1.0 - depth) * (q[0, 0] - LORENTZIAN_CENTER)
        # the trace and p_dc claim the interior design, as a run that found it would
        interior = power.Design(scenario, waveform, dma.with_weights(q))
        report = interior.report()
        trace.records[-1].p_c_bound = report.p_hpa_bound + report.p_in
        trace.final_p_dc = interior.p_dc()
        return waveform, interior.dma, trace

    monkeypatch.setattr(optimize_module, "run_asca_dma", interior_design)
    assert main(["optimize", str(scenario_file), "--out", str(tmp_path)]) == EXIT_OK
    path = next(tmp_path.iterdir()) / "artifact.json"
    artifact = RunArtifact.load(path)
    offset = artifact.dma_q - LORENTZIAN_CENTER
    assert np.abs(offset[0, 0]) < LORENTZIAN_RADIUS * (1.0 - 0.5 * depth)
    unit = np.exp(1j * artifact.dma_phi)
    assert np.max(np.abs(unit - offset / np.abs(offset))) <= 1e-12
    assert np.max(np.abs(unit - offset / LORENTZIAN_RADIUS)) > 1e-9
    capsys.readouterr()
    code = main(["simulate", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    assert "FAIL" not in out


def test_simulate_fd_skips_disk_checks(scenario_file, tmp_path, capsys):
    main(["optimize", str(scenario_file), "--arch", "fd", "--out", str(tmp_path)])
    artifact = next(tmp_path.iterdir()) / "artifact.json"
    code = main(["simulate", str(artifact)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "lorentzian" not in out


def test_simulate_resamples_paper_artifact_on_its_grid(scenario_file, tmp_path,
                                                       capsys):
    """An artifact whose P_c was sampled on the 1 ms paper grid is re-checked
    on that grid; an artifact without the key loads as the default grid."""
    cfg = tmp_path / "fd4.cfg"
    cfg.write_text(scenario_file.read_text().replace("n_tones = 2", "n_tones = 4"))
    out = tmp_path / "runs"
    assert main(["optimize", str(cfg), "--arch", "fd", "--paper-sampling",
                 "--out", str(out)]) == EXIT_OK
    path = next(out.iterdir()) / "artifact.json"
    assert RunArtifact.load(path).paper_sampling is True
    capsys.readouterr()
    code = main(["simulate", str(path)])
    out_text = capsys.readouterr().out
    assert code == EXIT_OK, out_text
    assert "PASS p-c-matches-artifact" in out_text
    data = json.loads(path.read_text())
    del data["paper_sampling"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(data))
    assert RunArtifact.load(legacy).paper_sampling is False



ONE_TONE_FD = """
[array]
architecture = fd
length = 0.03

[frequency]
f1 = 5.18e9
bandwidth = 10e6
n_tones = 1

[receiver.1]
x = 0.3
y = 0.1
z = 1.5
p_target = 20e-6
"""


def test_simulate_checks_amplifier_bound_on_default_grid(tmp_path, monkeypatch, capsys):
    """At the paper rate 2 f_max one tone's second harmonic aliases onto DC,
    so a paper-sampled mean amplifier power can exceed the frequency-domain
    bound (here by about 41 %). The bound is checked on the default grid and
    P_c on the artifact's own; a default-grid artifact is sampled once."""
    cfg = tmp_path / "one_tone.cfg"
    cfg.write_text(ONE_TONE_FD)
    calls = []
    sample = power.sampled_consumption

    def counted(*args, **kwargs):
        calls.append(kwargs["paper_sampling"])
        return sample(*args, **kwargs)

    monkeypatch.setattr(power, "sampled_consumption", counted)
    for paper, sampled in ((["--paper-sampling"], [True, False]), ([], [False])):
        out = tmp_path / f"runs{len(paper)}"
        assert main(["optimize", str(cfg), *paper, "--out", str(out)]) == EXIT_OK
        calls.clear()
        capsys.readouterr()
        code = main(["simulate", str(next(out.iterdir()) / "artifact.json")])
        out_text = capsys.readouterr().out
        assert code == EXIT_OK, out_text
        assert "PASS amplifier-bound-holds" in out_text
        assert "PASS p-c-matches-artifact" in out_text
        assert calls == sampled


@pytest.mark.parametrize("arch, cap, loop", [("dma", "max_outer_iters", "outer loop"),
                                              ("fd", "max_sca_iters", "waveform stage")])
def test_iteration_cap_warning_names_the_cap(scenario_file, tmp_path, capsys,
                                             arch, cap, loop):
    """Exit 5 names the cap that fired: the outer-pass cap for DMA, the
    waveform stage's SCA step cap for FD."""
    cfg = tmp_path / "capped.cfg"
    text = scenario_file.read_text()
    cfg.write_text(text[:text.index("[solver]")] + f"[solver]\n{cap} = 1\n")
    code = main(["optimize", str(cfg), "--arch", arch, "--out", str(tmp_path / "runs")])
    assert code == EXIT_ITER_LIMIT
    assert f"warning: {loop} hit the iteration cap {cap}" in capsys.readouterr().err


ZERO_CHANNEL = """
[array]
architecture = fd
length = 0.06

[frequency]
f1 = 5.18e9
bandwidth = 10e6
n_tones = 2

[device]
boresight_gain = 4000

[receiver.1]
x = 1.5
y = 0.0
z = 1.0
p_target = 20e-6
"""


def test_zero_channel_exit_code(tmp_path, capsys):
    """A receiver 56 degrees off boresight of a cos^4000 pattern sees a
    channel that underflows to zero: the scenario is valid, but no weight
    meets its target, so the run exits 4 (unmeetable), not 5 (iteration
    limit)."""
    path = tmp_path / "zero_channel.cfg"
    path.write_text(ZERO_CHANNEL)
    code = main(["optimize", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_INFEASIBLE
    assert err.splitlines() == ["infeasible: all receivers see a zero channel"]


def test_unbounded_cone_program_exit_code(two_receiver_file, tmp_path, monkeypatch,
                                          capsys):
    """A floating-point failure inside a focusing step exits 1 with one
    line. Every focusing step runs through its dual, so the failure is
    raised there; the cone program no longer runs in a design."""
    def diverged(*args, **kwargs):
        raise FloatingPointError("focusing step diverged")

    monkeypatch.setattr("wptopt.optimize.focusing_step", diverged)
    code = main(["optimize", str(two_receiver_file), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.splitlines() == ["numerical failure: focusing step diverged"]


def test_infeasible_focusing_restriction_exit_code(two_receiver_file, tmp_path,
                                                   monkeypatch, capsys):
    """The focusing restriction contains its own expansion point, so it is
    never infeasible and the stage has no such failure to report. A step
    whose value falls below the expansion point's is rejected instead: here
    every step is, with its weights far outside the disks, and the run
    finishes on the initial element weights with exit 0."""
    real_step = optimize_module.focusing_step

    def below_expansion_point(lins, start=None):
        step = real_step(lins, start)
        return dataclasses.replace(step, q=np.full_like(step.q, 1e3), primal=-np.inf)

    monkeypatch.setattr("wptopt.optimize.focusing_step", below_expansion_point)
    code = main(["optimize", str(two_receiver_file), "--out", str(tmp_path)])
    assert code == EXIT_OK, capsys.readouterr().err
    art = RunArtifact.load(next(tmp_path.glob("*/artifact.json")))
    assert np.all(np.abs(art.dma_q - 0.5j) <= 0.5)
    assert all(row["q_sca_iters"] == 0 for row in art.trace_rows)


def _unreachable_rows(*args):
    """The production restriction with every row zeroed: no weight moves a
    linearized voltage, so no point meets a positive right-hand side."""
    res = waveform_restriction(*args)
    return dataclasses.replace(res, rows=np.zeros_like(res.rows))


@pytest.mark.parametrize("arch", [[], ["--arch", "fd"]], ids=["dma", "fd"])
def test_infeasible_waveform_restriction_exit_code(scenario_file, tmp_path,
                                                   monkeypatch, capsys, arch):
    """A waveform restriction infeasible at its first step is a numerical
    failure, for DMA and FD alike: scaling the waveform up meets every
    linearized row. Zeroed rows make the dual step find a real
    certificate."""
    monkeypatch.setattr("wptopt.optimize.waveform_restriction", _unreachable_rows)
    code = main(["optimize", str(scenario_file), "--out", str(tmp_path)] + arch)
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.splitlines() == ["numerical failure: waveform restriction reported infeasible"]


@pytest.mark.parametrize("arch", [[], ["--arch", "fd"]], ids=["dma", "fd"])
def test_non_finite_waveform_step_exit_code(scenario_file, tmp_path, monkeypatch,
                                            capsys, arch):
    """A waveform step whose point is not finite is never accepted. At the
    stage's first step it is a numerical failure, for DMA and FD alike: exit
    1 with one line, no traceback and no warning."""
    monkeypatch.setattr("wptopt.optimize.waveform_restriction",
                        lambda *args: far_from_unit_scale(waveform_restriction(*args)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["optimize", str(scenario_file), "--out", str(tmp_path)] + arch)
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.splitlines() == [
        "numerical failure: waveform step returned a point that violates its restriction"]


@pytest.mark.parametrize("arch", [[], ["--arch", "fd"]], ids=["dma", "fd"])
def test_missed_target_exit_code(scenario_file, tmp_path, monkeypatch, capsys, arch):
    """A final state below an EH target is a failure of its own (exit 1), not
    an iteration limit: neither loop hit a cap."""
    def short(design):
        return 0.5 * design.scenario.eh_targets

    monkeypatch.setattr(power.Design, "p_dc", short)
    code = main(["optimize", str(scenario_file), "--out", str(tmp_path)] + arch)
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.splitlines() == [
        "optimization failed: converged state misses an EH target by >0.1%"]


def test_fieldmap_command(artifact_dir, tmp_path):
    code = main(["fieldmap", str(artifact_dir / "artifact.json"),
                 "--xmin", "-0.4", "--xmax", "0.4", "--zmin", "0.5",
                 "--zmax", "2.0", "--res", "0.1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "fieldmap.csv").exists()
    meta = json.loads((tmp_path / "fieldmap.json").read_text())
    assert "argmax" in meta


def test_fieldmap_csv_bytes_are_pinned(tmp_path):
    """The default plane at 5 cm of the three-receiver DMA design (61 x 76
    cells) hashes to the bytes pinned here: the design, the map and the CSV
    writer each keep their last bit."""
    import hashlib

    from conftest import THREE_RECEIVERS, make_scenario
    with blas.single_thread():
        run_optimization(make_scenario("dma", 0.10, 8, THREE_RECEIVERS)).save(
            tmp_path / "artifact.json")
    assert main(["fieldmap", str(tmp_path / "artifact.json"), "--res", "0.05",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "fieldmap.csv").read_bytes()).hexdigest() == \
        "78c5af3ba242bd814b91ceb7cfd0a371701eaaa2c0ff50a7e1f492fe733893bb"


@pytest.mark.parametrize("plane", [["--res", "0"], ["--res", "nan"], ["--zmin", "-1"],
                                   ["--xmin", "1", "--xmax", "-1"], ["--res", "1e-300"],
                                   ["--res", "2e-5"]])
def test_fieldmap_rejects_invalid_plane(artifact_dir, tmp_path, capsys, plane):
    code = main(["fieldmap", str(artifact_dir / "artifact.json"), *plane,
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_VALIDATION
    assert len(err) == 1 and err[0].startswith("invalid plane: ")
    assert not (tmp_path / "fieldmap.csv").exists()


@pytest.mark.parametrize("name", ["seed_dma_paper_artifact.json", "seed_fd_artifact.json"])
def test_simulate_passes_an_artifact_of_an_earlier_sampling_kernel(name, capsys):
    """Artifacts written when consumption was sampled per element, with
    phases from float sample times (a DMA design with paper-rate sampling and
    an FD design), pass every simulate check: the sampled fields they store
    differ from today's by about 1e-13 relative."""
    path = Path(__file__).parent / "data" / name
    capsys.readouterr()
    assert main(["simulate", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)


def test_sweep_single_value_matches_optimize(scenario_file, tmp_path, capsys):
    code = main(["sweep", str(scenario_file), "--axis", "n_f",
                 "--values", "2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "sweep_n_f.csv").read_text().splitlines()
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["status"] == "ok"
    from wptopt.scenario import load_scenario
    artifact = run_optimization(load_scenario(scenario_file))
    assert float(row["p_c_bound"]) == pytest.approx(
        artifact.trace_rows[-1]["p_c_bound"], rel=1e-9)


@pytest.mark.parametrize("axis, value, edit", [
    ("d", "2.0", ("z = 1.5", "z = 2.0")),
    ("P_max", "2.0", ("[solver]", "[device]\nhpa_saturation_power = 2.0\n\n[solver]")),
])
def test_sweep_distance_and_saturation_axes(scenario_file, tmp_path, axis, value, edit):
    """A sweep point is the design of the scenario with that one value changed:
    the receiver moved to distance ``d`` along its direction, or the
    amplifier's saturation power set to ``P_max``."""
    assert main(["sweep", str(scenario_file), "--axis", axis, "--values", value,
                 "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / f"sweep_{axis}.csv", newline="") as fh:
        row, = csv.DictReader(fh)
    assert row["status"] == "ok"
    edited = tmp_path / "edited.cfg"
    edited.write_text(SCENARIO.replace(*edit))
    from wptopt.scenario import load_scenario
    artifact = run_optimization(load_scenario(edited))
    assert float(row["p_c_bound"]) == pytest.approx(artifact.trace_rows[-1]["p_c_bound"],
                                                    rel=1e-9)
    assert float(row["p_c_sampled"]) == pytest.approx(
        artifact.power_report.p_c_sampled, rel=1e-9)


def test_sweep_records_per_point_failures(scenario_file, tmp_path):
    code = main(["sweep", str(scenario_file), "--axis", "M",
                 "--values", "1", "5", "--out", str(tmp_path)])
    assert code == EXIT_ERROR  # M=5 exceeds configured receivers
    lines = (tmp_path / "sweep_M.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "error" in lines[2]


@pytest.mark.parametrize("axis", ["n_f", "M"])
def test_sweep_rejects_a_fractional_count(scenario_file, tmp_path, axis):
    """A tone or receiver count that is not a whole number gets an error row,
    not the design of its truncation."""
    code = main(["sweep", str(scenario_file), "--axis", axis,
                 "--values", "1.5", "2.7", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    with open(tmp_path / f"sweep_{axis}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["value"] for row in rows] == ["1.5", "2.7"]
    assert all(row["status"].startswith("error: ") and "is not a whole number" in row["status"]
               for row in rows), rows


def test_sweep_table_keeps_a_comma_in_the_status(scenario_file, tmp_path, monkeypatch):
    """A failed point's status is the exception text; a comma in that text
    stays inside the status field when the table is read back as CSV."""
    message = "shapes (2,) and (3,) not aligned, retry"

    def failing(scenario, paper_sampling=False):
        raise ValueError(message)

    monkeypatch.setattr(cli_module, "run_optimization", failing)
    code = main(["sweep", str(scenario_file), "--axis", "L",
                 "--values", "0.10", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    with open(tmp_path / "sweep_L.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{"value": "0.1", "p_c_bound": "nan", "p_c_sampled": "nan",
                     "outer_iters": "0",
                     "status": f"error: {message}"}]


def test_artifact_load_save_keeps_bytes_and_hash(artifact_dir, tmp_path):
    """``load`` reads the timings back into the trace rows, so saving a
    loaded artifact writes the same bytes and the same content hash."""
    path = artifact_dir / "artifact.json"
    artifact = RunArtifact.load(path)
    assert all(row["q_seconds"] >= 0.0 for row in artifact.trace_rows)
    artifact.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert RunArtifact.load(tmp_path / "again.json").content_hash() \
        == json.loads(path.read_text())["content_hash"]


def test_artifact_stores_no_derived_key(artifact_dir):
    """A DMA artifact holds the key sets README documents: inputs, weights
    and claims. The scenario hash, the architecture, the element phases and
    the consumption bound's objective are functions of these, so none is
    stored."""
    data = json.loads((artifact_dir / "artifact.json").read_text())
    assert set(data) == {"scenario", "waveform", "dma", "power_report", "trace", "p_dc",
                         "converged", "paper_sampling", "content_hash", "timings"}
    assert set(data["power_report"]) == {"p_in", "p_hpa_sampled", "p_hpa_bound",
                                         "p_c_sampled"}
    assert set(data["dma"]) == {"shape", "q"}


def test_artifact_with_the_derived_keys_of_older_writers(artifact_dir, tmp_path, capsys):
    """Older writers also stored ``scenario_hash``, ``architecture``, each DMA
    phase and ``power_report.upsilon_objective``. Such an artifact loads,
    passes simulate and maps, and saving it again writes today's bytes."""
    path = artifact_dir / "artifact.json"
    fresh = RunArtifact.load(path)
    data = json.loads(path.read_text())
    data["scenario_hash"] = fresh.scenario_hash
    data["architecture"] = data["scenario"]["array"]["architecture"]
    data["dma"]["phi"] = fresh.dma_phi.reshape(-1).tolist()
    report = data["power_report"]
    report["upsilon_objective"] = report["p_hpa_bound"] + report["p_in"]
    _rehash(data)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["simulate", str(legacy)]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    maps = tmp_path / "map"
    assert main(["fieldmap", str(legacy), "--res", "0.25", "--out", str(maps)]) == EXIT_OK
    assert json.loads((maps / "fieldmap.json").read_text())["scenario_hash"] \
        == fresh.scenario_hash
    assert fresh.scenario_hash[:12] == artifact_dir.name
    loaded = RunArtifact.load(legacy)
    assert np.array_equal(loaded.waveform, fresh.waveform)
    assert np.array_equal(loaded.dma_q, fresh.dma_q)
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _values_as_text(data):
    data["waveform"]["values"] = "oops"


def _flag_as_text(data):
    data["paper_sampling"] = "no"


def _report_value_as_text(data):
    data["power_report"]["p_c_sampled"] = "high"


def _bound_as_text(data):
    data["trace"][-1]["p_c_bound"] = "low"


def _shape_without_values(data):
    data["waveform"]["shape"] = [7, 5]


def _shape_off_the_scenario(data):
    data["waveform"]["shape"] = [1, len(data["waveform"]["values"])]


@pytest.mark.parametrize("command", ["simulate", "fieldmap"])
@pytest.mark.parametrize("corrupt", [
    "not json {", {"scenario_hash": "x"}, _values_as_text, _flag_as_text,
    _report_value_as_text, _bound_as_text, _shape_without_values, _shape_off_the_scenario,
    b'{"p_dc": "caf\xe9"}', None,
], ids=["not-json", "missing-keys", "values-as-text", "flag-as-text", "report-as-text",
        "bound-as-text", "wrong-shape", "shape-off-scenario", "not-utf8", "directory"])
def test_malformed_artifact_exits_2(artifact_dir, tmp_path, capsys, command, corrupt):
    """An artifact path that is a directory or not UTF-8 text, an artifact
    that is not JSON, lacks a key, or holds a value of the wrong type or shape
    exits 2 with one line naming the file."""
    bad = tmp_path / "bad.json"
    if corrupt is None:
        bad.mkdir()
    elif isinstance(corrupt, bytes):
        bad.write_bytes(corrupt)
    elif isinstance(corrupt, str):
        bad.write_text(corrupt)
    elif isinstance(corrupt, dict):
        bad.write_text(json.dumps(corrupt))
    else:
        data = json.loads((artifact_dir / "artifact.json").read_text())
        corrupt(data)
        bad.write_text(json.dumps(data))
    out = ["--out", str(tmp_path)] if command == "fieldmap" else []
    capsys.readouterr()
    assert main([command, str(bad), *out]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"parse error: {bad}: "), err


def test_simulate_accepts_the_keys_older_writers_put_in_the_scenario(artifact_dir,
                                                                     tmp_path, capsys):
    """Artifacts written before the array's derived dimensions left the export
    (and before ``cone_solver_kkt_tol`` was retired) still pass simulate."""
    data = json.loads((artifact_dir / "artifact.json").read_text())
    data["scenario"]["array"].update(n_v=3, n_h=8, inter_element_dx=0.0115746,
                                     inter_row_dy=0.0289365)
    data["scenario"]["solver"]["cone_solver_kkt_tol"] = 1e-9
    _rehash(data)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["simulate", str(legacy)]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_main_builds_one_parser(tmp_path):
    cli_module.build_parser.cache_clear()
    for _ in range(2):
        assert main(["simulate", str(tmp_path / "missing.json")]) == EXIT_PARSE
    assert cli_module.build_parser.cache_info().misses == 1


def test_artifact_round_trip(artifact_dir):
    a = RunArtifact.load(artifact_dir / "artifact.json")
    assert a.waveform.shape[1] == 2
    assert a.dma_q is not None
    assert np.all(np.abs(a.dma_q - 0.5j) <= 0.5 + 1e-9)


@pytest.mark.parametrize("option, value", [("--values", "abc"), ("--values", "nan0"),
                                           ("--jobs", "0"), ("--jobs", "-2"),
                                           ("--jobs", "1.5")])
def test_sweep_rejects_bad_input_with_a_usage_line(scenario_file, tmp_path, capsys,
                                                   option, value):
    """A value that is not a number, or fewer than one worker, is a usage
    error: exit 2 with argparse's usage and one error line, no traceback."""
    argv = {"--values": "0.10", "--jobs": "1", option: value}
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(scenario_file), "--axis", "L", "--out", str(tmp_path),
              *[word for item in argv.items() for word in item]])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage: wptopt sweep") and "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"wptopt sweep: error: argument {option}: ")
    assert not (tmp_path / "sweep_L.csv").exists()


@pytest.mark.parametrize("jobs, points, workers", [(8, 2, 2), (2, 3, 2), (4, 1, None)])
def test_sweep_starts_no_more_workers_than_points(scenario_file, tmp_path, monkeypatch,
                                                  jobs, points, workers):
    """The pool may start all its workers at once, so it is asked for at most
    one per point, and a single point runs in-process. The pool here runs
    its map in this process, so no process is started."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def point(payload):
        return {"value": payload[2], "status": "ok", "p_c_bound": 1.0,
                "p_c_sampled": 1.0, "outer_iters": 1}

    import concurrent.futures                      # the module that cmd_sweep imports
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli_module, "_sweep_point", point)
    values = [f"{0.10 + 0.01 * k:.2f}" for k in range(points)]
    assert main(["sweep", str(scenario_file), "--axis", "L", "--values", *values,
                 "--jobs", str(jobs), "--out", str(tmp_path)]) == EXIT_OK
    assert started == ([] if workers is None else [workers])
    with open(tmp_path / "sweep_L.csv", newline="") as fh:
        assert [row["value"] for row in csv.DictReader(fh)] == \
            [str(float(v)) for v in values]


def test_sweep_parallel_jobs_match_serial(scenario_file, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["sweep", str(scenario_file), "--axis", "L",
                 "--values", "0.10", "0.12", "--out", str(serial)]) == EXIT_OK
    assert main(["sweep", str(scenario_file), "--axis", "L",
                 "--values", "0.10", "0.12", "--jobs", "2",
                 "--out", str(parallel)]) == EXIT_OK
    assert (serial / "sweep_L.csv").read_text() \
        == (parallel / "sweep_L.csv").read_text()


CARRIER_SCALE = """
[array]
architecture = dma
length = 0.20

[frequency]
f1 = 5.18e9
bandwidth = 10e6
n_tones = 8

[receiver.1]
x = 0.0
y = 0.0
z = 2.2
p_target = 20e-6

[solver]
max_sca_iters = 30
max_outer_iters = 30
"""


def test_optimize_carrier_scale_scenario(tmp_path):
    """Carrier-scale instance (20 cm aperture, 8 tones, 2.2 m device) runs
    end to end with every harvesting target met."""
    path = tmp_path / "carrier.cfg"
    path.write_text(CARRIER_SCALE)
    out = tmp_path / "runs"
    assert main(["optimize", str(path), "--out", str(out)]) == EXIT_OK
    artifact = RunArtifact.load(next(out.iterdir()) / "artifact.json")
    assert np.all(artifact.p_dc >= 0.999 * 20e-6)
    assert artifact.waveform.shape == (6, 8)
