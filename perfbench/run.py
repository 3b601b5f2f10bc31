#!/usr/bin/env python3
"""wptopt benchmark: design time, design quality and per-layer cost.

Usage (from the repository root):

    python3 perfbench/run.py --workload {dma_sample,multiuser,verify} \
        --seed N --seconds S --trace {0,1}

One process, one client, one operation at a time (a closed loop). Every
operation goes through ``wptopt.cli.main`` in-process. Outputs are checked
after each operation, outside its timed region. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from spans (see tracing.py). perfbench/README.md explains the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3          # set-up is repeated and its median reported
ROUND_DEADLINE_S = 150  # start no round that would end after this
# Receivers of the generated scenarios are one uniform draw from this
# generator seed; README.md explains why the geometry does not follow --seed.
GEOMETRY_SEED = 2

if not (SRC / "wptopt" / "cli.py").is_file():
    sys.exit(f"perfbench: no wptopt sources under {SRC}")
try:
    sys.path.insert(0, str(SRC))
    import numpy as np
    from wptopt import cli, power
    from wptopt.scenario import (Architecture, FrequencyPlan, ReceiverSpec,
                                 ScenarioConfig, build_array, load_scenario,
                                 save_scenario)
    from wptopt.transmitter import (LORENTZIAN_CENTER, LORENTZIAN_RADIUS,
                                    DmaState, Waveform)
except ImportError as exc:
    sys.exit(f"perfbench: cannot import wptopt from {SRC}: {exc}")

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def multiuser_scenario(arch: Architecture, seed: int) -> ScenarioConfig:
    """Three 20 uW receivers, L = 0.1 m, 8 tones over 10 MHz at 5.18 GHz,
    default solver settings; ``seed`` is the scenario's seed field."""
    rng = np.random.default_rng(GEOMETRY_SEED)
    pos = np.column_stack([rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3),
                           rng.uniform(1.5, 3.0, 3)])
    scenario = ScenarioConfig(build_array(arch, 0.1, 5.18e9),
                              FrequencyPlan.from_bandwidth(5.18e9, 10e6, 8),
                              tuple(ReceiverSpec(p, 20e-6) for p in pos),
                              seed=seed)
    scenario.validate()
    return scenario


@dataclasses.dataclass
class Design:
    """One ``wptopt optimize`` operation and where its artifact lands."""

    name: str
    scenario: ScenarioConfig
    argv: list

    @property
    def artifact(self) -> Path:
        out = Path(self.argv[self.argv.index("--out") + 1])
        return out / self.scenario.content_hash()[:12] / "artifact.json"


def write_design(name: str, scenario: ScenarioConfig, work: Path) -> Design:
    """Save a generated scenario as a .cfg file and check it loads back the same."""
    cfg = work / f"{name}.cfg"
    save_scenario(scenario, cfg)
    if load_scenario(cfg).content_hash() != scenario.content_hash():
        raise RuntimeError(f"{cfg} does not load back to the generated scenario")
    return Design(name, scenario, ["optimize", str(cfg), "--out", str(work / "runs")])


def run_cli(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# output checks (outside the timed region)
# ---------------------------------------------------------------------------

def simulate_failures(rc: int, text: str) -> list:
    reasons = [f"simulate: {line}" for line in text.splitlines()
               if line.startswith("FAIL")]
    if rc != 0:
        reasons.append(f"simulate exit code {rc}")
    return reasons


def check_design(design: Design, rc: int) -> tuple[list, dict]:
    """Failure reasons and deterministic counts for one optimize operation."""
    reasons = [f"optimize exit code {rc}"] if rc != 0 else []
    data = json.loads(design.artifact.read_text())
    targets = np.array([r.eh_requirement for r in design.scenario.receivers])
    if np.any(np.array(data["p_dc"]) < 0.999 * targets):
        reasons.append("EH target missed by more than 0.1%")
    report = data["power_report"]
    if report["p_hpa_sampled"] > report["p_hpa_bound"] * (1.0 + 1e-9):
        reasons.append("amplifier (Jensen) bound broken")
    if data["dma"]:
        q = np.array([complex(re, im) for re, im in data["dma"]["q"]])
        if np.max(np.abs(q - LORENTZIAN_CENTER)) > LORENTZIAN_RADIUS + 1e-9:
            reasons.append("Lorentzian disk violated")
    reasons += simulate_failures(*run_cli(["simulate", str(design.artifact)]))
    trace = data["trace"]
    det = {"scenario_hash": design.scenario.content_hash(),
           "content_hash": data["content_hash"],
           "outer_passes": len(trace),
           "sca_steps_q": sum(r["q_sca_iters"] for r in trace),
           "sca_steps_w": sum(r["w_sca_iters"] for r in trace),
           "p_c_W": report["p_c_sampled"]}
    return reasons, det


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class OptimizeWorkload:
    """Each operation is one ``wptopt optimize``; a round runs every design once."""

    def __init__(self, designs: list):
        self.designs = designs

    def round(self):
        for design in self.designs:
            yield design.name, lambda d=design: run_cli(d.argv)[0], \
                lambda rc, d=design: self._check(d, rc)

    @staticmethod
    def _check(design, rc):
        reasons, det = check_design(design, rc)
        return reasons, det, det["p_c_W"]


class VerifyWorkload:
    """Each operation re-verifies one artifact: simulate, a 2 cm field map and
    paper-rate consumption sampling. No solver runs."""

    def __init__(self, design: Design, work: Path):
        self.design = design
        self.fieldmap_dir = work / "fieldmap"

    def _operation(self):
        art = str(self.design.artifact)
        sim = run_cli(["simulate", art])
        fmap = run_cli(["fieldmap", art, "--res", "0.02", "--out", str(self.fieldmap_dir)])
        artifact = cli.RunArtifact.load(art)
        sc = self.design.scenario
        dma = DmaState.from_phases(np.zeros_like(artifact.dma_phi),
                                   sc.array.inter_element_dx,
                                   sc.microstrip).with_weights(artifact.dma_q)
        dev = sc.device
        report = power.sampled_consumption(
            Waveform(artifact.waveform), dma, sc.array, sc.frequency, dev.hpa_gain,
            dev.hpa_saturation_power, dev.hpa_max_efficiency, paper_sampling=True)
        return sim, fmap, report

    def _check(self, result):
        sim, fmap, report = result
        reasons = simulate_failures(*sim)
        if fmap[0] != 0:
            reasons.append(f"fieldmap exit code {fmap[0]}")
        rows = (self.fieldmap_dir / "fieldmap.csv").read_text().splitlines()
        cells = (len(rows) - 1) * (len(rows[0].split(",")) - 1)
        meta = json.loads((self.fieldmap_dir / "fieldmap.json").read_text())
        if not (math.isfinite(report.p_c_sampled) and report.p_c_sampled > 0):
            reasons.append(f"paper-sampled P_c is {report.p_c_sampled}")
        if report.p_hpa_sampled > report.p_hpa_bound * (1.0 + 1e-9):
            reasons.append("amplifier (Jensen) bound broken under paper sampling")
        plan = self.design.scenario.frequency
        det = {"simulate_sha256": hashlib.sha256(sim[1].encode()).hexdigest(),
               "fieldmap_cells": cells, "fieldmap_argmax": meta["argmax"],
               "sampled_time_points": len(plan.nyquist_times(duration=1e-3)),
               "p_c_paper_W": report.p_c_sampled}
        return reasons, det, report.p_c_sampled

    def round(self):
        yield "verification", self._operation, self._check


def setup_dma_sample(seed: int, work: Path):
    scenario = dataclasses.replace(load_scenario(ROOT / "sample_scenario.cfg"),
                                   seed=seed)
    design = Design("sample", scenario,
                    ["optimize", str(ROOT / "sample_scenario.cfg"), "--seed",
                     str(seed), "--out", str(work / "runs")])
    return OptimizeWorkload([design]), {}


def setup_multiuser(seed: int, work: Path):
    designs = [write_design("dma_3rx", multiuser_scenario(Architecture.DMA, seed), work),
               write_design("fd_3rx", multiuser_scenario(Architecture.FULLY_DIGITAL, seed),
                            work)]
    return OptimizeWorkload(designs), {}


def setup_verify(seed: int, work: Path):
    design = write_design("dma_3rx", multiuser_scenario(Architecture.DMA, seed), work)
    rc, _ = run_cli(design.argv)
    reasons, det = check_design(design, rc)
    if reasons:
        raise RuntimeError(f"set-up design failed its checks: {reasons}")
    return VerifyWorkload(design, work), {"setup_design": det}


WORKLOADS = {"dma_sample": setup_dma_sample, "multiuser": setup_multiuser,
             "verify": setup_verify}


# ---------------------------------------------------------------------------
# host, build and determinism records
# ---------------------------------------------------------------------------

def src_files() -> list:
    return sorted((SRC / "wptopt").glob("*.py"))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in src_files():
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> dict:
    """OpenBLAS thread counts of the libraries numpy and scipy load."""
    import scipy
    out = {}
    for pkg, symbols in ((np, ("scipy_openblas_get_num_threads64_",
                               "openblas_get_num_threads64_",
                               "openblas_get_num_threads")),
                         (scipy, ("scipy_openblas_get_num_threads",
                                  "openblas_get_num_threads"))):
        libs = glob.glob(os.path.join(os.path.dirname(pkg.__file__) + ".libs",
                                      "*openblas*.so*"))
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for sym in symbols:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    out[pkg.__name__] = int(fn())
                    break
    return out


def host_info() -> dict:
    import scipy
    blas = {}
    for pkg in (np, scipy):
        try:
            dep = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[pkg.__name__] = f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError, ValueError):
            blas[pkg.__name__] = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                 "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": commit,
        "src_sha256": source_digest(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in src_files()),
    }


def merge_counts(known: dict, det: dict) -> list:
    """Merge ``det`` into ``known`` (both item -> counts); report every count
    that both hold with different values."""
    diffs = []
    for item, counts in det.items():
        seen = known.setdefault(item, {})
        for name, value in counts.items():
            if name in seen and seen[name] != value:
                diffs.append(f"{item}.{name}: {seen[name]!r} before, {value!r} now")
            seen.setdefault(name, value)
    return diffs


def check_determinism(key: str, det: dict) -> list:
    """Compare this run's deterministic counts with earlier runs of the same
    source, workload, seed and BLAS thread count, and record them."""
    path = WORK / "determinism.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    diffs = merge_counts(records.setdefault(key, {}), det)
    path.write_text(json.dumps(records, indent=1, sort_keys=True))
    return diffs


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def cold_import_s() -> float:
    """Wall time for a fresh interpreter to import the CLI module."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import wptopt.cli",
                    str(SRC)], check=True, timeout=120)
    return time.perf_counter() - t0


def run_setup(name: str, seed: int, work_root: Path):
    """Set up ``SETUP_REPS`` times; each rep must yield the same counts."""
    times, dets, workload = [], [], None
    for rep in range(SETUP_REPS):
        work = work_root / f"setup{rep}"
        work.mkdir(parents=True)
        t_import = cold_import_s()
        t0 = time.perf_counter()
        workload, det = WORKLOADS[name](seed, work)
        times.append(t_import + time.perf_counter() - t0)
        dets.append(det)
    diffs = [] if all(d == dets[0] for d in dets) else ["set-up reps disagree"]
    return workload, times, dets[0], diffs


def measure(workload, seconds: float, traced: bool, t_process: float):
    """Closed loop over whole rounds until ``seconds`` have been measured.

    With tracing, rounds alternate traced and untraced so both sides see the
    same operations; the untraced side gives the tracing overhead. No round
    starts that would end after ``ROUND_DEADLINE_S``."""
    tracer = tracing.Tracer()
    ops = {False: [], True: []}  # traced? -> [(design, seconds)]
    attempted, failures, det, p_c = 0, [], {}, []
    t_start = time.perf_counter()
    side = traced
    while True:
        t_round = time.perf_counter()
        for name, operation, check in workload.round():
            attempted += 1
            first_span = len(tracer.spans)
            try:
                t0 = time.perf_counter()
                if traced and side:
                    result = tracer.operation(len(ops[True]), operation)
                else:
                    result = operation()
                dt = time.perf_counter() - t0
                reasons, counts, pc = check(result)
            except Exception:  # recorded, counted as failed, the run goes on
                failures.append(f"{name}: {traceback.format_exc()}")
                continue
            ops[traced and side].append((name, dt))
            if reasons:
                failures.append(f"{name}: {'; '.join(reasons)}")
                continue
            p_c.append(pc)
            if traced and side:
                counts.update(tracing.solve_counts(tracer.spans, first_span))
            diffs = merge_counts(det, {name: counts})
            if diffs:
                failures.append(f"{name}: counts differ between operations of this "
                                f"run: {'; '.join(diffs)}")
        now = time.perf_counter()
        side = traced and not side
        balanced = not traced or len(ops[True]) == len(ops[False])
        if (balanced and now - t_start >= seconds) or \
                now - t_process + (now - t_round) > ROUND_DEADLINE_S:
            break
    return ops, tracer, attempted, failures, det, p_c


def end_to_end(op_times, setup_times, p_c, attempted, failed) -> dict:
    secs = [dt for _, dt in op_times]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    geo = math.exp(statistics.fmean(math.log(v) for v in p_c)) if p_c else 0.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(secs) / sum(secs) if secs else 0.0, "1/s"),
        "op_s_p50": (statistics.median(secs) if secs else 0.0, "s"),
        "op_s_max": (max(secs) if secs else 0.0, "s"),
        "p_c_geomean_W": (geo, "W"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(ops, tracer) -> dict:
    traced = [dt for _, dt in ops[True]]
    plain = [dt for _, dt in ops[False]]
    roots = [s.end - s.start for s in tracer.spans if s.name == "op"]
    metrics = tracing.layer_metrics(tracer.spans, max(1, len(roots)))
    metrics["trace.op_s"] = statistics.fmean(roots) if roots else 0.0
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0
                                      if traced and plain else 0.0)
    def unit(name):
        if name.endswith((".s", "_s")):
            return "s"
        return "ratio" if name.endswith(("_ratio", "_frac")) else "count"
    return {k: (metrics[k], unit(k)) for k in sorted(metrics)}


def main(argv=None) -> int:
    t_process = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "sample_scenario.cfg").is_file():
        print(f"perfbench: {ROOT} holds no sample_scenario.cfg", file=sys.stderr)
        return 2

    work_root = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        workload, setup_times, setup_det, problems = run_setup(
            args.workload, args.seed, work_root)
        ops, tracer, attempted, failures, det, p_c = measure(
            workload, args.seconds, bool(args.trace), t_process)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    host = host_info()
    det.update(setup_det)
    key = (f"{args.workload}|seed={args.seed}|src={host['src_sha256'][:16]}"
           f"|blas={host['blas_threads']}")
    problems += check_determinism(key, det)
    failed = len(failures)
    if args.trace:
        metrics = per_layer(ops, tracer)
    else:
        metrics = end_to_end(ops[False], setup_times, p_c, attempted, failed)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "setup_s": setup_times,
              "operations": [{"design": n, "s": dt, "traced": side}
                             for side in (False, True) for n, dt in ops[side]],
              "deterministic": det, "failures": failures,
              "determinism_problems": problems,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{args.workload}.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"deterministic counts: {json.dumps(det, sort_keys=True)}")
    n_ops = len(ops[bool(args.trace)])
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>14.6g} {unit}" + (
            f"  (n={n_ops})" if name.startswith("op_s") else ""))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
