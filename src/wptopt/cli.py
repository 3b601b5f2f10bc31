"""Command-line surface: optimize, sweep, simulate, fieldmap.

Every number written to disk comes from a library call; the CLI only routes
data. Artifacts land under ``<out>/<scenario-hash>/`` and re-running with the
same scenario and seed reproduces them byte for byte (timing fields aside).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blas, optimize, oracle, power, rectenna
from .scenario import (Architecture, ScenarioConfig, ScenarioError,
                       ScenarioParseError, ScenarioValidationError, _digest,
                       _number, load_scenario, scenario_from_dict)
from .transmitter import LORENTZIAN_CENTER, DmaState, Waveform

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_ITER_LIMIT = 5


def _complex_to_pairs(a: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(a).reshape(-1)]


def _pairs_to_complex(pairs, shape) -> np.ndarray:
    arr = np.array([complex(re, im) for re, im in pairs])
    return arr.reshape(shape)


@dataclass
class RunArtifact:
    """Everything needed to reproduce and re-verify one optimization run: the
    scenario, the weights and the claims that ``simulate`` re-derives. What
    is a function of these (the scenario hash, the DMA phases) is derived on
    reading, not stored."""

    scenario: dict
    waveform: np.ndarray                 # [n_rf, n_f] complex
    dma_q: np.ndarray | None             # [n_v, n_h] complex
    power_report: power.PowerReport
    trace_rows: list[dict]
    p_dc: np.ndarray
    converged: bool
    paper_sampling: bool = False         # P_c sampled on the 1 ms paper grid

    @property
    def scenario_hash(self) -> str:
        """sha256 of the stored scenario as sorted JSON, the hash that
        ``ScenarioConfig.content_hash`` takes of its export."""
        return _digest(self.scenario)

    @property
    def dma_phi(self) -> np.ndarray | None:
        """Angle of each DMA weight about its disk center, in [0, 2*pi)."""
        if self.dma_q is None:
            return None
        return np.mod(np.angle(self.dma_q - LORENTZIAN_CENTER), 2.0 * np.pi)

    def content_hash(self) -> str:
        return _digest(self._payload())

    def _payload(self) -> dict:
        """The stored keys that the content hash covers: all but the hash
        itself and the timings."""
        payload = {
            "scenario": self.scenario,
            "waveform": {"shape": list(self.waveform.shape),
                         "values": _complex_to_pairs(self.waveform)},
            "dma": None,
            "power_report": self.power_report.to_dict(),
            "trace": [{k: v for k, v in row.items()
                       if not k.endswith("_seconds")} for row in self.trace_rows],
            "p_dc": list(map(float, self.p_dc)),
            "converged": self.converged,
            "paper_sampling": self.paper_sampling,
        }
        if self.dma_q is not None:
            payload["dma"] = {"shape": list(self.dma_q.shape),
                              "q": _complex_to_pairs(self.dma_q)}
        return payload

    def save(self, path) -> None:
        payload = self._payload()
        payload["content_hash"] = _digest(payload)
        payload["timings"] = [{k: row[k] for k in row if k.endswith("_seconds")}
                              for row in self.trace_rows]
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RunArtifact":
        """Read an artifact that :meth:`save` wrote, timings included
        (:meth:`from_stored`)."""
        return cls.from_stored(_read_stored(path), path)

    @classmethod
    def from_stored(cls, data, path) -> "RunArtifact":
        """The artifact of the JSON ``data`` read from ``path``. Keys that
        older writers stored and this one derives are ignored. A missing
        key, or a value of the wrong type or shape, is a parse error that
        names the file."""
        try:
            wshape = tuple(data["waveform"]["shape"])
            dma_q = None
            if data.get("dma"):
                dma_q = _pairs_to_complex(data["dma"]["q"], tuple(data["dma"]["shape"]))
            timings = data.get("timings") or [{}] * len(data["trace"])  # older artifacts
            flags = data["converged"], data.get("paper_sampling", False)
            if not all(isinstance(flag, bool) for flag in flags):
                raise TypeError(f"converged, paper_sampling = {flags} are not booleans")
            if not all(type(row["p_c_bound"]) is float for row in data["trace"]):
                raise TypeError("a trace row's p_c_bound is not a number")
            report = data["power_report"]
            return cls(
                scenario=data["scenario"],
                waveform=_pairs_to_complex(data["waveform"]["values"], wshape),
                dma_q=dma_q,
                power_report=power.PowerReport(**{
                    f.name: float(report[f.name])
                    for f in dataclasses.fields(power.PowerReport)}),
                trace_rows=[{**row, **t} for row, t in zip(data["trace"], timings, strict=True)],
                p_dc=np.array(data["p_dc"], dtype=float).reshape(-1),
                converged=flags[0],
                paper_sampling=flags[1],
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ScenarioParseError(f"{path}: bad artifact: {exc!r}") from exc


def _read_stored(path):
    """The JSON that ``path`` holds; a path that cannot be read as text, or
    text that is not JSON, is a parse error that names the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and decoding errors included
        raise ScenarioParseError(f"{path}: bad artifact: {exc!r}") from exc


def _load_design(path) -> tuple[RunArtifact, power.Design, dict]:
    """An artifact, the design it stores and its JSON as read; weights whose
    shape does not fit the scenario are a parse error."""
    stored = _read_stored(path)
    artifact = RunArtifact.from_stored(stored, path)
    scenario = scenario_from_dict(artifact.scenario)
    arr = scenario.array
    fits = {"waveform": (artifact.waveform.shape, (arr.rf_chain_count, scenario.frequency.n_f)),
            "dma": (None if artifact.dma_q is None else artifact.dma_q.shape,
                    (arr.n_v, arr.n_h) if arr.architecture is Architecture.DMA else None)}
    for name, (shape, expected) in fits.items():
        if shape != expected:
            raise ScenarioParseError(f"{path}: {name} shape {shape} does not fit "
                                     f"the scenario's {expected}")
    dma = None
    if artifact.dma_q is not None:
        dma = DmaState.from_phases(np.zeros(artifact.dma_q.shape), arr.inter_element_dx,
                                   scenario.microstrip).with_weights(artifact.dma_q)
    return artifact, power.Design(scenario, Waveform(artifact.waveform), dma), stored


def run_optimization(scenario: ScenarioConfig,
                     paper_sampling: bool = False) -> RunArtifact:
    """Optimize one scenario and assemble the full artifact."""
    if scenario.array.architecture is Architecture.DMA:
        waveform, dma, trace = optimize.run_asca_dma(scenario)
    else:
        waveform, trace = optimize.run_sca_fd(scenario)
        dma = None
    return RunArtifact(
        scenario=scenario.to_dict(),
        waveform=waveform.omega,
        dma_q=None if dma is None else dma.q,
        power_report=power.Design(scenario, waveform, dma).report(paper_sampling),
        trace_rows=[dataclasses.asdict(r) for r in trace.records],
        p_dc=trace.final_p_dc,
        converged=trace.converged,
        paper_sampling=paper_sampling,
    )


def _load_with_overrides(args) -> ScenarioConfig:
    scenario = load_scenario(args.scenario)
    if getattr(args, "arch", None):
        data = scenario.to_dict()
        data["array"]["architecture"] = args.arch
        scenario = scenario_from_dict(data)
    if getattr(args, "seed", None) is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def write_csv(path: Path, fields: list[str], rows: list[dict]) -> None:
    """Write ``rows`` as CSV under the header ``fields``; a field holding a
    comma or a quote is quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def cmd_optimize(args) -> int:
    scenario = _load_with_overrides(args)
    artifact = run_optimization(scenario, paper_sampling=args.paper_sampling)
    out = Path(args.out) / artifact.scenario_hash[:12]
    out.mkdir(parents=True, exist_ok=True)
    artifact.save(out / "artifact.json")
    write_csv(out / "trace.csv", [f.name for f in dataclasses.fields(optimize.OuterRecord)],
              artifact.trace_rows)
    print(f"artifact: {out / 'artifact.json'}")
    print(f"p_c_sampled: {artifact.power_report.p_c_sampled:.6e} W")
    print(f"p_dc: {' '.join(f'{p:.3e}' for p in artifact.p_dc)} W")
    if not artifact.converged:
        loop, cap = (("outer loop", "max_outer_iters")
                     if scenario.array.architecture is Architecture.DMA
                     else ("waveform stage", "max_sca_iters"))
        print(f"warning: {loop} hit the iteration cap {cap}", file=sys.stderr)
        return EXIT_ITER_LIMIT
    return EXIT_OK


_SWEEP_AXES = ("L", "n_f", "M", "d", "P_max")


def _scenario_for_point(base: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    data = base.to_dict()
    if axis == "L":
        data["array"]["length"] = float(value)
    elif axis == "n_f":
        bandwidth = base.frequency.delta_f * base.frequency.n_f
        data["frequency"]["n_tones"] = value
        data["frequency"].pop("delta_f", None)
        data["frequency"]["bandwidth"] = bandwidth
    elif axis == "M":
        m = _number("sweep", "M", value, int)
        if m > len(data["receivers"]):
            raise ScenarioValidationError("sweep M exceeds configured receivers")
        data["receivers"] = data["receivers"][:m]
    elif axis == "d":
        for rec in data["receivers"]:
            pos = np.asarray(rec["position"], dtype=float)
            norm = np.linalg.norm(pos)
            if norm == 0:
                raise ScenarioValidationError("cannot rescale a receiver at the origin")
            rec["position"] = list(pos / norm * float(value))
    elif axis == "P_max":
        data["device"]["hpa_saturation_power"] = float(value)
    else:
        raise ScenarioValidationError(f"unknown sweep axis {axis!r}")
    return scenario_from_dict(data)


def _sweep_point(payload):
    base_dict, axis, value = payload
    base = scenario_from_dict(base_dict)
    try:
        scenario = _scenario_for_point(base, axis, value)
        artifact = run_optimization(scenario)
        return {"value": value, "status": "ok",
                "p_c_bound": artifact.trace_rows[-1]["p_c_bound"],
                "p_c_sampled": artifact.power_report.p_c_sampled,
                "outer_iters": len(artifact.trace_rows)}
    except Exception as exc:  # per-point failures recorded, sweep continues
        return {"value": value, "status": f"error: {exc}", "p_c_bound": math.nan,
                "p_c_sampled": math.nan, "outer_iters": 0}


def cmd_sweep(args) -> int:
    scenario = _load_with_overrides(args)
    payloads = [(scenario.to_dict(), args.axis, v) for v in args.values]
    # the pool may start every worker at once, so it gets no more than the points
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        # imported here: it and the logging it loads are 4.5 ms of every command's start-up
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_{args.axis}.csv"
    fields = ["value", "p_c_bound", "p_c_sampled", "outer_iters", "status"]
    write_csv(path, fields, results)
    print(f"sweep table: {path}")
    return EXIT_OK if all(r["status"] == "ok" for r in results) else EXIT_ERROR


def _matches(name: str, stored, derived, tol: float) -> tuple[str, bool, str]:
    """Check row: ``derived`` equals ``stored`` to relative ``tol``, entrywise."""
    stored = np.asarray(stored, dtype=float)
    rel = float(np.max(np.abs(derived - stored) / np.maximum(np.abs(stored), 1e-300)))
    return name, rel <= tol, f"{'max ' if stored.ndim else ''}rel err {rel:.2e}"


def cmd_simulate(args) -> int:
    """Re-derive the artifact's claims through the time-domain oracle."""
    artifact, design, stored = _load_design(args.artifact)
    scenario, dev = design.scenario, design.scenario.device
    # hashed as stored: keys of older writers count
    digest = _digest({k: v for k, v in stored.items() if k not in ("content_hash", "timings")})
    checks = [("content-hash-matches-artifact", digest == stored.get("content_hash"),
               f"sha256 {digest[:12]}")]
    spectral, sampled = [], []
    for rows in design.rows:
        s = rectenna.tone_amplitudes(rows, design.waveform.omega.T)
        spectral.append([rectenna.moment2_from_spectrum(s, dev.hpa_gain),
                         rectenna.moment4_from_spectrum(s, dev.hpa_gain)])
        sig = oracle.synthesize_received(scenario.frequency, dev.hpa_gain, s)
        sampled.append([sig.moment(2), sig.moment(4)])
    checks.append(_matches("moment-equivalence", spectral, np.array(sampled), 1e-8))
    p_dc, report = design.p_dc(), design.report(artifact.paper_sampling)
    checks.append(_matches("p-dc-matches-artifact", artifact.p_dc, p_dc, 1e-6))
    checks.append(("eh-targets-met", bool(np.all(p_dc >= 0.999 * scenario.eh_targets)),
                   f"min margin {np.min(p_dc / scenario.eh_targets):.4f}"))
    # Jensen's bound holds on the default grid; at 2*f_max a harmonic aliases onto DC.
    default = design.report() if artifact.paper_sampling else report
    jensen = default.p_hpa_sampled <= default.p_hpa_bound + 1e-9 * max(1.0, default.p_hpa_bound)
    checks.append(("amplifier-bound-holds", jensen,
                   f"sampled {default.p_hpa_sampled:.6e} <= bound {default.p_hpa_bound:.6e}"))
    claims = artifact.power_report
    checks += [
        _matches("p-c-matches-artifact", claims.p_c_sampled, report.p_c_sampled, 1e-6),
        _matches("p-hpa-bound-matches-artifact", claims.p_hpa_bound, report.p_hpa_bound, 1e-12),
        _matches("p-in-matches-artifact", claims.p_in, report.p_in, 1e-12),
        _matches("trace-bound-matches-artifact",
                 min((row["p_c_bound"] for row in artifact.trace_rows), default=math.nan),
                 report.p_hpa_bound + report.p_in, 1e-9)]
    if design.dma is not None:
        excess = np.max(design.dma.circle_distance())
        checks.append(("lorentzian-disks-feasible", excess <= 1e-9, f"max excess {excess:.2e}"))

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_ERROR


def cmd_fieldmap(args) -> int:
    plane = oracle.PlaneSpec(x_min=args.xmin, x_max=args.xmax,
                             z_min=args.zmin, z_max=args.zmax,
                             resolution=args.res, y_offset=args.y)
    try:
        plane.validate()
    except ValueError as exc:
        print(f"invalid plane: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    artifact, design, _ = _load_design(args.artifact)
    fmap = oracle.field_map(design.scenario, design.waveform, design.dma, plane)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fmap.to_csv(out / "fieldmap.csv")
    meta = {"plane": dataclasses.asdict(plane),
            "argmax": fmap.argmax_position(),
            "scenario_hash": artifact.scenario_hash}
    with open(out / "fieldmap.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"fieldmap: {out / 'fieldmap.csv'} argmax={fmap.argmax_position()}")
    return EXIT_OK


def _count(text: str) -> int:
    """A whole number of at least 1, read from the command line."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; sub-command ``x``
    runs ``cmd_x``."""
    parser = argparse.ArgumentParser(
        prog="wptopt",
        description="Minimum-power waveform and beam-focusing design for "
                    "near-field wireless power transfer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize one scenario")
    p_opt.add_argument("scenario")
    p_opt.add_argument("--arch", choices=["fd", "dma"], help="override architecture")
    p_opt.add_argument("--paper-sampling", action="store_true",
                       help="sample consumption over 1 ms at twice the top tone")
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.add_argument("--out", default="runs")

    p_sw = sub.add_parser("sweep", help="optimize across one swept axis")
    p_sw.add_argument("scenario")
    p_sw.add_argument("--axis", choices=_SWEEP_AXES, required=True)
    p_sw.add_argument("--values", nargs="+", type=float, required=True)
    p_sw.add_argument("--arch", choices=["fd", "dma"])
    p_sw.add_argument("--seed", type=int, default=None)
    p_sw.add_argument("--jobs", type=_count, default=1)
    p_sw.add_argument("--out", default="runs")

    p_sim = sub.add_parser("simulate", help="re-verify an artifact with the oracle")
    p_sim.add_argument("artifact")

    p_fm = sub.add_parser("fieldmap", help="spatial power map for an artifact")
    p_fm.add_argument("artifact")
    p_fm.add_argument("--xmin", type=float, default=-1.5)
    p_fm.add_argument("--xmax", type=float, default=1.5)
    p_fm.add_argument("--zmin", type=float, default=0.25)
    p_fm.add_argument("--zmax", type=float, default=4.0)
    p_fm.add_argument("--res", type=float, default=0.05)
    p_fm.add_argument("--y", type=float, default=0.0)
    p_fm.add_argument("--out", default="runs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with blas.single_thread():
            return globals()[f"cmd_{args.command}"](args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except optimize.UnmeetableRequirementError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except optimize.InfeasibleRestrictionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except optimize.OptimizationError as exc:  # a missed target or a broken invariant
        print(f"optimization failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FloatingPointError as exc:  # numpy set to raise on overflow or NaN
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
