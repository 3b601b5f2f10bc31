"""In-memory spans around the library's layer boundaries.

The tracer replaces selected public functions of ``wptopt`` with wrappers,
in every module namespace that holds a reference to them (``wptopt.optimize``
calls ``solve`` through its own imported name, so that is the name that must
be replaced). The library itself is not modified on disk. ``install`` and
``uninstall`` bracket each traced operation, so untraced operations run the
original functions with no wrapper in between.

A span records name, start, end, parent span and operation id, plus a few
counts taken from the call's arguments or result. Spans stay in a list until
the run ends; ``layer_metrics`` turns them into per-operation figures.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field

# Layer boundaries: module -> public functions wrapped in that module.
LAYERS = {
    "channel": ("build_channel",),
    "transmitter": ("effective_rows",),
    "rectenna": ("harvested_voltage",),
    "power": ("sampled_consumption",),
    "linearize": ("linearize_vo_in_q", "linearize_vo_in_w"),
    "socp": ("solve", "assemble_q_subproblem", "assemble_w_subproblem"),
    "optimize": ("run_asca_dma", "run_sca_fd", "run_sca_q", "run_sca_w",
                 "allocate_chains", "init_q_phases", "init_digital_weights",
                 "phase_search"),
    "oracle": ("synthesize_received", "field_map"),
}
ARTIFACT_METHODS = ("save", "load")  # cli.RunArtifact, a classmethod for load


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)


def _solve_attrs(result, args, kwargs):
    return {"iters": result.iterations, "optimal": result.status.name == "OPTIMAL",
            "vars": args[0].n_vars}


def _stage_attrs(result, args, kwargs):
    stage = result[1]
    cap = args[0].solver.max_sca_iters
    return {"steps": stage.iterations,
            "cap_hit": stage.iterations >= cap and not stage.converged}


def _run_attrs(result, args, kwargs):
    return {"records": len(result[-1].records)}


def _sampling_attrs(result, args, kwargs):
    # The sample count is derived after the run from the frequency plan.
    plan = args[3] if len(args) > 3 else kwargs["plan"]
    paper = kwargs.get("paper_sampling", args[7] if len(args) > 7 else False)
    return {"plan": plan, "paper": bool(paper)}


def _field_map_attrs(result, args, kwargs):
    return {"cells": int(result.values.size)}


ATTRS = {
    "socp.solve": _solve_attrs,
    "optimize.run_sca_q": _stage_attrs,
    "optimize.run_sca_w": _stage_attrs,
    "optimize.run_asca_dma": _run_attrs,
    "optimize.run_sca_fd": _run_attrs,
    "power.sampled_consumption": _sampling_attrs,
    "oracle.field_map": _field_map_attrs,
}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self._op,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(result, args, kwargs)
            return result
        return wrapper

    def install(self) -> None:
        """Replace every reference to each layer function inside ``wptopt``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "wptopt" or n.startswith("wptopt."))]
        for mod_name, funcs in LAYERS.items():
            owner = sys.modules[f"wptopt.{mod_name}"]
            for func in funcs:
                original = getattr(owner, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        artifact = sys.modules["wptopt.cli"].RunArtifact
        for meth in ARTIFACT_METHODS:
            raw = vars(artifact)[meth]
            name = f"cli.RunArtifact.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._patches.append((artifact, meth, raw))
            setattr(artifact, meth, new)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def operation(self, op_id: int, fn):
        """Run ``fn`` as operation ``op_id`` under a root span named ``op``."""
        self._op = op_id
        self.install()
        try:
            return self._wrap("op", fn)()
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


_STAGES = {"optimize.run_sca_q": "q", "optimize.run_sca_w": "w"}


def _parent_name(spans: list[Span], span: Span) -> str:
    return spans[span.parent].name if span.parent is not None else ""


def solve_counts(spans: list[Span], first: int) -> dict[str, int]:
    """Solve calls and IPM iterations per stage in ``spans[first:]``."""
    out = {"solve_calls_q": 0, "ipm_iters_q": 0, "solve_calls_w": 0, "ipm_iters_w": 0}
    for s in spans[first:]:
        if s.name == "socp.solve":
            stage = _STAGES[_parent_name(spans, s)]
            out[f"solve_calls_{stage}"] += 1
            out[f"ipm_iters_{stage}"] += s.attrs["iters"]
    return out


def _samples(attrs) -> int:
    plan = attrs["plan"]
    times = plan.nyquist_times(duration=1e-3) if attrs["paper"] \
        else plan.quadrature_times(degree=2)
    return len(times)


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-operation layer figures: ``.s`` self seconds, ``.calls`` counts."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + t

    solves = solve_counts(spans, 0)
    solve_s = {"q": 0.0, "w": 0.0}
    not_optimal = vars_max = 0
    steps = {"q": 0, "w": 0}
    cap_hits = passes = records = 0
    samples = cells = 0
    for s, t in zip(spans, own):
        if s.name == "socp.solve":
            solve_s[_STAGES[_parent_name(spans, s)]] += t
            not_optimal += not s.attrs["optimal"]
            vars_max = max(vars_max, s.attrs["vars"])
        elif s.name in ("optimize.run_sca_q", "optimize.run_sca_w"):
            steps[s.name[-1]] += s.attrs["steps"]
            cap_hits += s.attrs["cap_hit"]
            if s.name.endswith("_q") or _parent_name(spans, s) == "optimize.run_sca_fd":
                passes += 1  # one focusing stage per DMA pass, one stage for FD
        elif s.name in ("optimize.run_asca_dma", "optimize.run_sca_fd"):
            records += s.attrs["records"]
        elif s.name == "power.sampled_consumption":
            samples += _samples(s.attrs)
        elif s.name == "oracle.field_map":
            cells += s.attrs["cells"]

    n_solves = solves["solve_calls_q"] + solves["solve_calls_w"]
    totals = {
        "socp.solve.q.calls": solves["solve_calls_q"], "socp.solve.q.s": solve_s["q"],
        "socp.solve.q.iters": solves["ipm_iters_q"],
        "socp.solve.w.calls": solves["solve_calls_w"], "socp.solve.w.s": solve_s["w"],
        "socp.solve.w.iters": solves["ipm_iters_w"],
        "socp.solve.not_optimal": not_optimal,
        "optimize.outer_passes": passes,
        "optimize.rejected_passes": passes - records,
        "optimize.sca_steps_q": steps["q"], "optimize.sca_steps_w": steps["w"],
        "optimize.stage_cap_hits": cap_hits,
        "power.sampled_consumption.samples": samples,
        "oracle.field_map.cells": cells,
        "cli.unattributed_s": secs.get("op", 0.0),
    }
    for mod_name, funcs in LAYERS.items():
        for func in funcs:
            name = f"{mod_name}.{func}"
            if name != "socp.solve":
                totals[f"{name}.calls"] = calls.get(name, 0)
                totals[f"{name}.s"] = secs.get(name, 0.0)
    for meth in ARTIFACT_METHODS:
        name = f"cli.RunArtifact.{meth}"
        totals[f"{name}.calls"] = calls.get(name, 0)
        totals[f"{name}.s"] = secs.get(name, 0.0)
    out = {k: v / n_ops for k, v in totals.items()}
    out["socp.solve.vars_max"] = vars_max
    out["socp.solve.useful_ratio"] = ((steps["q"] + steps["w"]) / n_solves
                                      if n_solves else 0.0)
    out["trace.spans"] = len(spans) / n_ops
    return out
