#!/usr/bin/env python3
"""Smoke self-check of the benchmark.

Runs every workload at its minimum length, untraced and traced, and checks
the result line against BENCHMARK.json: metric names and units, counts, and
that the layer self times add up to the traced operation time. Finally it runs
the benchmark in a directory that holds only BENCHMARK.json and perfbench/ and
expects a non-zero exit without a result line.

    python3 perfbench/selfcheck.py            # about 4 minutes on 2 cores
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int) -> list:
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"correct={result['correct']} failed={result['failed']}: "
                      f"{proc.stderr[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"attempted={result['attempted']}")
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"metric names/units differ: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, units "
                      f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
        return errors
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if any(not isinstance(v, (int, float)) or not math.isfinite(v) for v in values.values()):
        errors.append("a metric value is not a finite number")
    if not trace:
        if any(values[m["name"]] <= 0 for m in SPEC["end_to_end"]):
            errors.append("an end-to-end metric is not positive")
        return errors
    layer_s = sum(v for k, v in values.items()
                  if k.endswith((".s", "_s")) and not k.startswith("trace."))
    if abs(layer_s - values["trace.op_s"]) > 1e-6 * values["trace.op_s"]:
        errors.append(f"self times add up to {layer_s}, traced op time is {values['trace.op_s']}")
    if workload == "dma_sample":
        solve = values["socp.solve.q.s"] + values["socp.solve.w.s"]
        if solve < 0.5 * values["trace.op_s"]:
            errors.append(f"socp.solve covers only {solve / values['trace.op_s']:.0%}")
    if workload == "verify":
        largest = max((v, k) for k, v in values.items()
                      if k.endswith(".s") and k != "trace.op_s")[1]
        if largest != "power.sampled_consumption.s":
            errors.append(f"largest layer on verify is {largest}")
    return errors


def check_bare_directory() -> list:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("dma_sample", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
    errors = []
    if proc.returncode == 0:
        errors.append("exit code 0 without the program")
    if last and last[0].startswith("{"):
        errors.append("printed a result without the program")
    return errors


def main() -> int:
    failed = False
    checks = [(f"{w['name']} trace={t}", lambda w=w["name"], t=t: check_result(w, t))
              for w in SPEC["workloads"] for t in (0, 1)]
    checks.append(("bare directory", check_bare_directory))
    for label, check in checks:
        errors = check()
        print(f"{'ok  ' if not errors else 'FAIL'} {label}")
        for err in errors:
            print(f"     {err}")
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
