#!/usr/bin/env python3
"""Self-check of the sdnav benchmark (about a minute on 4 cores).

    python3 perfbench/selfcheck.py

For every workload it makes a minimal-length run with --trace 0 and
with --trace 1 and fails unless each reports correct, no failed
operations, and exactly the metrics BENCHMARK.json declares, each with
its declared unit and a finite value (end-to-end values also nonzero).
It then proves the oracles are live: a run with --perturb-oracle,
which nudges every expected value, must fail, and exact_sweep's must
report both its sweep and its simulation oracle. Last, a copy holding only
BENCHMARK.json and perfbench/ must exit nonzero without a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
# Workloads with more than one oracle: each must report its own failure.
EXPECTED_FAILURES = {"exact_sweep": ("1-thread sweep", "half-widths")}


def run(extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(SEED),
           "--seconds", "1"] + extra
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, last


def check_result(label, proc, result, kind):
    problems = []
    if proc.returncode != 0 or result is None:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} "
                        f"failed={result['failed']}")
    if not result["attempted"] >= 1:
        problems.append("nothing attempted")
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != declared.get(name):
            problems.append(f"{name}: unit {entry.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif kind == "end_to_end" and value <= 0:
            problems.append(f"{name}: not positive ({value})")
    return [f"{label}: {p}" for p in problems]


def main():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc, result = run(["--workload", workload,
                                "--trace", str(trace)])
            problems += check_result(label, proc, result, kind)
            print(f"checked {label}", flush=True)
        proc, result = run(["--workload", workload, "--perturb-oracle"])
        if proc.returncode == 0 or (result and result.get("correct")):
            problems.append(f"{workload}: a perturbed oracle still passed")
        lines = proc.stdout.strip().splitlines()
        verdict = (json.loads(lines[-2])["stamp"]["oracle"]
                   if len(lines) >= 2 else "")
        for failure in EXPECTED_FAILURES.get(workload, ()):
            if failure not in verdict:
                problems.append(f"{workload}: perturbing did not fail the "
                                f"'{failure}' oracle")
        print(f"checked {workload} --perturb-oracle", flush=True)

    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(["--workload", "hot_query"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a copy without sources did not fail cleanly")
    print("checked a copy without sources", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
