#!/usr/bin/env python3
"""Smoke test of the campaign benchmark itself.

Runs perfbench/run.py on every workload named in BENCHMARK.json at a short
simulated horizon, once untraced and once traced, and checks that the last
stdout line is the result object, that every campaign check passed, and
that exactly the end-to-end (--trace 0) or per-layer (--trace 1) metrics
of BENCHMARK.json are printed, each with its unit.

    python3 perfbench/smoke_test.py        # exit 0 = pass
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Simulated hours per workload: long enough that every campaign has
# finished jobs in the accounting (CMS chains need about a day).
HOURS = {"fabric-sweep": "6", "multi-vo-production": "24"}


def check(workload, trace, expected):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--hours", HOURS.get(workload, "24")]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: checks failed\n{proc.stderr[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(
                got.get("value"), (int, float)):
            errors.append(f"{label}: {name} printed as {got}, unit {unit}")
    return errors


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for w in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            found = check(w["name"], trace, expected)
            print(f"{w['name']} --trace {trace}: "
                  f"{'FAIL' if found else 'ok'}", flush=True)
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
