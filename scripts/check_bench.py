#!/usr/bin/env python3
"""Bench-regression gate for CI.

Runs the gating ablation benches in quick mode (GRID3_BENCH_QUICK=1),
collects each binary's ``acceptance:`` verdict line and exit code,
re-checks recorded numbers from each bench's ``result-json:`` line
against the criteria in its registered checker, and writes a JSON
artifact summarising the run.  Every gated bench lives in REGISTRY:
name -> (numeric checker, committed baseline artifact) -- adding a gate
is one REGISTRY entry plus its checker.  A one-line PASS/FAIL table is
printed at the end.  Exits non-zero when any criterion fails, so a
regression in a docs/BENCH.md acceptance row fails the workflow.

Usage:
  check_bench.py <build-dir> [--out artifact.json]    # ablation gates
  check_bench.py <build-dir> --check-catalog [--out artifact.json]
  check_bench.py <build-dir> --check-golden [--write-golden]
  check_bench.py <build-dir> --check-campaign [--write-campaign]

--check-catalog runs the scenario-catalog determinism gate instead of
the ablation gates: ablation_catalog sweeps every catalog scenario
under both policy stacks, and each (scenario, stack) digest must match
the committed bench/CATALOG_MANIFEST.json byte for byte.

--check-golden runs the paper-output gate: every program pinned in
bench/GOLDEN_MANIFEST.json (the paper benches, the monitoring, outage
and multi-SE ablations, grid30 and two examples) is rerun in quick mode,
and the SHA-256 of its stdout, host-timing fields masked, must match the
pinned digest; a mismatch prints the first differing line.
--write-golden rewrites the manifest from the build instead.

--check-campaign runs the campaign-benchmark determinism gate: it builds
campaign_bench from perfbench/CMakeLists.txt into <build-dir>/perfbench,
runs one campaign per (workload, seed) in CAMPAIGN_RUNS, and compares the
digest, the job counts, the checks and every layer count with the
committed bench/CAMPAIGN_MANIFEST.json.  It lists every differing
(workload, seed, field) and fails the gate on any of them.  Host timings
and RSS are never compared.  --write-campaign rewrites the manifest from
the build instead.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from typing import Callable, NamedTuple

CATALOG_MANIFEST = "bench/CATALOG_MANIFEST.json"

# The catalog gate requires at least this many distinct scenarios (the
# catalog currently holds 10; the floor guards against an accidentally
# emptied sweep passing vacuously).
CATALOG_MIN_SCENARIOS = 8

# Paper-output gate: the programs whose quick-mode stdout is pinned, and
# the environment they are pinned under.
GOLDEN_MANIFEST = "bench/GOLDEN_MANIFEST.json"
GOLDEN_PROGRAMS = (
    "bench/table1_job_stats",
    "bench/fig2_integrated_cpu",
    "bench/fig3_differential_cpu",
    "bench/fig4_cms_by_site",
    "bench/fig5_data_consumed",
    "bench/fig6_jobs_by_month",
    "bench/sec61_atlas_failures",
    "bench/sec62_cms_production",
    "bench/sec63_gridftp_demo",
    "bench/sec64_gatekeeper_load",
    "bench/sec7_milestones",
    "bench/sec8_lessons_tools",
    "bench/ablation_monitoring_redundancy",
    "bench/ablation_outage",
    "bench/ablation_multise",
    "bench/grid30",
    "examples/quickstart",
    "examples/sc2003_demo",
)
GOLDEN_ENV = {"GRID3_BENCH_QUICK": "1", "GRID3_JOB_SCALE": "0.05"}
# Host-timing fields a pinned program prints, masked in its stdout before
# hashing and storing: (pattern, replacement) pairs per program.
GOLDEN_MASKS = {
    "bench/grid30": (
        (re.compile(rb"[0-9.]+s wall\)"), rb"*s wall)"),
        (re.compile(rb"[0-9]+ events/s"), rb"* events/s"),
        (re.compile(rb'"events_per_sec": [0-9]+'), rb'"events_per_sec": *'),
    ),
}
# The pinned programs are single-threaded; run this many at once.
GOLDEN_JOBS = 4

# Campaign-benchmark gate: the perfbench/ workloads and seeds whose
# deterministic outputs are pinned, and the fields of each campaign's JSON
# line that must repeat exactly (timings and RSS are host-dependent).
CAMPAIGN_MANIFEST = "bench/CAMPAIGN_MANIFEST.json"
CAMPAIGN_RUNS = tuple((w, s) for w in ("fabric-sweep", "multi-vo-production")
                      for s in (1, 2, 20040423))
CAMPAIGN_FIELDS = ("digest", "jobs", "completed", "failed", "workflows",
                   "checks", "counts")

# Kernel-throughput snapshot gate: `perf_kernel --snapshot` rates must
# stay within KERNEL_REGRESSION_RATIO of the committed baseline.  0.5
# tolerates shared-runner noise while still catching an accidental
# O(n) -> O(n log^2 n) slip in the queue or cancel bookkeeping.
KERNEL_BASELINE = "bench/BENCH_kernel.json"
KERNEL_KEYS = ("events_per_sec", "queue_ops_per_sec",
               "match_cycles_per_sec", "timer_events_per_sec",
               "flow_reallocs_per_sec")
KERNEL_REGRESSION_RATIO = 0.5


def run_bench(build_dir: pathlib.Path, name: str,
              extra_args: list[str] | None = None) -> dict:
    binary = build_dir / "bench" / name
    if not binary.exists():
        return {"name": name, "ok": False, "error": f"missing binary {binary}"}
    env = dict(os.environ, GRID3_BENCH_QUICK="1")
    started = time.monotonic()
    proc = subprocess.run(
        [str(binary), *(extra_args or [])],
        capture_output=True, text=True, env=env, timeout=1800,
    )
    elapsed = round(time.monotonic() - started, 1)
    acceptance = [
        line.strip()
        for line in proc.stdout.splitlines()
        if line.startswith("acceptance:")
    ]
    results = [
        json.loads(line.split(":", 1)[1])
        for line in proc.stdout.splitlines()
        if line.startswith("result-json:")
    ]
    entry = {
        "name": name,
        "exit_code": proc.returncode,
        "seconds": elapsed,
        "acceptance": acceptance,
        # Single-result benches read `result`; sweeps read `results`.
        "result": results[-1] if results else None,
        "results": results,
        "ok": proc.returncode == 0 and bool(acceptance),
    }
    if proc.returncode != 0:
        entry["error"] = "acceptance criterion failed (non-zero exit)"
        entry["tail"] = proc.stdout.splitlines()[-15:]
    elif not acceptance:
        entry["ok"] = False
        entry["error"] = "no acceptance: verdict line in output"
    return entry


def check_multise(entry: dict, repo_root: pathlib.Path) -> list[str]:
    """Re-verify the BENCH.md ablation_multise row from the raw numbers."""
    problems = []
    r = entry.get("result")
    if not r:
        return ["ablation_multise printed no result-json line"]
    if r["single_disk_full"] == 0:
        problems.append("single-SE baseline shows no disk-full failures; "
                        "the ablation no longer exercises the failure mode")
    if r["chain_disk_full"] * 5 > r["single_disk_full"]:
        problems.append(
            f"disk-full drop below 5x: {r['single_disk_full']} -> "
            f"{r['chain_disk_full']}")
    if r["chain_completed"] < r["single_completed"]:
        problems.append(
            f"chained completions regressed: {r['chain_completed']} < "
            f"{r['single_completed']}")
    if r["fallthroughs"] <= 0:
        problems.append("the ledger counted no fallthrough hops")
    return problems


def check_outage(entry: dict, repo_root: pathlib.Path) -> list[str]:
    """Re-verify the BENCH.md ablation_outage row from the raw numbers."""
    problems = []
    r = entry.get("result")
    if not r:
        return ["ablation_outage printed no result-json line"]
    if r["degraded_completed"] < 0.9 * r["baseline_completed"]:
        problems.append(
            f"degraded completions {r['degraded_completed']} fell below "
            f"90% of the no-outage baseline {r['baseline_completed']}")
    if r["degraded_lost"] != 0 or r["degraded_pending"] != 0:
        problems.append(
            f"degraded mode lost registrations: lost={r['degraded_lost']} "
            f"pending={r['degraded_pending']} (the journal must drain)")
    if r["degraded_visible"] != r["degraded_registered"]:
        problems.append(
            f"degraded catalog incomplete: {r['degraded_visible']} of "
            f"{r['degraded_registered']} registrations locatable")
    if r["naive_lost"] == 0:
        problems.append("naive baseline lost no registrations; the storm "
                        "no longer exercises the outage window")
    if r["naive_completed"] >= r["degraded_completed"]:
        problems.append(
            f"naive completions {r['naive_completed']} not below degraded "
            f"{r['degraded_completed']}; stale-view brokering shows no win")
    if r["stale_matches"] == 0 or r["degraded_replayed"] == 0:
        problems.append("mitigations idle: stale_matches="
                        f"{r['stale_matches']} replayed="
                        f"{r['degraded_replayed']}")
    return problems


def check_grid30(entry: dict, repo_root: pathlib.Path) -> list[str]:
    """Re-verify the BENCH.md grid30 row from the raw numbers."""
    problems = []
    r = entry.get("result")
    if not r:
        return ["grid30 printed no result-json line"]
    if r["sites"] != 270:
        problems.append(f"grid30 fabric is {r['sites']} sites, not 270")
    return problems


def check_catalog_results(entry: dict, repo_root: pathlib.Path) -> list[str]:
    """Verify the catalog sweep against the committed digest manifest."""
    problems = []
    results = entry.get("results") or []
    if not results:
        return ["ablation_catalog printed no result-json lines"]

    scenarios = {r["scenario"] for r in results}
    if len(scenarios) < CATALOG_MIN_SCENARIOS:
        problems.append(
            f"catalog sweep covered only {len(scenarios)} scenarios "
            f"(floor {CATALOG_MIN_SCENARIOS})")
    for r in results:
        if r["jobs"] == 0:
            problems.append(
                f"{r['scenario']}/{r['stack']}: produced no jobs")

    manifest_path = repo_root / CATALOG_MANIFEST
    if not manifest_path.exists():
        return problems + [f"missing committed manifest {CATALOG_MANIFEST}"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    # Digests are a function of (scenario, seed, stack): comparing under
    # a different seed or scale would flag every entry, so the digest
    # half of the gate only runs in the recorded environment.
    env_seed = int(float(os.environ.get("GRID3_SEED", "20031025")))
    scaled = any(os.environ.get(k) for k in ("GRID3_JOB_SCALE",
                                             "GRID3_CPU_SCALE"))
    if manifest.get("seed") != env_seed or scaled:
        print("    (seed/scale differs from the manifest; "
              "skipping digest comparison)")
        return problems

    expected = {(e["scenario"], e["stack"]): e["digest"]
                for e in manifest.get("entries", [])}
    seen = {(r["scenario"], r["stack"]): r["digest"] for r in results}
    for key, digest in sorted(expected.items()):
        got = seen.get(key)
        if got is None:
            problems.append(f"{key[0]}/{key[1]}: in manifest but not run")
        elif got != digest:
            problems.append(
                f"{key[0]}/{key[1]}: digest {got} != manifest {digest}; "
                "the run is nondeterministic or behavior changed -- if "
                f"intentional, refresh {CATALOG_MANIFEST} "
                "(ablation_catalog --manifest)")
    for key in sorted(seen.keys() - expected.keys()):
        problems.append(
            f"{key[0]}/{key[1]}: not in {CATALOG_MANIFEST}; refresh it")
    return problems


class Gate(NamedTuple):
    """One registry row: how to re-check a bench beyond its exit code."""
    checker: Callable[[dict, pathlib.Path], list[str]] | None = None
    # Committed baseline the gate compares against (must stay in-tree).
    artifact: str | None = None
    # Extra argv for the bench binary.
    args: tuple[str, ...] = ()


# The benches whose acceptance criteria gate the bench-smoke CI job.
# Each prints an `acceptance:` verdict and exits 0 only when its
# criterion holds; a registered checker re-derives the docs/BENCH.md
# row from the result-json numbers.
REGISTRY: dict[str, Gate] = {
    "ablation_broker": Gate(),
    "ablation_placement": Gate(),
    "ablation_blackhole": Gate(),
    "ablation_multise": Gate(checker=check_multise),
    "ablation_outage": Gate(checker=check_outage),
    "grid30": Gate(checker=check_grid30, artifact="bench/BENCH_grid30.json"),
}

# The catalog gate is its own CI job (catalog-smoke): one sweep binary,
# checked against the committed digest manifest.
CATALOG_REGISTRY: dict[str, Gate] = {
    "ablation_catalog": Gate(checker=check_catalog_results,
                             artifact=CATALOG_MANIFEST),
}


def check_kernel_snapshot(build_dir: pathlib.Path,
                          repo_root: pathlib.Path,
                          out_dir: pathlib.Path | None) -> tuple[dict, list[str]]:
    """Take a fresh perf_kernel snapshot and diff it against the
    committed baseline; a rate below KERNEL_REGRESSION_RATIO x baseline
    is a regression."""
    entry: dict = {"name": "perf_kernel_snapshot"}
    binary = build_dir / "bench" / "perf_kernel"
    if not binary.exists():
        entry["ok"] = False
        return entry, [f"missing binary {binary}"]
    snap_path = (out_dir or build_dir) / "BENCH_kernel.json"
    snap_path.parent.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    proc = subprocess.run(
        [str(binary), "--snapshot", str(snap_path)],
        capture_output=True, text=True, timeout=600,
    )
    entry["seconds"] = round(time.monotonic() - started, 1)
    if proc.returncode != 0:
        entry["ok"] = False
        return entry, [f"perf_kernel --snapshot exited {proc.returncode}"]
    fresh = json.loads(snap_path.read_text(encoding="utf-8"))
    entry["fresh"] = fresh

    baseline_path = repo_root / KERNEL_BASELINE
    if not baseline_path.exists():
        entry["ok"] = False
        return entry, [f"missing committed baseline {KERNEL_BASELINE}"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    entry["baseline"] = baseline

    problems = []
    for key in KERNEL_KEYS:
        if key not in fresh:
            problems.append(f"snapshot missing {key}")
            continue
        old, new = float(baseline.get(key, 0)), float(fresh[key])
        ratio = new / old if old > 0 else float("inf")
        print(f"    {key}: {new:,.0f} vs baseline {old:,.0f} "
              f"({ratio:.2f}x)")
        if ratio < KERNEL_REGRESSION_RATIO:
            problems.append(
                f"kernel throughput regression: {key} {new:,.0f} is "
                f"{ratio:.2f}x the baseline {old:,.0f} "
                f"(floor {KERNEL_REGRESSION_RATIO}x); if intentional, "
                f"refresh {KERNEL_BASELINE}")
    entry["ok"] = not problems
    return entry, problems


def check_bench_md(repo_root: pathlib.Path,
                   registry: dict[str, Gate]) -> list[str]:
    """Every gated bench must stay catalogued in docs/BENCH.md, and its
    committed baseline artifact (when registered) must exist."""
    problems = []
    bench_md = repo_root / "docs" / "BENCH.md"
    if not bench_md.exists():
        return [f"missing {bench_md}"]
    text = bench_md.read_text(encoding="utf-8")
    for name, gate in registry.items():
        if f"`{name}`" not in text:
            problems.append(f"`{name}` missing from docs/BENCH.md")
        if gate.artifact and not (repo_root / gate.artifact).exists():
            problems.append(f"{name}: missing committed artifact "
                            f"{gate.artifact}")
    return problems


def run_golden_program(build_dir: pathlib.Path, program: str) -> dict:
    """Run one pinned program under GOLDEN_ENV and digest its stdout."""
    binary = build_dir / program
    if not binary.exists():
        return {"program": program, "error": f"missing binary {binary}"}
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRID3_")}
    env.update(GOLDEN_ENV)
    started = time.monotonic()
    proc = subprocess.run([str(binary)], capture_output=True, env=env,
                          timeout=1800)
    stdout = proc.stdout
    for pattern, replacement in GOLDEN_MASKS.get(program, ()):
        stdout = pattern.sub(replacement, stdout)
    entry = {
        "program": program,
        "exit_code": proc.returncode,
        "seconds": round(time.monotonic() - started, 1),
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout": stdout.decode("utf-8", "replace").splitlines(),
    }
    if proc.returncode != 0:
        entry["error"] = f"exit {proc.returncode}"
    return entry


def first_difference(expected: list[str], got: list[str]) -> str:
    """Describe the first line where two outputs differ."""
    for i, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            return (f"line {i + 1}:\n      pinned: {want}\n"
                    f"      got:    {have}")
    if len(expected) != len(got):
        n = min(len(expected), len(got))
        return (f"line {n + 1}: pinned output has {len(expected)} lines, "
                f"got {len(got)}")
    return "outputs differ only in line endings"


def check_golden(build_dir: pathlib.Path, repo_root: pathlib.Path,
                 write: bool) -> list[str]:
    """Rerun every pinned program and compare (or rewrite) the manifest."""
    with concurrent.futures.ThreadPoolExecutor(GOLDEN_JOBS) as pool:
        entries = list(pool.map(
            lambda p: run_golden_program(build_dir, p), GOLDEN_PROGRAMS))
    problems = [f"{e['program']}: {e['error']}" for e in entries
                if "error" in e]
    manifest_path = repo_root / GOLDEN_MANIFEST
    if write:
        if problems:
            return problems
        manifest = {
            "env": GOLDEN_ENV,
            "entries": [{k: e[k] for k in ("program", "sha256", "stdout")}
                        for e in entries],
        }
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n",
                                 encoding="utf-8")
        print(f"wrote {GOLDEN_MANIFEST} ({len(entries)} programs)")
        return []
    if not manifest_path.exists():
        return problems + [f"missing committed manifest {GOLDEN_MANIFEST}"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    pinned = {e["program"]: e for e in manifest["entries"]}
    for e in entries:
        if "error" in e:
            continue
        want = pinned.get(e["program"])
        if want is None:
            problems.append(f"{e['program']}: not in {GOLDEN_MANIFEST}")
            continue
        ok = e["sha256"] == want["sha256"]
        print(f"[{'PASS' if ok else 'FAIL'}] {e['program']} "
              f"({e['seconds']}s)")
        if not ok:
            problems.append(
                f"{e['program']}: stdout differs from {GOLDEN_MANIFEST} at "
                + first_difference(want["stdout"], e["stdout"]))
    for program in sorted(pinned.keys() - set(GOLDEN_PROGRAMS)):
        problems.append(f"{program}: in {GOLDEN_MANIFEST} but not run")
    return problems


def build_campaign_bench(build_dir: pathlib.Path,
                         repo_root: pathlib.Path) -> pathlib.Path | None:
    """Configure perfbench/ into its own build directory and build
    campaign_bench; returns the binary, or None when the build failed."""
    out = build_dir / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(repo_root / "perfbench"), "-B", str(out)],
             ["cmake", "--build", str(out), "-j", jobs, "--target",
              "campaign_bench"]]
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-3000:] + proc.stderr[-3000:])
            return None
    return out / "campaign_bench"


def run_campaign(binary: pathlib.Path, workload: str, seed: int) -> dict:
    """One campaign; its pinned fields, or an "error" entry."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=1800)
    entry = {"workload": workload, "seed": seed}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        entry["error"] = f"exit {proc.returncode}"
        return entry
    result = json.loads(lines[-1])
    entry.update({k: result[k] for k in CAMPAIGN_FIELDS})
    return entry


def campaign_differences(want: dict, got: dict) -> list[str]:
    """Every pinned field where two campaigns differ."""
    diffs = []
    for field in CAMPAIGN_FIELDS:
        a, b = want.get(field), got.get(field)
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys()):
                if a.get(key) != b.get(key):
                    diffs.append(f"{field}.{key}: pinned {a.get(key)}, "
                                 f"got {b.get(key)}")
        elif a != b:
            diffs.append(f"{field}: pinned {a}, got {b}")
    return diffs


def check_campaign(build_dir: pathlib.Path, repo_root: pathlib.Path,
                   write: bool) -> list[str]:
    """Run every pinned campaign and compare (or rewrite) the manifest."""
    binary = build_campaign_bench(build_dir, repo_root)
    if binary is None:
        return ["campaign_bench failed to build"]
    entries = []
    for workload, seed in CAMPAIGN_RUNS:
        started = time.monotonic()
        entry = run_campaign(binary, workload, seed)
        print(f"[{'FAIL' if 'error' in entry else 'done'}] {workload} "
              f"seed={seed} digest={entry.get('digest')} "
              f"({time.monotonic() - started:.1f}s)")
        entries.append(entry)
    problems = [f"{e['workload']} seed={e['seed']}: {e['error']}"
                for e in entries if "error" in e]
    manifest_path = repo_root / CAMPAIGN_MANIFEST
    if write:
        if problems:
            return problems
        manifest = {"fields": list(CAMPAIGN_FIELDS), "entries": entries}
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n",
                                 encoding="utf-8")
        print(f"wrote {CAMPAIGN_MANIFEST} ({len(entries)} campaigns)")
        return []
    if not manifest_path.exists():
        return problems + [f"missing committed manifest {CAMPAIGN_MANIFEST}"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    pinned = {(e["workload"], e["seed"]): e for e in manifest["entries"]}
    for e in entries:
        if "error" in e:
            continue
        key = (e["workload"], e["seed"])
        want = pinned.get(key)
        if want is None:
            problems.append(f"{key[0]} seed={key[1]}: not in "
                            f"{CAMPAIGN_MANIFEST}")
            continue
        problems.extend(f"{key[0]} seed={key[1]}: {diff}"
                        for diff in campaign_differences(want, e))
    for key in sorted(pinned.keys() - set(CAMPAIGN_RUNS)):
        problems.append(f"{key[0]} seed={key[1]}: in {CAMPAIGN_MANIFEST} "
                        "but not run")
    return problems


def print_table(entries: list[dict]) -> None:
    """One-line PASS/FAIL summary per gate."""
    width = max(len(e["name"]) for e in entries) if entries else 10
    print(f"\n{'gate'.ljust(width)}  status  seconds")
    for e in entries:
        status = "PASS" if e.get("ok") else "FAIL"
        print(f"{e['name'].ljust(width)}  {status}    "
              f"{e.get('seconds', '?')}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("build_dir", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write a JSON artifact here")
    parser.add_argument("--check-catalog", action="store_true",
                        help="run the scenario-catalog determinism gate "
                             "instead of the ablation gates")
    parser.add_argument("--check-golden", action="store_true",
                        help="run the paper-output gate against "
                             f"{GOLDEN_MANIFEST} instead of the ablation "
                             "gates")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"with --check-golden: rewrite "
                             f"{GOLDEN_MANIFEST} from this build")
    parser.add_argument("--check-campaign", action="store_true",
                        help="run the campaign-benchmark determinism gate "
                             f"against {CAMPAIGN_MANIFEST} instead of the "
                             "ablation gates")
    parser.add_argument("--write-campaign", action="store_true",
                        help=f"with --check-campaign: rewrite "
                             f"{CAMPAIGN_MANIFEST} from this build")
    args = parser.parse_args()
    repo_root = pathlib.Path(__file__).resolve().parent.parent

    if args.check_golden:
        problems = check_golden(args.build_dir, repo_root, args.write_golden)
        if problems:
            print("\ngolden gate FAILED:")
            for p in problems:
                print(f"  - {p}")
            return 1
        if not args.write_golden:
            print("\ngolden gate passed: every pinned output is unchanged")
        return 0

    if args.check_campaign:
        problems = check_campaign(args.build_dir, repo_root,
                                  args.write_campaign)
        if problems:
            print("\ncampaign gate FAILED:")
            for p in problems:
                print(f"  - {p}")
            return 1
        if not args.write_campaign:
            print("\ncampaign gate passed: every pinned campaign is "
                  "unchanged")
        return 0

    registry = CATALOG_REGISTRY if args.check_catalog else REGISTRY
    problems = check_bench_md(repo_root, registry)
    entries = []
    for name, gate in registry.items():
        entry = run_bench(args.build_dir, name, list(gate.args))
        entries.append(entry)
        status = "PASS" if entry["ok"] else "FAIL"
        print(f"[{status}] {name} "
              f"({entry.get('seconds', '?')}s, exit {entry.get('exit_code')})")
        for line in entry.get("acceptance", []):
            print(f"    {line}")
        if not entry["ok"]:
            problems.append(f"{name}: {entry.get('error', 'failed')}")
        elif gate.checker is not None:
            extra = gate.checker(entry, repo_root)
            problems.extend(extra)
            if extra:
                entry["ok"] = False

    if not args.check_catalog:
        print("[....] perf_kernel snapshot")
        snap_entry, snap_problems = check_kernel_snapshot(
            args.build_dir, repo_root, args.out.parent if args.out else None)
        entries.append(snap_entry)
        problems.extend(snap_problems)
        print(f"[{'PASS' if snap_entry.get('ok') else 'FAIL'}] perf_kernel "
              f"snapshot ({snap_entry.get('seconds', '?')}s)")

    print_table(entries)

    artifact = {"quick_mode": True, "benches": entries, "problems": problems}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(artifact, indent=2) + "\n",
                            encoding="utf-8")
        print(f"artifact written to {args.out}")

    if problems:
        print("\nbench gate FAILED:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nbench gate passed: every acceptance criterion holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
