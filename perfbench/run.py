#!/usr/bin/env python3
"""Campaign benchmark: host cost of simulated Grid3 campaigns.

Builds perfbench/ (and with it the simulator's libraries from src/) with
CMake into .bench_build/, then runs one workload as a series of fresh
single-threaded campaign processes for --seconds seconds and prints, as the
last line of stdout, one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics, with times rescaled to a fixed
host speed; --trace 1 pairs every untraced campaign with a traced one
(layer entry points wrapped at link time) and reports the per-layer
metrics.  See perfbench/README.md.

    python3 perfbench/run.py --workload multi-vo-production --seed 1 \\
        --seconds 55 --trace 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

CATALOG_SEED = 20031025
# Seeds are spread this far apart when a run needs several campaigns, so
# the campaigns of nearby --seed values never coincide.
SUBSEED_STRIDE = 1000003
# Every sample must finish within this many seconds of the run's start.
DEADLINE_S = 170.0

# Seeds per workload, each derived from --seed: a single campaign's job
# count (and with it its cost and success ratio) swings with its arrival
# draws, by about 11% in run time on multi-vo-production, so a run spreads
# over as many seeds as it holds.  A 55-second run holds about 14
# fabric-sweep campaigns (3.9 s each) and 40 multi-vo-production ones
# (1.3 s), so these lists are seldom used up.
#
# Times are rescaled to the host speed at which a campaign's host probes
# (campaign.cpp, HostProbe) take PROBE_REF_S in total: about their time on
# an unloaded 4-vCPU Xeon guest, so rescaled times read close to that
# host's seconds.  When neighbours load the host, a campaign slows by about
# the probe's slowdown to the power "elasticity": the least-squares slope
# of log run time on log probe time over repeats of the same seeds on that
# guest: 1.0 over 10 pairs of fabric-sweep campaigns, 1.47 over 56 pairs
# of multi-vo-production ones.
WORKLOADS = {
    "fabric-sweep": {"subseeds": 16, "elasticity": 1.0},
    "multi-vo-production": {"subseeds": 48, "elasticity": 1.5},
}
PROBE_REF_S = 0.06

# Per-layer metrics: (name, unit, source).  Sources: ("count", key) reads a
# counter from the untraced run; ("calls", spans) counts calls into wrapped
# entry points; ("self", spans) sums their self time; ("ratio", num, den)
# divides the sum of the counts/calls listed in `num` by that in `den`.
GIIS = ["Giis::find"]
BROKER_SUBMIT = ["ResourceBroker::submit", "ResourceBroker::submit_gang"]
ACQUIRE = ["PlacementLedger::acquire", "PlacementLedger::acquire(chain)"]
GRAM_SUBMIT = ["Gatekeeper::submit", "CondorG::submit_to"]
HEALTH = ["SiteHealthMonitor::report", "SiteHealthMonitor::report_batch"]
PER_LAYER = [
    ("sim.events", "count", ("count", "sim.events")),
    ("sim.heap_scheduled", "count", ("count", "sim.heap_scheduled")),
    ("sim.unattributed_s", "s", ("unattributed",)),
    ("monitoring.bus_publishes", "count", ("count", "monitoring.bus_publishes")),
    ("monitoring.bus_keys", "count", ("count", "monitoring.bus_keys")),
    ("monitoring.bus_publish_s", "s", ("self", ["MetricBus::publish"])),
    ("monitoring.gmond_sample_s", "s", ("self", ["GangliaGmond::sample"])),
    ("monitoring.ml_report_s", "s", ("self", ["MonalisaAgent::report"])),
    ("monitoring.rrd_updates", "count", ("count", "monitoring.rrd_updates")),
    ("monitoring.acdc_records", "count", ("count", "monitoring.acdc_records")),
    ("monitoring.acdc_insert_s", "s", ("self", ["JobDatabase::insert"])),
    ("mds.gris_publishes", "count", ("calls", ["Gris::publish"])),
    ("mds.gris_publish_s", "s", ("self", ["Gris::publish"])),
    ("mds.giis_finds", "count", ("calls", GIIS)),
    ("mds.giis_find_s", "s", ("self", GIIS)),
    ("batch.submits", "count", ("calls", ["BatchScheduler::submit"])),
    ("batch.submit_s", "s", ("self", ["BatchScheduler::submit"])),
    ("gram.submissions", "count", ("count", "gram.submissions")),
    ("gram.failures", "count", ("count", "gram.failures")),
    ("gram.overload_rejections", "count",
     ("count", "gram.overload_rejections")),
    ("gram.condorg_retries", "count", ("count", "gram.condorg_retries")),
    ("gram.submit_s", "s", ("self", GRAM_SUBMIT)),
    ("gridftp.transfers", "count", ("count", "gridftp.transfers")),
    ("gridftp.failed", "count", ("count", "gridftp.failed")),
    ("gridftp.transfer_s", "s", ("self", ["GridFtpClient::transfer"])),
    ("net.flows", "count", ("calls", ["Network::start_flow"])),
    ("net.reallocs", "count", ("count", "net.reallocs")),
    ("net.links_solved", "count", ("count", "net.links_solved")),
    ("net.start_flow_s", "s", ("self", ["Network::start_flow"])),
    ("broker.submissions", "count", ("count", "broker.submissions")),
    ("broker.match_cycles", "count", ("count", "broker.match_cycles")),
    ("broker.match_yield", "ratio",
     ("ratio", [("count", "broker.matches")],
      [("count", "broker.match_cycles")])),
    ("broker.holds", "count", ("count", "broker.holds")),
    ("broker.rebinds", "count", ("count", "broker.rebinds")),
    ("broker.stale_matches", "count", ("count", "broker.stale_matches")),
    ("broker.rank_cache_hit_ratio", "ratio",
     ("ratio", [("count", "broker.rank_cache_hits")],
      [("count", "broker.rank_cache_hits"), ("count", "broker.rank_evals")])),
    ("broker.submit_s", "s", ("self", BROKER_SUBMIT)),
    ("broker.choose_s", "s", ("self", ["ResourceBroker::choose"])),
    ("workflow.dags", "count", ("count", "workflow.dags")),
    ("workflow.plan_s", "s", ("self", ["PegasusPlanner::plan"])),
    ("workflow.dagman_run_s", "s", ("self", ["DagMan::run"])),
    ("workload.workflows_launched", "count",
     ("count", "workload.workflows_launched")),
    ("placement.acquire_calls", "count", ("calls", ACQUIRE)),
    ("placement.acquired", "count", ("count", "placement.acquired")),
    ("placement.acquire_yield", "ratio",
     ("ratio", [("count", "placement.acquired")], [("calls", ACQUIRE)])),
    ("placement.rejected", "count", ("count", "placement.rejected")),
    ("placement.fallthroughs", "count", ("count", "placement.fallthroughs")),
    ("placement.acquire_s", "s", ("self", ACQUIRE)),
    ("rls.registrations", "count", ("count", "rls.registrations")),
    ("rls.indexed_lfns", "count", ("count", "rls.indexed_lfns")),
    ("rls.register_s", "s",
     ("self", ["ReplicaLocationService::register_replica"])),
    ("rls.replayed", "count", ("count", "rls.replayed")),
    ("rls.lost_registrations", "count", ("count", "rls.lost_registrations")),
    ("srm.reserve_calls", "count",
     ("calls", ["StorageResourceManager::reserve"])),
    ("srm.reserve_s", "s", ("self", ["StorageResourceManager::reserve"])),
    ("health.reports", "count", ("calls", HEALTH)),
    ("health.trips", "count", ("count", "health.trips")),
    ("health.probes", "count", ("count", "health.probes")),
    ("health.report_s", "s", ("self", HEALTH)),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build both drivers; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    logfile = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "campaign_bench", "campaign_bench_traced"])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"build failed: {' '.join(cmd)} (see {logfile})")
                log(logfile.read_text()[-3000:])
                return False
    return True


def run_campaign(binary, workload, seed, hours, deadline):
    """One fresh campaign process; returns (exit code, parsed JSON or None)."""
    cmd = [str(BUILD / binary), "--workload", workload, "--seed", str(seed)]
    if hours is not None:
        cmd += ["--hours", str(hours)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"campaign timed out: {' '.join(cmd)}")
        return -1, None
    try:
        return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"campaign printed no result: {' '.join(cmd)}\n{proc.stderr}")
        return proc.returncode, None


def measure(workload, seed, seconds, trace, hours):
    """Run campaigns (each followed by its traced twin, under --trace 1) for
    the first seed, the first seed again, and then the workload's other
    seeds in turn, for as long as the next one, timed like the last, still
    ends within `seconds`.  The early repeat gives the repeat checks a pair
    in every run; the rest spread the run over as many seeds as it holds.
    Returns ({subseed: [sample, ...]}, processes started, processes that
    failed)."""
    k = WORKLOADS[workload]["subseeds"]
    subseeds = [seed + j * SUBSEED_STRIDE for j in range(k)]
    order = [subseeds[0]] + subseeds
    binaries = ["campaign_bench"] + (["campaign_bench_traced"] if trace else [])
    samples = {}
    attempted = failed = 0
    start = time.monotonic()
    deadline = start + DEADLINE_S
    last = 0.0
    i = 0
    while i < 2 or time.monotonic() - start + last <= seconds:
        s = order[i % len(order)]
        began = time.monotonic()
        for binary in binaries:
            code, res = run_campaign(binary, workload, s, hours, deadline)
            attempted += 1
            if res is None or code != 0:
                failed += 1
            samples.setdefault(s, [])
            if res is not None:
                samples[s].append(res)
        last = time.monotonic() - began
        i += 1
        if time.monotonic() > deadline:
            break
    return samples, attempted, failed


def verify(workload, samples):
    """Cross-run checks; returns a list of failure messages."""
    problems = []
    for s, runs in samples.items():
        if not runs:
            problems.append(f"seed {s}: no campaign finished")
            continue
        digests = {r["digest"] for r in runs}
        if len(digests) != 1:
            problems.append(f"seed {s}: digest differs across repeats "
                            f"(traced vs untraced included): {sorted(digests)}")
        counts = {json.dumps(r["counts"], sort_keys=True) for r in runs}
        if len(counts) != 1:
            problems.append(f"seed {s}: layer counts drift across repeats")
        calls = {json.dumps({x["name"]: x["calls"] for x in r["spans"]},
                            sort_keys=True)
                 for r in runs if r["traced"]}
        if len(calls) > 1:
            problems.append(f"seed {s}: traced call counts drift")
        for r in runs:
            bad = [name for name, ok in r["checks"].items() if not ok]
            if bad:
                problems.append(f"seed {s}: checks failed: {', '.join(bad)}")
        print(f"{workload} seed={s} digest={runs[0]['digest']} "
              f"campaigns={len(runs)} jobs={runs[0]['jobs']} "
              f"completed={runs[0]['completed']}", flush=True)
    return problems


def rescaled(run, key, kind):
    """A campaign's time `key` at the reference host speed, from its own
    probe time of the same kind ("cpu" or "wall")."""
    elasticity = WORKLOADS[run["workload"]]["elasticity"]
    return run[key] * (PROBE_REF_S / run[f"probe_{kind}_s"]) ** elasticity


def end_to_end(samples):
    """Times: rescaled to the reference host speed.  Run times are averaged
    over each seed's repeats, then the median is taken over the seeds;
    set-up time is a median over campaigns.  RSS: median over campaigns.
    Success ratio: pooled over the run's seeds, one campaign each."""
    runs = [r for rs in samples.values() for r in rs]
    firsts = [rs[0] for rs in samples.values()]
    jobs = sum(r["jobs"] for r in firsts)
    completed = sum(r["completed"] for r in firsts)

    def run_time(kind):
        return statistics.median(
            statistics.fmean(rescaled(r, f"run_{kind}_s", kind) for r in rs)
            for rs in samples.values())

    return {
        "setup_s": {"value": statistics.median(
            rescaled(r, "setup_s", "wall") for r in runs), "unit": "s"},
        "run_cpu_s": {"value": run_time("cpu"), "unit": "s"},
        "run_wall_s": {"value": run_time("wall"), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(
            r["peak_rss_mb"] for r in runs), "unit": "MB"},
        "job_success_ratio": {"value": completed / jobs if jobs else 0.0,
                              "unit": "ratio"},
    }


def per_layer(samples):
    """Counts: mean per campaign over the run's seeds.  Self times: median
    over traced campaigns."""
    def runs(traced):
        return [r for rs in samples.values() for r in rs
                if r["traced"] == traced]

    def firsts(traced):
        """One campaign per seed: its counts repeat exactly."""
        return [next(r for r in rs if r["traced"] == traced)
                for rs in samples.values()
                if any(r["traced"] == traced for r in rs)]

    traced_runs = runs(True)
    first_untraced = firsts(False)
    first_traced = firsts(True)

    def span_sum(run, names, field):
        return sum(x[field] for x in run["spans"] if x["name"] in names)

    def mean_of(source):
        kind = source[0]
        if kind == "count":
            vals = [r["counts"].get(source[1], 0.0) for r in first_untraced]
        else:  # "calls"
            vals = [span_sum(r, source[1], "calls") for r in first_traced]
        return statistics.fmean(vals) if vals else 0.0

    def value(source):
        kind = source[0]
        if kind in ("count", "calls"):
            return mean_of(source)
        if kind == "ratio":
            num = sum(mean_of(src) for src in source[1])
            den = sum(mean_of(src) for src in source[2])
            return num / den if den else 0.0
        if kind == "self":
            return statistics.median(span_sum(r, source[1], "self_s")
                                     for r in traced_runs)
        if kind == "unattributed":
            return statistics.median(
                r["run_wall_s"] - sum(x["self_s"] for x in r["spans"])
                for r in traced_runs)
        if kind == "overhead":
            return (statistics.median(rescaled(r, "run_wall_s", "wall")
                                      for r in traced_runs) /
                    statistics.median(rescaled(r, "run_wall_s", "wall")
                                      for r in runs(False)))
        raise ValueError(kind)

    return {name: {"value": value(src), "unit": unit}
            for name, unit, src in PER_LAYER}


def report(workload, seed, seconds, trace, hours):
    """Measure one seed; returns (correct, attempted, failed, metrics)."""
    samples, attempted, failed = measure(workload, seed, seconds, trace,
                                         hours)
    problems = verify(workload, samples)
    for p in problems:
        log(f"CHECK FAILED: {p}")
    if any(not rs for rs in samples.values()):
        return False, max(attempted, 1), max(failed, 1), {}
    metrics = per_layer(samples) if trace else end_to_end(samples)
    return not problems and failed == 0, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=CATALOG_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout-seed", type=int, default=None,
                    help="also measure this seed (same checks) and print "
                         "its metrics on a 'heldout:' line")
    ap.add_argument("--hours", type=float, default=None,
                    help="override the simulated horizon (smoke test)")
    args = ap.parse_args()

    if not build():
        return 1
    if args.heldout_seed is not None:
        ok, att, fail, metrics = report(args.workload, args.heldout_seed,
                                        args.seconds, args.trace, args.hours)
        print("heldout: " + json.dumps(
            {"seed": args.heldout_seed, "correct": ok, "attempted": att,
             "failed": fail, "metrics": metrics}), flush=True)
    ok, attempted, failed, metrics = report(args.workload, args.seed,
                                            args.seconds, args.trace,
                                            args.hours)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
