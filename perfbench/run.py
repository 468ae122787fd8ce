#!/usr/bin/env python3
"""End-to-end benchmark of the Spire reproduction.

    python3 perfbench/run.py --workload plant --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (the Spire libraries
from src/ plus the spire_perf program) into .bench_build/perfbench, then
launches spire_perf processes, one SpireDeployment each:

  --trace 0  two set-up-only processes and one measured run. Prints the
             end-to-end metrics; setup_s is the median of the three
             set-ups.
  --trace 1  one plain run and one traced run of the same seed, plus the
             request schedules of this seed and the next. Prints the
             per-layer metrics.

Both modes gate on correctness: the run's own checks (replica state
agreement, HMI display equals field ground truth, every fault healed,
every request injected at its due time), plus determinism (the same
seed replays set-up and simulation bit-for-bit, another seed gives
another schedule). The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "spire_perf")
WORKLOADS = ("plant", "fleet_commands", "wan_faults", "wan_partitions")
SETUP_SAMPLES = 3  # set-ups per --trace 0 run; setup_s is their median
RUN_BUDGET_S = 170.0  # every run ends well inside 180 s once built
BUILD_BUDGET_S = 840.0

# End-to-end metrics (--trace 0), in BENCHMARK.json order.
END_TO_END = (
    ("display_p50_ms", "ms"),
    ("display_p99_ms", "ms"),
    ("host_cpu_ms_per_sim_s", "ms"),
    ("sim_s_per_wall_s", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build failed:", err)
            return False
        if done.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


class Child:
    """Runs spire_perf processes against one deadline."""

    def __init__(self, workload, seed, seconds):
        self.base = ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds)]
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def __call__(self, mode, *extra, seed=None):
        cmd = [BINARY, "--mode", mode] + self.base + list(extra)
        if seed is not None:
            cmd[cmd.index("--seed") + 1] = str(seed)
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("time budget spent before " + mode)
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=left)
        if done.returncode != 0:
            raise RuntimeError("spire_perf --mode %s exited %d" % (mode, done.returncode))
        return json.loads(done.stdout.strip().splitlines()[-1])


def check_run(run, problems):
    for v in run["violations"]:
        problems.append(v)
    if run["attempted"] < 1:
        problems.append("no request attempted")


def summary(run, extra=()):
    """Human-readable table of every end-to-end quantity, units included."""
    rows = [
        ("requests attempted", run["attempted"], "count"),
        ("requests failed (lost)", run["failed"], "count"),
        ("display samples (request, HMI)", run["display_samples"], "count"),
        ("display samples beyond p99", run["display_beyond_p99"], "count"),
        ("display_p50_ms", run["display_p50_ms"], "ms"),
        ("display_p99_ms", run["display_p99_ms"], "ms"),
        ("actuate samples", run["actuate_samples"], "count"),
        ("actuate_p50_ms", run["actuate_p50_ms"], "ms"),
        ("actuate_p99_ms", run["actuate_p99_ms"], "ms"),
        ("missed_pct", run["missed_pct"], "%"),
        ("outage_s", run["outage_s"], "s"),
        ("fault episodes skipped", run["faults_skipped"], "count"),
        ("replicas disturbed at window end", run["disturbed_at_end"], "count"),
        ("measured window", run["window_sim_s"], "s (simulated)"),
    ] + list(extra)
    for name, value, unit in rows:
        print("  %-32s %14s %s" % (name, value, unit))


def wall_stretch(run):
    """Median over the window's slices of wall time per CPU second.

    The simulation is one thread that never sleeps, so a slice takes
    more wall than CPU time only while the host runs something else.
    The median keeps a share the process lost for the whole run and
    drops bursts that took the CPU away from a few slices.
    """
    return statistics.median(w / c for w, c in zip(run["slice_wall_s"], run["slice_cpu_s"])
                             if c > 0)


def untraced(child):
    problems = []
    setups = [child("setup") for _ in range(SETUP_SAMPLES - 1)]
    run = child("run")
    check_run(run, problems)
    for s in setups:
        if (s["setup_events"], s["schedule_digest"]) != (run["setup_events"],
                                                         run["schedule_digest"]):
            problems.append("set-up did not replay bit-for-bit")
    setup_s = statistics.median([s["setup_s"] for s in setups] + [run["setup_s"]])
    wall_s = run["window_cpu_s"] * wall_stretch(run)
    values = {
        "display_p50_ms": run["display_p50_ms"],
        "display_p99_ms": run["display_p99_ms"],
        "host_cpu_ms_per_sim_s": 1e3 * run["window_cpu_s"] / run["window_sim_s"],
        "sim_s_per_wall_s": run["window_sim_s"] / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    summary(run, [("window wall time (measured)", run["window_wall_s"], "s")] +
            [(name, values[name], unit) for name, unit in END_TO_END[2:]])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return run, problems, metrics


def traced(child, workload, seed):
    problems = []
    spans_dir = os.path.join(".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-%d.jsonl" % (workload, seed))
    run = child("run")
    trace = child("trace", "--spans", spans)
    this_schedule = child("schedule")
    next_schedule = child("schedule", seed=seed + 1)
    check_run(run, problems)
    check_run(trace, problems)
    if run["digest"] != trace["digest"]:
        problems.append("traced run diverged from the plain run of the same seed")
    if this_schedule["schedule_digest"] == next_schedule["schedule_digest"]:
        problems.append("seeds %d and %d gave the same schedule" % (seed, seed + 1))

    plain_cpu = 1e3 * run["window_cpu_s"] / run["window_sim_s"]
    traced_cpu = 1e3 * trace["window_cpu_s"] / trace["window_sim_s"]
    metrics = {name: dict(m) for name, m in trace["layers"].items()}
    metrics["obs.trace_overhead_pct"] = {
        "value": 100.0 * (traced_cpu - plain_cpu) / plain_cpu, "unit": "%"}
    metrics["layers.unattributed_pct"] = {
        "value": 100.0 * (plain_cpu - trace["attributed_cpu_ms_per_sim_s"]) / plain_cpu,
        "unit": "%"}
    for name, key, unit in (("missed_pct", "missed_pct", "%"),
                            ("outage_s", "outage_s", "s"),
                            ("actuate_p50_ms", "actuate_p50_ms", "ms"),
                            ("actuate_p99_ms", "actuate_p99_ms", "ms"),
                            ("faults.skipped", "faults_skipped", "count"),
                            ("prime.disturbed_at_end", "disturbed_at_end", "count")):
        metrics[name] = {"value": run[key], "unit": unit}
    summary(run, [("per-layer spans", spans, "jsonl")])
    return run, problems, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    child = Child(args.workload, args.seed, args.seconds)
    print("perfbench %s seed=%d seconds=%s trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    try:
        if args.trace:
            run, problems, metrics = traced(child, args.workload, args.seed)
        else:
            run, problems, metrics = untraced(child)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log("perfbench:", err)
        return 1
    for p in problems:
        print("  CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
