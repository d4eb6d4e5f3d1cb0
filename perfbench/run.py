#!/usr/bin/env python3
"""Benchmark of the DIFANE simulator: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds perfbench_rep (the
simulator libraries from src/ plus perfbench/*.cpp) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.

The seed selects INSTANCES independent input sets. For --seconds S it
repeats them round-robin, each repetition in a fresh process (generate the
policy and flows, construct the Scenario, run it, check it), until S seconds
have passed and every instance ran at least MIN_REPS times. A wall is the
sum over instances of the instance's median. Every repetition must conserve
packets, drop nothing but policy drops, pass Scenario::verify_installed, and
reproduce its instance's first repetition's deterministic counters exactly.

--trace 0 reports the end-to-end metrics; --trace 1 adds one traced
repetition of instance 0, reports its per-layer metrics, and writes its
spans to $CARGO_TARGET_DIR/perfbench/spans/. The last stdout line is the JSON result;
the exit code is 0 only when every check passed.

--small (reduced inputs) and --corrupt-counter NAME (perturb one expected
counter, so the determinism check must fail) exist for selftest.py.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

# name -> why it exists. BENCHMARK.json carries the same lines (selftest.py
# checks they agree).
WORKLOADS = {
    "zipf-hits": "Zipf 1.1 over a 5K-flow pool with a 2000-entry cover-set cache: "
                 "~99% of packets hit wildcard cache entries, so FlowTable::lookup "
                 "dominates and authority work is idle",
    "wide-partitions": "30K-rule campus policy in 4096-rule partitions: the lazy "
                       "O(n^2) dependency graph dominates and each redirect pays a "
                       "linear match_index; the ingress exact-match path is idle",
    "setup-storm": "400K single-packet flows/s over a 2M uniform pool with microflow "
                   "caching: every packet misses and installs with LRU eviction; no "
                   "dependency graph is built",
}

# (name, unit) in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("wall_s", "s"),
    ("sim_pkts_per_s", "pkt/s"),
    ("peak_rss_mib", "MiB"),
    ("cache_miss_frac", "frac"),
    ("first_pkt_delay_mean_ms", "ms"),
    ("setup_rate_per_s", "flow/s"),
]

# Counters every repetition of one seed must reproduce exactly.
DETERMINISTIC = [
    "flows", "injected", "delivered", "policy_drops", "failed_pkts", "redirects",
    "cache_installs", "cache_rules_installed", "cache_hit_frac",
    "first_pkt_delay_mean_ms", "first_pkt_delay_p50_ms", "first_pkt_delay_p99_ms",
    "first_pkt_delay_samples", "setup_rate_per_s", "sim_end_s", "engine_events",
]

# Each seed stands for INSTANCES independent input sets (instance seeds
# seed * INSTANCES + i). A workload's walls are sums over its instances, so
# one unlucky policy or hot-flow draw moves them half as much as it would
# move a single instance (see NOTES.md, "Steadiness").
INSTANCES = 4
MIN_REPS = 3        # per instance
DEADLINE_S = 150.0  # stop starting repetitions past this; a run must end by 180


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then builds perfbench_rep; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench_rep",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                with open(log_path) as f:
                    log("".join(f.readlines()[-40:]))
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_rep")


def run_rep(binary, args, instance, spans_path=None):
    cmd = [binary, "--workload", args.workload,
           "--seed", str(args.seed * INSTANCES + instance)]
    if args.small:
        cmd.append("--small")
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        log("perfbench: repetition timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: repetition failed with exit code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def rep_breaches(rep, expected):
    """Names of the checks this repetition fails."""
    bad = [name for name, ok in rep["checks"].items() if not ok]
    if rep["failed_pkts"] != 0:
        bad.append("failed_pkts")
    bad += [f"determinism:{key}" for key in DETERMINISTIC if rep[key] != expected[key]]
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-counter", choices=DETERMINISTIC, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: run from the repository root (src/ not found)")
    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "perfbench")
    binary = build(root, build_dir)

    reps = [[] for _ in range(INSTANCES)]  # per instance, in run order
    correct = True
    start = time.monotonic()
    longest = 0.0
    done = 0
    while correct:
        t0 = time.monotonic()
        rep = run_rep(binary, args, done % INSTANCES)
        if rep is None:
            correct = False
            break
        reps[done % INSTANCES].append(rep)
        done += 1
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        budget = DEADLINE_S - (3 * longest if args.trace else 0.0)
        if done % INSTANCES == 0 and done >= MIN_REPS * INSTANCES and elapsed >= args.seconds:
            break
        if elapsed + longest > budget:
            correct = done >= INSTANCES
            break

    traced = None
    spans_path = None
    if correct and args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
        traced = run_rep(binary, args, 0, spans_path)
        correct = traced is not None

    attempted = 0
    failed = 0
    for inst, runs in enumerate(reps):
        if not runs:
            continue
        expected = dict(runs[0])
        if args.corrupt_counter:
            expected[args.corrupt_counter] += 1
        for rep in runs + ([traced] if traced and inst == 0 else []):
            breaches = rep_breaches(rep, expected)
            if breaches:
                log(f"perfbench: instance {inst}: check failed: {', '.join(breaches)}")
                correct = False
            attempted += int(rep["injected"])
            failed += int(rep["failed_pkts"]) + len(breaches)
    attempted = max(attempted, 1)

    metrics = {}
    if correct and (traced or not args.trace):
        firsts = [runs[0] for runs in reps]
        med = [{key: statistics.median(r[key] for r in runs)
                for key in ("setup_s", "run_s", "peak_rss_mib")} for runs in reps]
        total = lambda key: sum(r[key] for r in firsts)
        run_s = sum(m["run_s"] for m in med)
        values = {
            "setup_s": sum(m["setup_s"] for m in med),
            "run_s": run_s,
            "wall_s": sum(m["setup_s"] + m["run_s"] for m in med),
            "sim_pkts_per_s": total("injected") / run_s,
            "peak_rss_mib": statistics.mean(m["peak_rss_mib"] for m in med),
            "cache_miss_frac": total("redirects") / (total("ingress_hits") + total("redirects")),
            "first_pkt_delay_mean_ms": sum(r["first_pkt_delay_mean_ms"] *
                                           r["first_pkt_delay_samples"] for r in firsts)
                                       / total("first_pkt_delay_samples"),
            "setup_rate_per_s": statistics.mean(r["setup_rate_per_s"] for r in firsts),
        }
        print(f"workload {args.workload} seed {args.seed}: {INSTANCES} instances, "
              f"{done} repetitions, {total('injected'):.0f} packets, "
              f"{total('flows'):.0f} flows; walls are sums of per-instance medians")
        for name, unit in END_TO_END:
            print(f"  {name:<28} {values[name]:>16.6g} {unit}")
        if args.trace:
            layers = dict(traced["layers"])
            layers["failed_frac"] = [failed / attempted, "frac"]
            layers["first_pkt_delay_p50_ms"] = [traced["first_pkt_delay_p50_ms"], "ms"]
            layers["first_pkt_delay_p99_ms"] = [traced["first_pkt_delay_p99_ms"], "ms"]
            layers["first_pkt_delay_samples"] = [traced["first_pkt_delay_samples"], "count"]
            layers["trace.overhead_frac"] = [traced["run_s"] / med[0]["run_s"] - 1.0, "frac"]
            print(f"per-layer split of one traced repetition of instance 0 "
                  f"(spans: {spans_path})")
            for name, (value, unit) in layers.items():
                print(f"  {name:<36} {value:>16.6g} {unit}")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
        else:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
