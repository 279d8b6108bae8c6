#!/usr/bin/env python3
"""Broadway benchmark: build the runner, run one workload, print metrics.

    python3 perfbench/run.py --workload proxy_mutual --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (the library sources plus perfbench.cpp) into .bench_build/.

A run covers K inputs of the workload, each one a whole simulated day
generated from an input seed derived from --seed.  Every repetition of an
input runs in its own runner process (set-up, run, evaluation).
Repetitions cycle through the K inputs until one full pass is done and
--seconds have passed.  The script then prints:

  --trace 0  the end-to-end metrics.  A timing is the mean over the K
             inputs of each input's median over its repetitions, except
             setup_s, the median of every set-up in the run.  A modelled
             output (fidelity, polls, ...) is its mean over the K inputs
             and repeats exactly for a seed.
  --trace 1  the per-layer metrics, from traced repetitions of the first
             inputs interleaved with untraced ones (the difference is the
             tracing overhead), each named with the end-to-end metric and
             workload it feeds.

Averaging over K inputs is what keeps the timings steady across seeds:
the run time of one input varies with its seed (see README.md), so a run
measures the mean over several.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A repetition fails when
its process exits non-zero, a ledger or reference check fails, or its
output digest differs from another repetition of the same input; any
failure makes the exit code 1.

Placement: single-threaded workloads pin input k of pass p to CPU
(k + p) mod n of the allowed CPUs; K is a multiple of n, so every full
pass samples every CPU equally.  The multi-threaded fleet_relay is not pinned.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "broadway_perfbench")

WORKLOADS = {
    # name: (worker threads, inputs per run)
    "proxy_mutual": (1, 8),
    "fleet_relay": (4, 8),
    "client_faulty": (1, 16),
}
TRACED_INPUTS = 4  # inputs a --trace 1 run covers
DEADLINE_S = 150.0  # a run never measures longer than this

# End-to-end metrics: (name, unit, source).  "time" values are medians
# over repetitions; "model" values are deterministic outputs of the seed.
END_TO_END = [
    ("wall_s", "s", "time"),
    ("setup_s", "s", "time"),
    ("run_s", "s", "time"),
    ("eval_s", "s", "time"),
    ("sim_ops_per_s", "ops/s", "time"),
    ("peak_rss_mb", "MB", "time"),
    ("fidelity_mean", "ratio", "model"),
    ("origin_polls", "count", "model"),
    ("mutual_fidelity_mean", "ratio", "model"),
    ("tx_violation_rate", "ratio", "model"),
]

ALL = "all three"
PM, FR, CF = "proxy_mutual", "fleet_relay", "client_faulty"

# Per-layer metrics: (name, unit, end-to-end metric and workload it feeds).
PER_LAYER = [
    ("trace.generate_s", "s", f"setup_s on {ALL}"),
    ("trace.updates", "count", f"setup_s on {ALL}"),
    ("origin.attach_s", "s", f"setup_s on {ALL}"),
    ("origin.requests", "count", f"setup_s on {ALL}"),
    ("proxy.register_s", "s", f"run_s, sim_ops_per_s, peak_rss_mb on {PM}"),
    ("proxy.start_s", "s", f"run_s, sim_ops_per_s, peak_rss_mb on {PM}"),
    ("proxy.polls", "count", f"run_s, sim_ops_per_s, peak_rss_mb on {PM}"),
    ("proxy.polls_failed", "count", f"run_s, sim_ops_per_s, peak_rss_mb on {PM}"),
    ("proxy.triggered_polls", "count", f"run_s, sim_ops_per_s, peak_rss_mb on {PM}"),
    ("proxy.poll_log_records", "count", f"run_s, sim_ops_per_s, peak_rss_mb on {PM}"),
    ("proxy.ns_per_poll", "ns", f"run_s, sim_ops_per_s, peak_rss_mb on {PM}"),
    ("sim.events", "count", f"run_s on {PM} and {CF}"),
    ("sim.ns_per_event", "ns", f"run_s on {PM} and {CF}"),
    ("sim.pending_max", "count", f"run_s on {PM} and {CF}"),
    ("sim.hour_s_p50", "s", f"run_s on {PM} and {CF}"),
    ("sim.hour_s_max", "s", f"run_s on {PM} and {CF}"),
    ("consistency.next_ttr_calls", "count", f"run_s on {PM}"),
    ("consistency.next_ttr_s", "s", f"run_s on {PM}"),
    ("consistency.next_ttr_share", "ratio", f"run_s on {PM}"),
    ("consistency.coordinator_calls", "count", f"run_s on {PM}"),
    ("consistency.coordinator_self_s", "s", f"run_s on {PM}"),
    ("consistency.coordinator_notifies", "count", f"run_s on {PM}"),
    ("fleet.register_s", "s", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("fleet.relays_sent", "count", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("fleet.relays_delivered", "count", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("fleet.relays_applied", "count", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("fleet.relay_apply_ratio", "ratio", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("fleet.relays_lost", "count", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("fleet.relays_retried", "count", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("fleet.relays_dropped_dark", "count", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("fleet.ns_per_relay", "ns", f"run_s on {FR}; run_s, client.fresh_rate on {CF}"),
    ("sharded.start_s", "s", f"run_s, wall_s on {FR}"),
    ("sharded.shards", "count", f"run_s, wall_s on {FR}"),
    ("sharded.threads", "count", f"run_s, wall_s on {FR}"),
    ("sharded.coord_cpu_s", "s", f"run_s, wall_s on {FR}"),
    ("sharded.worker_cpu_s", "s", f"run_s, wall_s on {FR}"),
    ("sharded.utilization", "ratio", f"run_s, wall_s on {FR}"),
    ("sharded.reference_run_s", "s", f"run_s, wall_s on {FR}"),
    ("sharded.speedup", "ratio", f"run_s, wall_s on {FR}"),
    ("sharded.cpu_overhead", "ratio", f"run_s, wall_s on {FR}"),
    ("client.requests", "count", f"run_s, eval_s on {CF}"),
    ("client.hits", "count", f"run_s, eval_s on {CF}"),
    ("client.fresh", "count", f"run_s, eval_s on {CF}"),
    ("client.stale", "count", f"run_s, eval_s on {CF}"),
    ("client.misses", "count", f"run_s, eval_s on {CF}"),
    ("client.demand_fills", "count", f"run_s, eval_s on {CF}"),
    ("client.dark_reads", "count", f"run_s, eval_s on {CF}"),
    ("client.fresh_rate", "ratio", f"run_s, eval_s on {CF}"),
    ("client.ns_per_request", "ns", f"run_s, eval_s on {CF}"),
    ("client.tx_eval_s", "s", f"eval_s on {ALL}"),
    ("client.transactions", "count", f"eval_s, tx_violation_rate on {ALL}"),
    ("metrics.fidelity_eval_s", "s", f"eval_s on {PM} and {FR}"),
    ("metrics.mutual_eval_s", "s", f"eval_s on {PM} and {FR}"),
    ("metrics.merge_records_s", "s", f"eval_s on {PM} and {FR}"),
    ("metrics.records", "count", f"eval_s, peak_rss_mb on {PM} and {FR}"),
    ("host.nproc", "count", "context for every timing"),
    ("host.cpus_used", "count", "context for every timing"),
    ("host.steal_frac", "ratio", "context for every timing"),
    ("host.loadavg", "load", "context for every timing"),
    ("bench.trace_overhead_frac", "ratio", "context: traced vs untraced run_s"),
]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; log under .bench_build."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources: {os.path.join(ROOT, 'src')} is missing")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(step)} (log: {log_path})", 3)


def input_seed(seed, k):
    """Seed of input k of a run with workload seed `seed`."""
    return (seed * 1_000_003 + k) % 2**64


def run_once(args, k, traced, cpu, timeout):
    """One repetition of input k in its own process; returns its parsed
    result or an error string."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(input_seed(args.seed, k)),
           "--hours", repr(args.hours)]
    if traced:
        cmd.append("--traced")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        return "timed out"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return f"exit {proc.returncode}, no result: {proc.stderr.strip()[-400:]}"
    if proc.returncode != 0 or not result.get("ok"):
        failed = [k for k, v in result.get("checks", {}).items() if not v]
        return f"exit {proc.returncode}, failed checks {failed}"
    return result


def mean(values):
    return statistics.fmean(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hours", type=float, default=24.0,
                        help="simulated horizon (default 24; shorter for smoke runs)")
    parser.add_argument("--inputs", type=int,
                        help="inputs per run (default: the workload's; smoke runs)")
    parser.add_argument("--corrupt", choices=("ledger", "digest"),
                        help="inject a benchmark-side check failure (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()

    cpus = sorted(os.sched_getaffinity(0))
    threads, inputs = WORKLOADS[args.workload]
    if args.trace:
        inputs = min(inputs, TRACED_INPUTS)
    if args.inputs:
        inputs = args.inputs
    pinned = threads == 1
    # With --trace 1 every input runs untraced, then traced, on one CPU.
    kinds = [False, True] if args.trace else [False]
    reps = {(k, traced): [] for k in range(inputs) for traced in kinds}
    digests = {}
    errors = []
    attempted = 0
    start = time.monotonic()
    passes = 0
    # Repetitions cycle through the inputs until the first full pass is
    # done and --seconds have passed (two passes when a single input runs,
    # for the digest comparison); inputs repeated in a partial last pass
    # just get a better median.
    while True:
        k = attempted // len(kinds) % inputs
        cpu = cpus[(k + passes) % len(cpus)] if pinned else None
        for traced in kinds:
            attempted += 1
            result = run_once(args, k, traced, cpu,
                              max(1.0, DEADLINE_S - (time.monotonic() - start)))
            if isinstance(result, str):
                errors.append(f"input {k}: {result}")
                continue
            expected = digests.setdefault(k, result["digest"])
            if result["digest"] != expected:
                errors.append(f"input {k}: digest {result['digest']} != {expected}")
                continue
            reps[(k, traced)].append(result)
        if k == inputs - 1:
            passes += 1
        min_passes = 2 if inputs * len(kinds) == 1 else 1
        elapsed = time.monotonic() - start
        if passes >= min_passes and elapsed >= args.seconds:
            break
        if elapsed >= DEADLINE_S:  # hung or very slow: inputs go missing
            print(f"FAILED run: stopped after {elapsed:.0f} s, before a full pass")
            break
    failed = len(errors)
    for message in errors:
        print(f"FAILED repetition: {message}")

    kind = bool(args.trace)
    per_input = [reps[(k, kind)] for k in range(inputs) if reps[(k, kind)]]
    # Deterministic outputs must repeat exactly across repetitions.
    for runs in per_input:
        for result in runs[1:]:
            if result["counts"] != runs[0]["counts"]:
                failed += 1
                print("FAILED repetition: counts differ between repetitions")

    def timing(name, traced=kind):
        """Mean over inputs of the per-input median over repetitions."""
        return mean([statistics.median(r["metrics"].get(name, 0.0) for r in runs)
                     for k in range(inputs) if (runs := reps[(k, traced)])])

    def count(name):
        return mean([runs[0]["counts"][name] for runs in per_input])

    every = [r for runs in reps.values() for r in runs]
    host = {
        "nproc": os.cpu_count(),
        "allowed_cpus": cpus,
        "placement": "rotate-pinned" if pinned else "unpinned",
        "cpus_used": sorted({c for r in every for c in r["cpus"]}),
        "steal_frac_max": max((r["metrics"]["host.steal_frac"] for r in every), default=0),
        "loadavg": [min((r["metrics"]["host.loadavg"] for r in every), default=0),
                    max((r["metrics"]["host.loadavg"] for r in every), default=0)],
        "build_type": every[0]["build_type"] if every else None,
        "inputs": inputs,
        "repetitions": attempted,
    }
    print(json.dumps({"host": host}))

    metrics = {}
    counts = per_input[0][0]["counts"] if per_input else {}
    if not args.trace:
        print(f"{args.workload} seed {args.seed}: end-to-end over {inputs} inputs, "
              f"{attempted} repetitions")
        for name, unit, source in END_TO_END:
            if name == "setup_s":
                value = statistics.median(r["metrics"]["setup_s"] for r in every) \
                    if every else 0.0
            elif name == "sim_ops_per_s":
                run_s = timing("run_s")
                value = count("ops") / run_s if run_s else 0.0
            elif source == "time":
                value = timing(name)
            else:
                value = count(name)
            metrics[name] = {"value": value, "unit": unit}
    else:
        print(f"{args.workload} seed {args.seed}: per-layer over {inputs} inputs, "
              f"traced repetitions interleaved with untraced")
        untraced_run = timing("run_s", False)
        extra = {
            "host.nproc": float(os.cpu_count()),
            "host.cpus_used": float(len(host["cpus_used"])),
            "bench.trace_overhead_frac":
                timing("run_s") / untraced_run - 1.0 if untraced_run else 0.0,
        }
        for name, unit, feeds in PER_LAYER:
            if name in extra:
                value = extra[name]
            elif name in counts:
                value = count(name)
            else:
                value = timing(name)
            metrics[name] = {"value": value, "unit": unit}
        write_spans(args, [r for k in range(inputs) for r in reps[(k, True)]])
    width = max(len(n) for n in metrics)
    feeds = {n: f for n, _, f in PER_LAYER}
    for name, m in metrics.items():
        note = f"  -> {feeds[name]}" if args.trace else ""
        print(f"  {name:<{width}} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  failed_frac {failed / attempted:.4g} ratio ({failed} of {attempted})")

    correct = failed == 0 and len(per_input) == inputs
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


def write_spans(args, traced_reps):
    """Keep the traced repetitions' spans under .bench_build/traces."""
    directory = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump([{"seed": r["seed"], "cpus": r["cpus"], "spans": r["spans"]}
                   for r in traced_reps], f)
    print(f"spans: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
