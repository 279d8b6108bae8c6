#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute.  It checks that

  1. BENCHMARK.json names exactly the metrics, units and workloads that
     run.py prints;
  2. a short-horizon pass of every workload, untraced and traced, exits 0,
     reports correct with no failures, and prints every named metric with
     its unit;
  3. a ledger comparison or an output digest corrupted on the benchmark
     side is counted in `failed` and makes run.py exit non-zero;
  4. run.py exits non-zero without a result in a directory holding only
     BENCHMARK.json and perfbench/ (no library sources to build).

Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own tables)

SHORT = ["--seconds", "0", "--hours", "2", "--inputs", "1"]


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] ==
           [(n, u) for n, u, _ in run.END_TO_END],
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] ==
           [(n, u) for n, u, _ in run.PER_LAYER],
           "BENCHMARK.json per_layer matches run.py")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")

    for workload in run.WORKLOADS:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, proc = bench("--workload", workload, "--seed", "1",
                                       "--trace", str(trace), *SHORT)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"] and
                   result["failed"] == 0 and result["attempted"] >= 2,
                   f"{label}: exit 0, correct, no failures"
                   + ("" if code == 0 else f"\n{proc.stdout}{proc.stderr}"))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == {m["name"]: m["unit"] for m in table},
                   f"{label}: every named metric with its unit")

    for corrupt in ("ledger", "digest"):
        code, result, _ = bench("--workload", "client_faulty", "--seed", "1",
                                "--corrupt", corrupt, *SHORT)
        expect(code != 0 and result is not None and not result["correct"] and
               result["failed"] > 0,
               f"corrupted {corrupt} counted as failed, non-zero exit")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("--workload", "proxy_mutual", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare,
                            script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           "without library sources: non-zero exit, no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
