#!/usr/bin/env python3
"""Build and run the crellvm-ledger benchmark from the repository root.

    python3 ledger/run.py --workload batch_cold --seed 1 --seconds 35 --trace 0
    python3 ledger/run.py --smoke

The first form builds ledger/ (and the repository libraries it links) with
CMake into $CARGO_TARGET_DIR/ledger (default .bench_build/ledger), runs one
workload, and forwards the program's output: the last line is one JSON
object with "correct", "attempted", "failed" and "metrics" (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1). Any build or
run failure exits non-zero without printing a result.

--smoke is the benchmark's own test: every workload, traced and untraced,
for one second each, on seed 1 and on the hold-out seed (HOLDOUT_SEED),
checking verdicts and that each result names exactly the metrics listed
in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_cold", "daemon_closed", "cluster_warm"]
# Gain claims measured on other seeds must also hold on this seed,
# which no change was tuned on.
HOLDOUT_SEED = 20181
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then (re)builds the benchmark; returns its path."""
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "ledger")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", "crellvm-ledger", "-j4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "crellvm-ledger")


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (result dict or None, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tables", os.path.join(HERE, "verdicts"),
           "--work", os.path.join(".bench_run", "ledger.%d" % os.getpid())]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("ledger: %s timed out" % workload, file=sys.stderr)
        return None, ""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stdout
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, proc.stdout
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, proc.stdout
    return result, proc.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for seed in (1, HOLDOUT_SEED):
        for workload in WORKLOADS:
            for trace in (0, 1):
                tag = "%s seed %d trace %d" % (workload, seed, trace)
                result, _ = run_once(binary, workload, seed, 1, trace, True)
                if result is None:
                    problems.append(tag + ": no result")
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want[trace]:
                    problems.append(tag + ": metrics differ from BENCHMARK.json")
                if not result["correct"] or result["failed"]:
                    problems.append(tag + ": wrong or failed verdicts")
                closure = result["metrics"].get("trace.closure_ratio")
                if workload == "batch_cold" and trace == 1 and not (
                        0.9 <= closure["value"] <= 1.02):
                    problems.append(tag + ": phase closure %.4f"
                                    % closure["value"])
                print("ledger smoke: %s: %d attempted" %
                      (tag, result["attempted"]))
    for p in problems:
        print("ledger smoke: FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        print("ledger: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)
    result, out = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    if result is None:
        sys.stderr.write(out)
        print("ledger: %s produced no result" % args.workload, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
