#!/usr/bin/env python3
"""Smoke check of the serving benchmark: a seconds-long run of every workload.

    python3 perfbench/smoke.py [--seconds 3]

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py untraced and traced, twice with one seed and once with
another, and checks that:
  - the last stdout line is the result JSON with exactly the keys correct,
    attempted, failed and metrics; correct is true and failed is 0;
  - every metric BENCHMARK.json names for the mode is emitted with its
    unit, and no other;
  - the exact counts repeat bit-for-bit for one seed (retrieved_frac,
    comm_kib_per_lookup, batchpir.keys_per_lookup,
    net.rows_per_node_per_lookup);
  - retrieved_frac differs for the other seed, while the other exact counts
    do not: they are the oblivious query shape (fixed bin budgets), which
    must not depend on the data.
Exits 1 on the first failure.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_A, SEED_B = 11, 12
SHAPE_COUNTS = {0: ["comm_kib_per_lookup"],
                1: ["batchpir.keys_per_lookup", "net.rows_per_node_per_lookup"]}


def fail(message):
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
             f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail(f"{workload} seed {seed} trace {trace}: {lines[-1][:300]}")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            a1 = run(workload, SEED_A, args.seconds, trace)
            a2 = run(workload, SEED_A, args.seconds, trace)
            b = run(workload, SEED_B, args.seconds, trace)
            for metrics in (a1, a2, b):
                units = {name: m["unit"] for name, m in metrics.items()}
                if units != expected[trace]:
                    fail(f"{workload} trace {trace}: metrics/units differ "
                         f"from BENCHMARK.json: got {sorted(units.items())}")
            exact = SHAPE_COUNTS[trace] + (["retrieved_frac"] if trace == 0
                                           else [])
            for name in exact:
                if a1[name]["value"] != a2[name]["value"]:
                    fail(f"{workload}: {name} not repeatable for seed "
                         f"{SEED_A}: {a1[name]['value']} vs "
                         f"{a2[name]['value']}")
            for name in SHAPE_COUNTS[trace]:
                if a1[name]["value"] != b[name]["value"]:
                    fail(f"{workload}: query shape {name} depends on the "
                         f"seed: {a1[name]['value']} vs {b[name]['value']}")
            if trace == 0 and \
                    a1["retrieved_frac"]["value"] == b["retrieved_frac"]["value"]:
                fail(f"{workload}: retrieved_frac identical for seeds "
                     f"{SEED_A} and {SEED_B}")
            print(f"smoke: {workload} trace {trace} ok", flush=True)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
