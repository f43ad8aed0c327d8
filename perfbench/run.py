#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload movielens|taobao|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (a CMake package compiling
the repository's src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the benchmark binary. The binary's last
stdout line is the JSON result; with --trace 1 the spans are also written
to <build dir>/traces/<workload>-seed<N>.jsonl. GPUDPF_* environment
variables are removed so a stray knob cannot move the workloads.

Exits non-zero, without printing a result, if the sources are missing or
the build fails; exits non-zero with "correct": false on any output
mismatch.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", "serve_bench"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the benchmark's.
        subprocess.run(step, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "serve_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(os.path.dirname(bdir), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUDPF_")}
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
