#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the repository root). The
last line of standard output is the JSON result; see perfbench/README.md.
With --trace 1 the traced iterations' spans are written to
<target dir>/perfbench/spans-<workload>-<seed>.jsonl.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["live-duplex", "live-tcp", "sim-diabolical", "fleet-e15"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's output goes to stderr so the result stays the last stdout line.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def rustc_version():
    try:
        out = subprocess.run([os.environ.get("RUSTC", "rustc"), "-V"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def flag(args, name):
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def run_one(binary, args, target, capture):
    workload, seed = flag(args, "--workload"), flag(args, "--seed")
    seconds = flag(args, "--seconds")
    spans = os.path.join(target, "perfbench", f"spans-{workload}-{seed}.jsonl")
    try:
        limit = float(seconds) + 150.0
    except (TypeError, ValueError):
        limit = 180.0
    try:
        return subprocess.run([binary, *args, "--spans-out", spans], timeout=limit,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {limit:.0f} s")


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    binary = build(target)
    os.environ["PERFBENCH_RUSTC"] = rustc_version()
    if flag(args, "--workload") != "all":
        sys.exit(run_one(binary, args, target, capture=False).returncode)

    # Every workload in turn, each in its own process (peak memory is
    # per process); the combined line prefixes metrics with the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        wargs = list(args)
        wargs[wargs.index("--workload") + 1] = w
        proc = run_one(binary, wargs, target, capture=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            fail(f"{w} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
