#!/usr/bin/env python3
"""Build and run the rumor benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <engine-stream|live-updates|paper-mc> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `rumor-perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), runs one workload and
prints its metrics, a `meta` line recording the host and build, and as
the last line the result object
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
Exits non-zero without a result line if the build fails, and non-zero
after the result line if a correctness check fails or the emitted
metrics disagree with `BENCHMARK.json`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PROFILE = "release"


def output_of(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo", "build", "--quiet", "--offline", "--profile", PROFILE,
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    binary = os.path.join(target, PROFILE, "rumor-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(run.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return run.returncode or 5

    status = run.returncode
    declared = declared_metrics(args.trace == "1")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        units = sorted(n for n in set(declared) & set(emitted) if declared[n] != emitted[n])
        print(
            f"perfbench: metrics disagree with BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, unit mismatch {units}",
            file=sys.stderr,
        )
        result["correct"] = False
        status = status or 6

    meta = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": int(args.trace),
            "nproc": len(os.sched_getaffinity(0)),
            "rustc": output_of(["rustc", "-V"]),
            "profile": PROFILE,
            "commit": output_of(["git", "rev-parse", "HEAD"]),
        }
    }
    print("\n".join(lines[:-1]))
    print(json.dumps(meta))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
