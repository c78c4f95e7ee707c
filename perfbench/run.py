#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark on one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake project that compiles ../src) in Release into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
invocation of the benchmark binary. Its notes go to stdout, and the last
line of stdout is the JSON result. A result whose metric names differ from
BENCHMARK.json is refused (exit 1, no result line). With --trace 1 the raw
span dump is written to <build root>/spans/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
DEADLINE_S = 175   # Each invocation must end within 180 s of starting.


def fail(msg, code=1):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then bring the binary up to date; output to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    missing = declared_metrics(trace) ^ set(result["metrics"])
    if missing:
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    try:
        binary = build(build_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    build_s = time.monotonic() - start

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_root / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-seed{args.seed}.json")]
    # A build that took the whole first-run allowance still gets a full run.
    timeout = max(DEADLINE_S - build_s, args.seconds + 120)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError) as e:
        fail(f"malformed result line: {e}")
    print(f"build: {build_s:.1f} s before the benchmark started")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
