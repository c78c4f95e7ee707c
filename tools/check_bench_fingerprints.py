#!/usr/bin/env python3
"""Check perfbench's simulated results against BENCH_host.json.

Runs `python3 perfbench/run.py --workload <w> --seed 1 --seconds <s>
--trace 0` for every cell of the newest BENCH_host.json entry and
compares the `sim_fingerprint` each run prints with the recorded one,
exactly. Timings are printed but never compared.

    python3 tools/check_bench_fingerprints.py [--seconds 2]

Exits 0 when every fingerprint matches, 1 otherwise.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT = re.compile(r"sim_fingerprint: (0x[0-9a-f]+)")


def newest_entry():
    record = json.loads((ROOT / "BENCH_host.json").read_text())
    return record["entries"][-1]


def run_cell(workload, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, f"run.py exited with code {proc.returncode}"
    found = FINGERPRINT.findall(proc.stdout)
    if len(found) != 1:
        return None, f"expected one sim_fingerprint line, found {len(found)}"
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if result["failed"] != 0 or not result["correct"]:
        return None, f"benchmark reported a failed run: {result}"
    return found[0], result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    entry = newest_entry()
    failures = 0
    for workload, cell in entry["cells"].items():
        got, detail = run_cell(workload, args.seconds)
        want = cell["sim_fingerprint"]
        if got is None:
            print(f"{workload}: FAIL ({detail})")
            failures += 1
        elif got != want:
            print(f"{workload}: FAIL sim_fingerprint {got}, "
                  f"BENCH_host.json ({entry['commit']}) has {want}")
            failures += 1
        else:
            print(f"{workload}: ok {got} (run_s "
                  f"{detail['run_s']['value']:.3f} s, host_ns_per_dram_cycle "
                  f"{detail['host_ns_per_dram_cycle']['value']:.0f})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
