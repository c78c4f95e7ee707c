#!/usr/bin/env python3
"""Paired A/B host-speed comparison of two revisions on perfbench.

Extracts each revision with `git archive` into a scratch directory,
builds its perfbench in Release there, then runs
`perfbench/run.py --workload <w> --seed <n> --seconds <s> --trace 0` of
the two sides in alternation: pair i runs the base first when i is even
and the change first when i is odd. For every workload and end-to-end
metric it reports each side's median and quartiles, the per-pair ratio
change/base, and how many pairs the change won. The claim rule: the
change wins at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the base's interquartile range.

Each run also records the perfbench process's wall seconds and its CPU
seconds (user + sys of it and its children, from os.wait4's rusage);
for both, the report gives the quartiles of the per-pair ratio
change/base. CPU time leaves out time the host spent running other
work, so on a loaded host its ratios are the narrower ones.

    python3 tools/ab_host.py --base HEAD~1 --change HEAD \\
        --workload gups_2ch --pairs 10 --scratch /tmp/ab
    python3 tools/ab_host.py --base HEAD --aa --workload gups_2ch

--aa runs the base binary against itself (an A/A run), which shows the
spread a real difference has to beat. To compare uncommitted work, pass
the commit `git stash create` prints after `git add -A`. The sim_*
metrics must agree between the sides on every run; a difference is
reported and makes the exit status 1. Nothing inside the checkout is
written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("run_s", "host_ns_per_dram_cycle", "setup_s", "peak_rss_mb")
PROCESS_TIMES = ("wall_s", "cpu_s")
CLAIM_WIN_SHARE = 0.9


def resolve(rev):
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def prepare(sha, scratch):
    """Extract @p sha under @p scratch and build its perfbench there."""
    side = scratch / sha[:12]
    tree = side / "tree"
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"ab_host.py: git archive {sha} failed")
    build = side / "build"
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    # One untimed run builds the binary; later runs only find it current.
    run_once(tree, env, "gups_2ch", 1, 0.1)
    return tree, env


def run_once(tree, env, workload, seed, seconds):
    """One perfbench run: its metrics plus the process's wall and CPU s."""
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(tree / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", "0"],
            cwd=tree, env=env, stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        sys.exit(f"ab_host.py: perfbench failed in {tree} ({workload}):\n"
                 f"{stderr}")
    result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    if result["failed"] != 0 or not result["correct"]:
        sys.exit(f"ab_host.py: perfbench reported a failed run: {result}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["wall_s"] = wall
    metrics["cpu_s"] = usage.ru_utime + usage.ru_stime
    return metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload, pairs):
    """Summary of one workload's pairs: per metric, both sides and wins."""
    out = {}
    for metric in METRICS:
        base = [p[0][metric] for p in pairs]
        change = [p[1][metric] for p in pairs]
        ratios = [c / b for b, c in zip(base, change)]
        wins = sum(c < b for b, c in zip(base, change))
        losses = sum(c > b for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        out[metric] = {
            "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "ratio_median": statistics.median(ratios),
            "ratio_min": min(ratios),
            "ratio_max": max(ratios),
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "claim_holds": (wins >= CLAIM_WIN_SHARE * len(pairs) and
                            bq[1] - cq[1] > bq[2] - bq[0]),
        }
    for key in PROCESS_TIMES:
        ratios = [p[1][key] / p[0][key] for p in pairs]
        q = quartiles(ratios)
        out[key] = {"ratio_q1": q[0], "ratio_median": q[1],
                    "ratio_q3": q[2],
                    "ratio_iqr_over_median": (q[2] - q[0]) / q[1]}
    sims = {k for k in pairs[0][0] if k.startswith("sim_")}
    out["sim_identical"] = all(p[0][k] == p[1][k] for p in pairs
                               for k in sims)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--change", help="changed revision")
    parser.add_argument("--aa", action="store_true",
                        help="run the base against itself")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--scratch", type=Path,
                        default=Path(os.environ.get("TMPDIR", "/tmp")) /
                        "ab_host")
    parser.add_argument("--json", type=Path,
                        help="also write the summary and every run here")
    args = parser.parse_args()
    if args.aa == bool(args.change):
        parser.error("give exactly one of --change and --aa")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base_sha = resolve(args.base)
    change_sha = base_sha if args.aa else resolve(args.change)
    args.scratch.mkdir(parents=True, exist_ok=True)
    base = prepare(base_sha, args.scratch)
    change = base if args.aa else prepare(change_sha, args.scratch)

    report = {"base": base_sha, "change": change_sha, "aa": args.aa,
              "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = (base, change) if i % 2 == 0 else (change, base)
            first = run_once(*order[0], workload, args.seed, args.seconds)
            second = run_once(*order[1], workload, args.seed, args.seconds)
            pair = (first, second) if i % 2 == 0 else (second, first)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: "
                  f"host_ns_per_dram_cycle base "
                  f"{pair[0]['host_ns_per_dram_cycle']:.0f} change "
                  f"{pair[1]['host_ns_per_dram_cycle']:.0f}", flush=True)
        summary = compare(workload, pairs)
        report["workloads"][workload] = {"summary": summary, "runs": pairs}
        ok = ok and summary["sim_identical"]
        print(f"\n{workload} ({args.pairs} pairs, seed {args.seed}, "
              f"--seconds {args.seconds}); sim_* identical: "
              f"{summary['sim_identical']}")
        print(f"  {'metric':24} {'base q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'ratio med':>9} {'wins':>6} claim")
        for metric in METRICS:
            m = summary[metric]
            fmt = "{q1:.4g}/{median:.4g}/{q3:.4g}"
            print(f"  {metric:24} {fmt.format(**m['base']):>30} "
                  f"{fmt.format(**m['change']):>30} "
                  f"{m['ratio_median']:9.3f} "
                  f"{m['wins']:>3}/{m['pairs']:<2} "
                  f"{'yes' if m['claim_holds'] else 'no'}")
        for key in PROCESS_TIMES:
            t = summary[key]
            print(f"  process {key:16} per-pair ratio q1/med/q3 "
                  f"{t['ratio_q1']:.4f}/{t['ratio_median']:.4f}/"
                  f"{t['ratio_q3']:.4f} (IQR/median "
                  f"{t['ratio_iqr_over_median']:.2%})")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
