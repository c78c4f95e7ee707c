#!/usr/bin/env python3
"""Symbolize a hostprof sample file and print self and inclusive shares.

    python3 tools/hostprof/report.py hostprof.out [--top 30]
        [--require 'pra::sim::System::run=50']

Every frame is resolved with `addr2line -a -f -i -C`, so functions the
compiler inlined into a frame count as frames of their own. A sample
counts once towards the inclusive share of every function on its stack
and towards the self share of the innermost function at its leaf PC.
Names are printed without their parameter lists. --require NAME=PCT
exits 1 unless NAME's inclusive share is above PCT percent.
"""

import argparse
import collections
import subprocess
import sys


def strip_params(name):
    """'ns::f(int) const' -> 'ns::f' (template arguments kept)."""
    depth = 0
    for i, ch in enumerate(name):
        if name.startswith("(anonymous namespace)", i):
            depth += 1
        elif name.startswith("(anonymous namespace)", i - 20):
            depth -= 1
        elif ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0 and not name[:i].endswith("operator"):
            return name[:i]
    return name


def symbolize(module, offsets):
    """Map each offset of @module to its inline chain, innermost first."""
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", module],
        input="".join(f"{o:#x}\n" for o in offsets),
        capture_output=True, text=True, check=True)
    chains = {}
    lines = proc.stdout.splitlines()
    i = 0
    for off in offsets:
        assert lines[i].startswith("0x"), lines[i]
        i += 1
        chain = []
        while i < len(lines) and not lines[i].startswith("0x"):
            chain.append(strip_params(lines[i]))
            i += 2   # Function name, then file:line.
        chains[off] = chain or ["??"]
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--require", action="append", default=[],
                    metavar="NAME=PCT")
    args = ap.parse_args()

    samples = []
    wanted = collections.defaultdict(set)
    with open(args.samples) as f:
        for line in f:
            frames = []
            for depth, tok in enumerate(line.split()):
                module, off = tok.rsplit("+", 1)
                # A return address points past its call: look up the call.
                pc = int(off, 16) - (1 if depth else 0)
                frames.append((module, pc))
                wanted[module].add(pc)
            if frames:
                samples.append(frames)
    if not samples:
        sys.exit("no samples in " + args.samples)

    chains = {}
    for module, pcs in wanted.items():
        for off, chain in symbolize(module, sorted(pcs)).items():
            chains[(module, off)] = chain

    self_n = collections.Counter()
    incl_n = collections.Counter()
    for frames in samples:
        self_n[chains[frames[0]][0]] += 1
        incl_n.update({fn for fr in frames for fn in chains[fr]})

    total = len(samples)
    print(f"{total} samples")
    print(f"{'incl%':>7} {'self%':>7}  function")
    for fn, n in incl_n.most_common(args.top):
        print(f"{100 * n / total:7.1f} {100 * self_n[fn] / total:7.1f}  {fn}")

    failed = False
    for req in args.require:
        name, pct = req.rsplit("=", 1)
        share = 100 * incl_n[name] / total
        ok = share > float(pct)
        failed |= not ok
        print(f"require {name} inclusive {share:.1f}% > {pct}%: "
              f"{'ok' if ok else 'FAILED'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
