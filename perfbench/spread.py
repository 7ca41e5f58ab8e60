#!/usr/bin/env python3
"""Runs the benchmark on one workload over several seeds and prints, for
every metric (gated or reported only), the median and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, and the value of every run.

Run from the repository root:
    python3 perfbench/spread.py --workload mpi-d3-fine --seeds 1-10 --seconds 30
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: checks failed\n{out.stdout}")
        # The metric lines carry every metric, gated or not.
        for line in out.stdout.splitlines():
            f = line.split()
            if len(f) >= 3 and f[0] == "metric":
                values.setdefault(f[1], []).append(float(f[2]))
        print(f"seed {seed}: ok", file=sys.stderr)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:24s} median {med:10.4g}  spread {spread:6.3f}  "
              f"values {' '.join(f'{v:.4g}' for v in vs)}")


if __name__ == "__main__":
    main()
