#!/usr/bin/env python3
"""Records a set of benchmark runs: each workload with several seeds.

    python3 perfbench/sweep.py --out runs/a --runs 10
    python3 perfbench/sweep.py --out runs/a --runs 5 --workloads stream_text

Each run's standard output is saved as <out>/<workload>-seed<N>.txt;
perfbench/compare.py reads such directories. Seeds are first-seed,
first-seed + 1, ... A failing run is reported and the sweep goes on.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_direct", "classify_binary", "stream_text")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for workload in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            path = os.path.join(args.out, "%s-seed%d.txt" % (workload, seed))
            with open(path, "w") as out:
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", args.trace],
                    stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT)
            print("%s seed %d: exit %d -> %s" % (workload, seed,
                                                 done.returncode, path))
            sys.stdout.flush()
            status = status or done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
