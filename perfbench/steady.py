#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, for each workload and
end-to-end metric, the median and the quartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workloads batch-quarter,push-fleet --seeds 31-40 --seconds 15

A spread above the bound would reject the benchmark; one under a third of
the bound leaves room for a noisier host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402
import run  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 31-40")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, check=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            spread = bl.spread(vals)
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {workload:14s} {name:20s} median {statistics.median(vals):14.4f} "
                  f"spread {spread:.4f} bound {bounds[name]}", flush=True)
    print(f"largest spread ÷ bound, setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
