"""Run the benchmark once per seed and report each metric's spread.

    python3 benchmark/steadiness.py --workload lft-pivot --seeds 1-10 [--seconds 30] [--trace 0]

For every metric: the median over the runs, the first and third quartile
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, plus the attempted and failed counts of every run.  Run from the
root of the checkout, one run at a time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        brief = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} {brief}",
            flush=True,
        )
    print(f"{'metric':22} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:22} {med:10.5g} {q1:10.5g} {q3:10.5g} {(q3 - q1) / med:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
