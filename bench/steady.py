"""Steadiness of the end-to-end metrics on one workload.

    python3 bench/steady.py --workload match-cold --runs 10

Runs ``bench/run.py`` once per seed, seeds 1..runs, each for the
``run_seconds`` of BENCHMARK.json.  Then prints for each end-to-end
metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median
and that spread as a share of the metric's bound in BENCHMARK.json.  A
spread above a third of its bound is flagged.  Run from the root of the
source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description="benchmark steadiness")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    shares = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed\n{proc.stderr}")
        shares.append(result["failed"] / result["attempted"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={values[n][-1]:.4f}" for n in bounds), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, failed share {sorted(set(shares))}")
    print(f"{'metric':<16}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>9}{'bound':>7}{'/bound':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[name] / 3 else "  above a third of the bound"
        print(f"{name:<16}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}{spread:>9.3f}{bounds[name]:>7.2f}"
              f"{spread / bounds[name]:>8.2f}{flag}")


if __name__ == "__main__":
    main()
