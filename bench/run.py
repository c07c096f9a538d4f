"""copa-match benchmark: one workload, one run.

    python3 bench/run.py --workload eval-features --seed 1 --seconds 55 --trace 0

Generates the workload from the seed, runs it through the `copa` CLI in
a worker process for about ``--seconds`` seconds, checks the outputs
against brute-force recomputations from the generated files, and prints
one JSON line as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run.  Run from the root
of a source tree (the directory holding ``src/copa``); intermediate
files live in ``.bench_work/`` there and are removed afterwards, except
the span dump of the last traced run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from generate import write_workload  # noqa: E402

WORK = ".bench_work"

#: name -> (motions, CoPAs, methods); the CLI's own default method list
#: (all five) is used where methods is None.  eval-paper-counts is run by
#: hand only: BENCHMARK.json leaves it out so that the other two get
#: longer, steadier runs (bench/README.md).
WORKLOADS = {
    "eval-features": (28, 37, ["ba", "knn", "nb", "lr"]),
    "eval-paper-counts": (689, 37, ["ba", "knn"]),
    "match-cold": (28, 37, None),
}

#: Worker environment.  One BLAS thread: the matrices are small and a
#: second thread only adds scheduling noise on a 2-core machine.  A fixed
#: hash seed gives every run the same dict and set layout.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(work_dir: str, workload: str, seconds: float, trace: int, spans: str) -> dict:
    report_path = os.path.join(work_dir, "report.json")
    env = dict(os.environ, **WORKER_ENV)
    # room for set-up sampling, one command that overruns the run and,
    # when traced, the untraced reference command
    timeout = 3 * seconds + 60
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seconds", str(seconds), "--trace", str(trace), "--report", "report.json",
             "--spans", spans],
            cwd=work_dir, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    with open(report_path, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description="copa-match benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "copa", "cli.py")):
        fail("run from the root of a copa-match source tree (no src/copa here)")

    n_motions, n_copas, methods = WORKLOADS[args.workload]
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    spans = os.path.abspath(os.path.join(WORK, f"spans-{args.workload}.json"))
    try:
        write_workload(work_dir, args.seed, n_motions, n_copas)
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        if methods is not None:
            config["methods"] = methods
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)

        report = run_worker(work_dir, args.workload, args.seconds, args.trace, spans)
        inputs = checks.Inputs(work_dir)
        if args.workload == "match-cold":
            failures = checks.check_match(inputs, report)
        else:
            failures = checks.check_eval(inputs, report, methods)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failed checks", file=sys.stderr)
    commands = report["commands"]
    print("command seconds: " + " ".join(f"{r['seconds']:.3f}" for r in commands), file=sys.stderr)
    failed = sum(1 for r in commands if r["code"] != 0)
    if args.trace:
        if report["absent"]:
            print(f"absent wrapped names: {', '.join(report['absent'])}")
        layers = report["layers"]
        print(f"accounting: self times sum to {layers['trace.self_sum_s']:.4f} s of "
              f"{layers['trace.wall_s']:.4f} s traced wall time per command; "
              f"tracing overhead {layers['trace.overhead_s']:.4f} s", file=sys.stderr)
        metrics = {
            name: {"value": value, "unit": _unit(name)}
            for name, value in sorted(report["layers"].items())
        }
    else:
        ok = [r["seconds"] for r in commands if r["code"] == 0]
        if not ok:
            fail("no command succeeded, so there is no time to report")
        wall = report["wall"]
        print(f"wall time, not scaled: set-up {wall['setup_s']:.4f} s, command median "
              f"{statistics.median(ok):.4f} s, probe {wall['probe_s']:.4f} s "
              f"(reference {wall['probe_ref_s']:.4f} s)", file=sys.stderr)
        metrics = {
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "command_p50_s": {"value": report["command_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": len(commands),
        "failed": failed,
        "metrics": metrics,
    }))


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


if __name__ == "__main__":
    main()
