"""Measure the benchmark's baseline and its run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/baseline.py [--seeds 1-10] [--workload NAME ...]
                                  [--label TEXT] [--out perfbench/baseline.json]

For each workload, makes one ``--trace 0`` run per seed and one
``--trace 1`` run on the first seed, exactly as ``run.py`` is invoked
from outside. It reports every end-to-end metric's median, quartiles
and spread (interquartile range over median) next to its bound in
``BENCHMARK.json``, and writes all of it, with the host's facts, to
``--out``. A run that fails its checks stops the measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

from pins import parse_seeds
from run import HERE, ROOT, WORKLOAD_NAMES


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run, as the command line runs it; its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--label", default="",
                        help="what was measured, e.g. the commit")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {
        "label": args.label,
        "measured": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "seeds": args.seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in args.workload or WORKLOAD_NAMES:
        runs = [bench(workload, seed, seconds, 0) for seed in args.seeds]
        end_to_end = {}
        for name, bound in bounds.items():
            end_to_end[name] = summary(
                [run["metrics"][name]["value"] for run in runs])
            stats = end_to_end[name]
            print(f"{workload:<18}{name:<22}median {stats['median']:>11.5g}"
                  f"  spread {stats['spread']:6.1%}  bound {bound:.0%}"
                  f"{'' if stats['spread'] < bound / 3 else '  (> bound/3)'}")
        traced = bench(workload, args.seeds[0], seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "simulations_per_run": [run["attempted"] for run in runs],
            "per_layer": {name: metric["value"]
                          for name, metric in traced["metrics"].items()},
        }
    with open(args.out, "w") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
