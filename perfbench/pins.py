"""Pin the output digests the benchmark checks every run against.

Usage (from the repository root)::

    python3 perfbench/pins.py [--seeds 0-20] [--workload NAME ...]

Runs one plain simulation per workload and seed and writes the digests
to ``pins.json``, keeping pins of other workloads and seeds. A change
meant only to speed the simulator up must leave every pin unchanged; a
change that moves one must say why and re-pin.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import PINS, WORKLOAD_NAMES, run_session


def parse_seeds(text: str) -> list:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20", type=parse_seeds)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in args.workload or WORKLOAD_NAMES:
        table = pins.setdefault(workload, {})
        for seed in args.seeds:
            table[str(seed)] = run_session(
                workload, seed, "plain", 0.0)["sims"][0]["digest"]
            print(f"{workload} seed {seed}: {table[str(seed)]}")
        pins[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
