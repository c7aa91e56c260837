"""The simulator's benchmark: host cost per simulated request.

Usage (from the repository root)::

    python3 perfbench/run.py --workload social4k --seed 1 --seconds 35 --trace 0

Runs the workload's seeded simulation (:mod:`workloads`) over and over
for ``--seconds`` of host time, in a few fresh processes (sessions,
:mod:`rep`) that each set up once and then simulate repeatedly.

``--trace 0`` reports the end-to-end metrics, measured with tracing
off: ``host_us_per_request`` (host wall time of the simulation run per
simulated request completed, each slice of the run scaled to the
reference kernel's nominal speed (:mod:`reference`), median over the
run's timed simulations), ``setup_s`` (process start to the first
simulated event, median over sessions) and ``peak_rss_mb`` (after a
session's warm-up simulation, median over sessions). ``--trace 1``
alternates plain and traced sessions and reports the per-layer metrics
of :data:`PER_LAYER`, with a reconciled self-time table.

Every simulation must pass the conservation audit, and all simulations
of a run must produce the same output digest. When ``pins.json`` holds
a digest for the workload and seed, the run must reproduce it; a seed
without a pin runs with the audit and the repeatability check only.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where an attempt is
one simulation. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
from workloads import SINGLE_PROCESS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

WORKLOAD_NAMES = ("fanout500", "social4k", "lb16_overload",
                  "social4k_shards2")

#: Sessions per run: each is a fresh process with one set-up, then
#: simulations until its share of the run is up. A traced run
#: alternates plain and traced sessions, TRACED_SESSIONS of each.
SESSIONS = 4
TRACED_SESSIONS = 2
#: A session running this long past its budget has hung.
SESSION_GRACE_S = 60.0

#: Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = ("engine.events", "dispatcher.node_visits",
                "queues.has_ready_calls", "sampling.draws")

PER_LAYER = {
    "engine.self_us_per_req": "us/req",
    "engine.events_per_req": "count/req",
    "engine.events_per_s": "1/s",
    "engine.cancels_per_req": "count/req",
    "dispatcher.self_us_per_req": "us/req",
    "dispatcher.node_visits_per_req": "count/req",
    "dispatcher.hops_per_req": "count/req",
    "service.self_us_per_req": "us/req",
    "service.jobs_per_req": "count/req",
    "service.batch_starts_per_req": "count/req",
    "queues.self_us_per_req": "us/req",
    "queues.has_ready_calls_per_req": "count/req",
    "queues.has_ready_true_share": "ratio",
    "queues.ready_count_calls_per_req": "count/req",
    "sampling.self_us_per_req": "us/req",
    "sampling.draws_per_req": "count/req",
    "hardware.self_us_per_req": "us/req",
    "hardware.core_acquire_fail_share": "ratio",
    "hardware.delay_draws_per_req": "count/req",
    "workload.self_us_per_req": "us/req",
    "telemetry.self_us_per_req": "us/req",
    "gc.pause_us_per_req": "us/req",
    "gc.collections_per_req": "count/req",
    "shard.self_us_per_req": "us/req",
    "shard.rounds_per_req": "count/req",
    "shard.messages_per_req": "count/req",
    "shard.straggler_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class SessionFailed(Exception):
    """A session's process exited non-zero."""


def run_session(workload: str, seed: int, mode: str, budget_s: float) -> dict:
    """One session (:mod:`rep`) in a fresh interpreter; its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed), mode,
         repr(t0), repr(budget_s)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=budget_s + SESSION_GRACE_S,
    )
    if proc.returncode != 0:
        raise SessionFailed(
            f"{workload} seed {seed} ({mode}) exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merged_tallies(sim: dict) -> dict:
    """The layer tallies of one traced simulation, summed over its shard
    workers, without the time outside the measured region."""
    merged = {"self_s": Counter(), "counts": Counter(), "entries": Counter(),
              "wall_s": 0.0}
    for tallies in sim["layers"]:
        for key in ("self_s", "counts", "entries"):
            merged[key].update(tallies[key])
        merged["wall_s"] += tallies["wall_s"]
    merged["self_s"].pop("outside", None)
    return merged


def per_layer(sim: dict, plain_wall_s: float, traced_wall_s: float) -> dict:
    """The :data:`PER_LAYER` metrics of one traced simulation."""
    tallies = merged_tallies(sim)
    self_s = tallies["self_s"]
    counts = tallies["counts"]
    counts["engine.events"] = sim["events"]
    req = sim["completed"]
    shard = sim["shard"] or {"rounds": 0, "messages": 0,
                             "straggler_rounds": {}}

    def per_req(key: str) -> float:
        return counts[key] / req

    def share(hits: str, calls: str) -> float:
        return counts[hits] / max(counts[calls], 1)

    metrics = {
        f"{layer}.self_us_per_req": self_s[layer] * 1e6 / req
        for layer in ("engine", "dispatcher", "service", "queues",
                      "sampling", "hardware", "workload", "telemetry",
                      "shard")
    }
    metrics.update({
        "engine.events_per_req": per_req("engine.events"),
        "engine.events_per_s": sim["events"] / plain_wall_s,
        "engine.cancels_per_req": per_req("engine.cancels"),
        "dispatcher.node_visits_per_req": per_req("dispatcher.node_visits"),
        "dispatcher.hops_per_req": per_req("dispatcher.hops"),
        "service.jobs_per_req": per_req("service.jobs"),
        "service.batch_starts_per_req": per_req("service.batch_starts"),
        "queues.has_ready_calls_per_req": per_req("queues.has_ready_calls"),
        "queues.has_ready_true_share": share(
            "queues.has_ready_true", "queues.has_ready_calls"),
        "queues.ready_count_calls_per_req":
            per_req("queues.ready_count_calls"),
        "sampling.draws_per_req": per_req("sampling.draws"),
        "hardware.core_acquire_fail_share": 1.0 - share(
            "hardware.core_acquired", "hardware.core_acquires"),
        "hardware.delay_draws_per_req": per_req("hardware.delay_draws"),
        "gc.pause_us_per_req": self_s["gc"] * 1e6 / req,
        "gc.collections_per_req": per_req("gc.collections"),
        "shard.rounds_per_req": shard["rounds"] / req,
        "shard.messages_per_req": shard["messages"] / req,
        "shard.straggler_share": (
            max(shard["straggler_rounds"].values(), default=0)
            / max(shard["rounds"], 1)
        ),
        "trace.overhead_ratio": traced_wall_s / plain_wall_s,
    })
    exact = {key: counts[key] for key in EXACT_COUNTS}
    return metrics, exact


def layer_table(sim: dict) -> str:
    """Self time, share of the traced wall time and layer entries
    (handlers plus wrapped calls) per request, for one traced
    simulation."""
    tallies = merged_tallies(sim)
    self_s, entries, wall = (tallies["self_s"], tallies["entries"],
                             tallies["wall_s"])
    req = sim["completed"]
    lines = [f"{'layer':<11}{'self us/req':>13}{'share':>8}"
             f"{'entries/req':>13}"]
    for layer, seconds in self_s.most_common():
        lines.append(
            f"{layer:<11}{seconds * 1e6 / req:>13.1f}"
            f"{seconds / wall:>8.1%}{entries[layer] / req:>13.1f}"
        )
    lines.append(f"{'= wall':<11}{wall * 1e6 / req:>13.1f}"
                 f"{sum(self_s.values()) / wall:>8.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    if args.workload in SINGLE_PROCESS:
        # The host's cores speed up and slow down independently. Every
        # session stays on one core from its start, so set-up times are
        # alike and the kernel's samples time the slices' own core.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pinned = pins.get(args.workload, {}).get(str(args.seed))
    modes = ("plain", "traced") if args.trace else ("plain",)
    rounds = TRACED_SESSIONS if args.trace else SESSIONS
    budget = args.seconds / (rounds * len(modes))
    sessions = {mode: [] for mode in modes}
    try:
        for _ in range(rounds):
            for mode in modes:
                sessions[mode].append(
                    run_session(args.workload, args.seed, mode, budget))
    except (SessionFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sims = {mode: [sim for session in sessions[mode]
                   for sim in session["sims"]] for mode in modes}

    every = [sim for mode in modes for sim in sims[mode]]
    digests = [sim["digest"] for sim in every]
    expected = pinned or digests[0]
    failed = sum(d != expected for d in digests)
    if failed:
        print(f"digest mismatch on {args.workload} seed {args.seed}: "
              f"expected {expected}, got "
              f"{sorted(set(d for d in digests if d != expected))}",
              file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(every)} simulations in "
          f"{rounds * len(modes)} sessions, digest {digests[0][:16]}"
          f"{' (pinned)' if pinned else ' (no pin for this seed)'}")

    plain = sims["plain"]
    if args.trace:
        traced = sims["traced"]
        plain_wall = statistics.median(sim["wall_s"] for sim in plain)
        traced_wall = statistics.median(sim["wall_s"] for sim in traced)
        layer_runs, exact = zip(*(per_layer(sim, plain_wall, traced_wall)
                                  for sim in traced))
        if any(c != exact[0] for c in exact):
            print(f"error: exact counts differ across traced simulations "
                  f"of one seed: {exact}", file=sys.stderr)
            failed += 1
        print(layer_table(sorted(traced, key=lambda sim: sim["wall_s"])
                          [len(traced) // 2]))
        metrics = {
            name: {"value": statistics.median(run[name] for run in layer_runs),
                   "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        timed = [sim for sim in plain if not sim.get("warm_up")]
        raw_us = statistics.median(
            sim["wall_s"] * 1e6 / sim["completed"] for sim in timed)
        kernel_ms = statistics.median(
            sim["wall_s"] / sim["nominal_wall_s"] for sim in timed
        ) * reference.NOMINAL_S * 1e3
        print(f"  {'raw wall time (not normalised)':<34}{raw_us:>14.6g} us"
              f" (reference kernel {kernel_ms:.2f} ms, nominal "
              f"{reference.NOMINAL_S * 1e3:.2f} ms)")
        metrics = {
            "host_us_per_request": {
                "value": statistics.median(
                    sim["nominal_wall_s"] * 1e6 / sim["completed"]
                    for sim in timed),
                "unit": "us",
            },
            "setup_s": {
                "value": statistics.median(
                    session["setup_s"] for session in sessions["plain"]),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(
                    session["rss_mb"] for session in sessions["plain"]),
                "unit": "MB",
            },
        }
    for name, metric in metrics.items():
        print(f"  {name:<34}{metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
