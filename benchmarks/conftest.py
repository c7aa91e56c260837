"""Shared benchmark plumbing.

Every bench regenerates one figure/table of the paper's evaluation and
prints its rows/series to the terminal (bypassing pytest capture so the
output survives ``pytest benchmarks/ --benchmark-only | tee ...``).

Set ``REPRO_BENCH_SCALE`` to scale measurement windows: 1.0 (default)
finishes the whole suite in tens of minutes; larger values tighten the
statistics at proportional cost. Set ``REPRO_BENCH_JOBS`` to fan sweep
points out across worker processes (0 = all cores) — results are
identical to the serial run, only the wall clock changes.
"""

import json
import os
import time

import pytest

from repro.experiments.options import RunOptions
from repro.runner import default_jobs_from_env
from repro.runner.runstore import environment_info, write_json_atomic

#: Multiplier on measurement windows / request counts.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Worker processes for sweep fan-out (``REPRO_BENCH_JOBS``, default 1).
JOBS = default_jobs_from_env("REPRO_BENCH_JOBS")
#: The run options every figure bench sweeps under.
OPTIONS = RunOptions(jobs=JOBS)

#: Where :func:`bench_record` accumulates machine-readable results.
BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "BENCH_engine.json")

#: Where :func:`bench_record_shard` accumulates sharded-core results —
#: a separate artifact because sharded numbers carry their own
#: identity/tolerance contract (see docs/performance.md).
BENCH_SHARD_JSON = os.environ.get("REPRO_BENCH_SHARD_JSON", "BENCH_shard.json")

#: Companion manifest describing the run that produced ``BENCH_JSON``
#: (environment, scale/jobs knobs, wall time, recorded sections).
MANIFEST_JSON = os.environ.get("REPRO_BENCH_MANIFEST", "manifest.json")

_SESSION_START = time.time()


def _sections_of(path):
    try:
        with open(path) as fh:
            return sorted(k for k in json.load(fh) if k != "_meta")
    except (OSError, ValueError):
        return []


def pytest_sessionfinish(session, exitstatus):
    """Leave a ``manifest.json`` next to ``BENCH_engine.json`` so the CI
    artifact records *how* the numbers were produced, not just what
    they were."""
    write_json_atomic(MANIFEST_JSON, {
        "experiment": "benchmarks",
        "status": "completed" if exitstatus == 0 else f"exit={exitstatus}",
        "environment": environment_info(),
        "scale": SCALE,
        "jobs": JOBS,
        "wall_time_s": round(time.time() - _SESSION_START, 3),
        "sections": _sections_of(BENCH_JSON),
        "shard_sections": _sections_of(BENCH_SHARD_JSON),
    })


def _record_into(path: str, section: str, payload: dict) -> None:
    """Merge *payload* under *section* in the JSON artifact at *path*.

    The file accumulates across tests within a run (read-merge-write),
    giving CI one artifact with every recorded metric. Corrupt or
    missing files start fresh rather than failing the bench.
    """
    data = {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        pass
    data.setdefault(section, {}).update(payload)
    data["_meta"] = {"scale": SCALE, "jobs": JOBS}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def bench_record(section: str, payload: dict) -> None:
    """Merge *payload* under *section* in ``BENCH_engine.json``."""
    _record_into(BENCH_JSON, section, payload)


def bench_record_shard(section: str, payload: dict) -> None:
    """Merge *payload* under *section* in ``BENCH_shard.json``."""
    _record_into(BENCH_SHARD_JSON, section, payload)


def scaled(seconds: float) -> float:
    return seconds * SCALE


def scaled_n(count: int) -> int:
    return max(10, int(count * SCALE))


@pytest.fixture
def emit(capfd):
    """Print to the real terminal, bypassing pytest capture."""

    def _emit(*parts):
        with capfd.disabled():
            print(*parts, flush=True)

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Rounds/iterations stay at 1: these are whole-figure reproductions
    measured in minutes, not microbenchmarks.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def sweep_rows(pair):
    """Merge a {'sim': [...], 'real': [...]} sweep pair into table rows:
    load, sim mean/p99, real mean/p99 (ms)."""
    rows = []
    for sim_pt, real_pt in zip(pair["sim"], pair["real"]):
        rows.append([
            sim_pt.offered_qps,
            sim_pt.mean * 1e3, sim_pt.p99 * 1e3,
            real_pt.mean * 1e3, real_pt.p99 * 1e3,
        ])
    return rows


SWEEP_HEADERS = ["load QPS", "sim mean ms", "sim p99 ms",
                 "real mean ms", "real p99 ms"]


def presaturation_deviation(pair):
    """Mean |sim - real| of mean and p99 latency over pre-saturation
    points (the paper's accuracy metric, SSIV-A).

    A point is pre-saturation when both systems kept up with the
    offered load AND neither tail has left the low-load regime (p99
    within 5x of the lightest load's) — throughput alone can lag the
    knee by a point while queues are still filling the window.
    """
    sim_floor = pair["sim"][0].p99
    real_floor = pair["real"][0].p99
    mean_devs, tail_devs = [], []
    for sim_pt, real_pt in zip(pair["sim"], pair["real"]):
        if sim_pt.saturated or real_pt.saturated:
            continue
        if sim_pt.p99 > 5 * sim_floor or real_pt.p99 > 5 * real_floor:
            continue
        mean_devs.append(abs(sim_pt.mean - real_pt.mean))
        tail_devs.append(abs(sim_pt.p99 - real_pt.p99))
    if not mean_devs:
        return None, None
    return (sum(mean_devs) / len(mean_devs),
            sum(tail_devs) / len(tail_devs))
