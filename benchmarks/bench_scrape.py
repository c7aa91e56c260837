"""Scrape-loop overhead and timeline export smoke.

Two guarantees of the sim-time telemetry pipeline, checked on every
push:

* **Disabled scraping is free.** The scrape loop is just scheduled
  events; with no ``--scrape-interval`` nothing is scheduled, and the
  raw engine event rate stays within measurement noise of the baseline
  ``bench_scalability.py`` recorded earlier in the same session (the
  same <2% regression budget ``bench_tracing.py`` enforces, widened
  only by the observed run-to-run noise of the machine).
* **Enabled scraping exports a working timeline and never changes
  results.** A scrape-enabled sweep point must produce the same
  latency outcome as the scrape-off run (samples only read state and
  draw no randomness), write a schema-tagged ``timeseries.json``
  artifact (uploaded by CI), and the measured wall-clock overhead of
  the scrape loop is recorded into ``BENCH_engine.json``.
"""

import json
import os
import time
from pathlib import Path

from repro.apps import two_tier
from repro.experiments.loadsweep import measure_at_load
from repro.experiments.options import RunOptions
from repro.telemetry import load_timeline

from . import conftest as bench
from .bench_scalability import raw_engine_throughput
from .conftest import bench_record, run_once, scaled

#: Where the scrape-enabled sweep exports its timeline artifact
#: (shared with the trace artifacts so one CI upload covers both).
TRACE_DIR = Path(os.environ.get("REPRO_TRACE_DIR", "trace_artifacts"))

#: Deliberately distinct from bench_tracing's 20k point so the two
#: benches never overwrite each other's per-load export files.
QPS = 15_000

SCRAPE_INTERVAL = 0.01


def test_scrape_disabled_throughput_within_noise(benchmark, emit):
    rates = run_once(
        benchmark,
        lambda: [raw_engine_throughput(100_000) for _ in range(3)],
    )
    rate = max(rates)
    spread = (max(rates) - min(rates)) / max(rates)
    # The regression budget is 2%; machines whose repeated measurements
    # disagree by more than that get the benefit of their own noise.
    tolerance = max(0.02, 2.0 * spread)
    emit("\n=== Scrape: scrape-disabled engine throughput ===")
    emit(f"event loop: {rate / 1e3:.0f}k events/s "
         f"(spread {spread:.1%}, tolerance {tolerance:.1%})")
    payload = {
        "unscraped_events_per_s": round(rate),
        "noise_spread": round(spread, 4),
    }
    baseline = None
    try:
        fresh = os.path.getmtime(bench.BENCH_JSON) >= bench._SESSION_START
        if fresh:
            with open(bench.BENCH_JSON) as fh:
                baseline = json.load(fh)["engine"]["raw_events_per_s"]
    except (OSError, ValueError, KeyError):
        baseline = None
    if baseline is not None:
        # Same machine, same session: the only difference from the
        # baseline measurement is that the scrape module is loaded.
        payload["baseline_events_per_s"] = baseline
        payload["ratio"] = round(rate / baseline, 4)
        emit(f"baseline (this session): {baseline / 1e3:.0f}k events/s "
             f"-> ratio {rate / baseline:.3f}")
        assert rate >= baseline * (1.0 - tolerance), (
            f"scrape-disabled engine rate {rate:.0f}/s fell more than "
            f"{tolerance:.1%} below the session baseline {baseline:.0f}/s"
        )
    else:
        emit("no fresh BENCH_engine.json baseline in this session; "
             "recorded the measurement only")
    bench_record("scrape", payload)


def test_scrape_enabled_exports_timeline_without_changing_results(
    benchmark, emit
):
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    duration, warmup = scaled(0.3), scaled(0.075)

    def both():
        t0 = time.perf_counter()
        off = measure_at_load(
            two_tier, QPS, duration=duration, warmup=warmup,
        )
        t1 = time.perf_counter()
        on = measure_at_load(
            two_tier, QPS, duration=duration, warmup=warmup,
            options=RunOptions(
                scrape_interval=SCRAPE_INTERVAL, trace_dir=TRACE_DIR
            ),
        )
        t2 = time.perf_counter()
        return off, on, t1 - t0, t2 - t1

    off, on, wall_off, wall_on = run_once(benchmark, both)

    # Scraping reads state and draws no randomness: the measured
    # outcome must be identical, not merely close.
    assert on.completed == off.completed
    assert on.p99 == off.p99 and on.mean == off.mean
    assert off.timeline is None and on.timeline is not None

    timeline_path = TRACE_DIR / f"qps{QPS}.timeseries.json"
    assert timeline_path.exists()
    payload = load_timeline(timeline_path)
    series = payload["series"]
    assert "client/qps" in series and any(
        name.startswith("util/") for name in series
    )
    samples = sum(len(data["times"]) for data in series.values())
    assert samples > 0

    overhead = wall_on / wall_off if wall_off > 0 else 0.0
    emit("\n=== Scrape: scrape-enabled sweep export ===")
    emit(f"{QPS} qps point: {on.completed} completed, "
         f"{len(series)} series / {samples} samples "
         f"(interval {SCRAPE_INTERVAL}s) -> {timeline_path}")
    emit(f"wall overhead: {wall_off:.2f}s off vs {wall_on:.2f}s on "
         f"(x{overhead:.2f}, includes trace export)")
    bench_record("scrape", {
        "timeline_series": len(series),
        "timeline_samples": samples,
        "timeline_bytes": timeline_path.stat().st_size,
        "scrape_on_wall_ratio": round(overhead, 3),
    })
