"""Tracing overhead and export smoke.

Two guarantees of the observability layer, checked on every push:

* **Disabled tracing is free.** Worlds build with no tracer and no
  metrics registry attached, and the raw engine event rate stays
  within measurement noise of the baseline ``bench_scalability.py``
  recorded earlier in the same session (the <2% regression budget,
  widened only by the observed run-to-run noise of the machine).
* **Enabled tracing exports working artifacts.** A trace-enabled sweep
  point writes Perfetto + OTLP JSON (uploaded as a CI artifact); the
  Perfetto file must be well-formed ``trace_event`` JSON and the OTLP
  file must decode back into span-carrying traces.
"""

import json
import os
from pathlib import Path

from repro.apps import two_tier
from repro.experiments.loadsweep import measure_at_load
from repro.experiments.options import RunOptions
from repro.telemetry import TraceConfig, read_otlp

from . import conftest as bench
from .bench_scalability import raw_engine_throughput
from .conftest import bench_record, run_once, scaled

#: Where the trace-enabled sweep exports its Perfetto/OTLP artifacts.
TRACE_DIR = Path(os.environ.get("REPRO_TRACE_DIR", "trace_artifacts"))

QPS = 20_000


def test_disabled_tracing_stays_off_the_hot_path():
    world = two_tier(seed=1)
    assert world.dispatcher.tracer is None
    assert world.dispatcher.trace is False
    assert world.dispatcher.metrics is None
    for instance in world.deployment.all_instances:
        assert instance.metrics is None


def test_trace_disabled_throughput_within_noise(benchmark, emit):
    rates = run_once(
        benchmark,
        lambda: [raw_engine_throughput(100_000) for _ in range(3)],
    )
    rate = max(rates)
    spread = (max(rates) - min(rates)) / max(rates)
    # The regression budget is 2%; machines whose repeated measurements
    # disagree by more than that get the benefit of their own noise.
    tolerance = max(0.02, 2.0 * spread)
    emit("\n=== Tracing: trace-disabled engine throughput ===")
    emit(f"event loop: {rate / 1e3:.0f}k events/s "
         f"(spread {spread:.1%}, tolerance {tolerance:.1%})")
    payload = {
        "untraced_events_per_s": round(rate),
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
        # baseline measurement is that the telemetry layer is loaded.
        payload["baseline_events_per_s"] = baseline
        payload["ratio"] = round(rate / baseline, 4)
        emit(f"baseline (this session): {baseline / 1e3:.0f}k events/s "
             f"-> ratio {rate / baseline:.3f}")
        assert rate >= baseline * (1.0 - tolerance), (
            f"trace-disabled engine rate {rate:.0f}/s fell more than "
            f"{tolerance:.1%} below the session baseline {baseline:.0f}/s"
        )
    else:
        emit("no fresh BENCH_engine.json baseline in this session; "
             "recorded the measurement only")
    bench_record("tracing", payload)


def test_trace_enabled_sweep_exports_artifacts(benchmark, emit):
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    point = run_once(
        benchmark,
        measure_at_load,
        two_tier,
        QPS,
        duration=scaled(0.3),
        warmup=scaled(0.075),
        options=RunOptions(
            trace=TraceConfig(sample_rate=0.1), trace_dir=TRACE_DIR
        ),
    )
    assert point.completed > 0
    perfetto_path = TRACE_DIR / f"qps{QPS}.perfetto.json"
    otlp_path = TRACE_DIR / f"qps{QPS}.otlp.json"
    assert perfetto_path.exists() and otlp_path.exists()

    doc = json.loads(perfetto_path.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans, "trace-enabled sweep produced no span events"
    for event in spans:
        assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        assert event["dur"] >= 0

    traces = read_otlp(otlp_path)
    assert traces and all(t.spans for t in traces)

    emit("\n=== Tracing: trace-enabled sweep export ===")
    emit(f"{QPS} qps point: {point.completed} completed, "
         f"{len(traces)} traces sampled (10%), "
         f"{len(spans)} spans -> {perfetto_path}")
    bench_record("tracing", {
        "sampled_traces": len(traces),
        "exported_spans": len(spans),
        "perfetto_bytes": perfetto_path.stat().st_size,
    })
