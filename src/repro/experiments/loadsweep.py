"""Load-latency sweeps: the measurement harness behind every
validation figure.

The paper's methodology (SSIV): drive the application with an open-loop
client at a fixed offered load, measure mean and tail (p99) latency,
repeat across loads up to and past saturation, and compare the
simulated curve against the real system's. Here both curves come from
:func:`load_latency_sweep` — the "real" one from a world built with a
:class:`~repro.testbed.RealismConfig`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..apps.base import World
from ..errors import ReproError
from ..faults import FaultInjector, FaultPlan
from ..runner import (
    RunStore,
    derive_seed,
    durable_map,
    parallel_map,
    point_key,
    register_result_type,
)
from ..telemetry.export import write_otlp, write_perfetto
from ..telemetry.slo import SLOMonitor
from ..telemetry.tracing import TraceConfig
from ..workload import OpenLoopClient, RequestMix
from .audit import audit_client
from .options import RunOptions, SLOSpec, resolve_slos


def slo_manifest_summary(results: Sequence[Any]) -> Dict[str, Any]:
    """Aggregate per-point SLO verdicts into the ``{"slo": ...}``
    manifest block (breaches / breached points / time in breach per
    objective, summed over the points that measured it)."""
    merged: Dict[str, Dict[str, Any]] = {}
    for result in results:
        summary = getattr(result, "slo", None)
        if not summary:
            continue
        for name, verdict in summary.items():
            agg = merged.setdefault(name, {
                "breaches": 0, "points_breached": 0,
                "time_in_breach_s": 0.0, "points": 0,
            })
            agg["points"] += 1
            agg["breaches"] += verdict.get("breaches", 0)
            agg["time_in_breach_s"] += verdict.get("time_in_breach_s", 0.0)
            if verdict.get("breaches", 0):
                agg["points_breached"] += 1
    return {"slo": merged} if merged else {}


def shard_recovery_manifest_summary(results: Sequence[Any]) -> Dict[str, Any]:
    """Aggregate per-point shard-supervisor recovery reports into the
    ``{"shard_recovery": ...}`` manifest block (total restarts and
    replayed rounds, plus per-shard attribution keyed by shard id,
    summed over the points that needed recovery)."""
    total_restarts = 0
    total_replayed = 0
    per_shard: Dict[str, Dict[str, Any]] = {}
    for result in results:
        recovery = getattr(result, "shard_recovery", None)
        if not recovery:
            continue
        total_restarts += recovery.get("restarts", 0)
        total_replayed += recovery.get("replayed_rounds", 0)
        for shard, report in (recovery.get("per_shard") or {}).items():
            agg = per_shard.setdefault(str(shard), {
                "restarts": 0, "replayed_rounds": 0, "failures": [],
            })
            agg["restarts"] += report.get("restarts", 0)
            agg["replayed_rounds"] += report.get("replayed_rounds", 0)
            agg["failures"].extend(report.get("failures", ()))
    if not total_restarts:
        return {}
    return {"shard_recovery": {
        "restarts": total_restarts,
        "replayed_rounds": total_replayed,
        "per_shard": per_shard,
    }}


def shard_sync_manifest_summary(results: Sequence[Any]) -> Dict[str, Any]:
    """Aggregate per-point coordinator counters into the
    ``{"shard_sync": ...}`` manifest block (rounds / messages / stalls
    / restarts plus the merged straggler ranking and per-shard restart
    attribution). Points ride the counters as a non-declared
    ``shard_sync`` attribute, so points resumed from a journal simply
    don't contribute."""
    totals = {
        "points": 0, "rounds": 0, "messages_exchanged": 0,
        "stalls": 0, "restarts": 0,
    }
    straggler: Dict[str, int] = {}
    per_shard_restarts: Dict[str, int] = {}
    shards = 0
    mode = None
    for result in results:
        sync = getattr(result, "shard_sync", None)
        if not sync:
            continue
        totals["points"] += 1
        totals["rounds"] += sync.get("rounds", 0)
        totals["messages_exchanged"] += sync.get("messages_exchanged", 0)
        totals["stalls"] += sync.get("stalls", 0)
        totals["restarts"] += sync.get("restarts", 0)
        shards = max(shards, sync.get("shards", 0))
        mode = sync.get("mode", mode)
        for shard, count in (sync.get("straggler_rounds") or {}).items():
            straggler[str(shard)] = straggler.get(str(shard), 0) + count
        for shard, count in (sync.get("per_shard_restarts") or {}).items():
            per_shard_restarts[str(shard)] = (
                per_shard_restarts.get(str(shard), 0) + count
            )
    if not totals["points"]:
        return {}
    block: Dict[str, Any] = dict(totals, shards=shards, mode=mode)
    if straggler:
        block["straggler_rounds"] = straggler
    if per_shard_restarts:
        block["per_shard_restarts"] = per_shard_restarts
    return {"shard_sync": block}


def _combined_manifest_extra(
    *summaries: Callable[[Sequence[Any]], Dict[str, Any]],
) -> Callable[[Sequence[Any]], Dict[str, Any]]:
    """Merge several manifest-summary callables into one."""

    def extra(results: Sequence[Any]) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for summary in summaries:
            merged.update(summary(results))
        return merged

    return extra


@register_result_type
@dataclass
class SweepPoint:
    """Measurements at one offered load."""

    offered_qps: float
    throughput: float  # completed per second in the window
    mean: float  # seconds
    p50: float
    p95: float
    p99: float
    completed: int
    #: Per-SLO verdicts (:meth:`SLOMonitor.summary`) when the point ran
    #: with ``--slo`` objectives; ``None`` otherwise. Optional with a
    #: default so journals written before SLOs existed still decode.
    slo: Optional[Dict[str, dict]] = None
    #: Shard-supervisor recovery report (restarts / replayed_rounds /
    #: per-shard attribution) when worker processes had to be rebuilt
    #: mid-run; ``None`` for unsharded or fault-free points, which
    #: keeps an unfaulted sharded point equal to its vanilla twin and
    #: lets journals written before supervision existed still decode.
    shard_recovery: Optional[dict] = None
    #: The point's ``timeseries.json`` document
    #: (:func:`repro.telemetry.scrape.timeline_payload`) when it ran
    #: with ``--scrape-interval``; ``None`` otherwise, so scrape-off
    #: points stay equal to points measured before scraping existed
    #: and old journals still decode.
    timeline: Optional[dict] = None

    @property
    def slo_breaches(self) -> int:
        """Total breach alerts across the point's objectives."""
        if not self.slo:
            return 0
        return sum(v.get("breaches", 0) for v in self.slo.values())

    @property
    def saturated(self) -> bool:
        """Heuristic: completions fell >10% short of the offered load."""
        return self.throughput < 0.9 * self.offered_qps

    def row(self) -> list:
        """Table row: load, throughput, mean/p99 in ms."""
        return [
            self.offered_qps,
            round(self.throughput, 1),
            self.mean * 1e3,
            self.p99 * 1e3,
        ]


def shard_journal_name(derived_seed: int) -> str:
    """Per-point replay-journal filename, keyed by the derived seed.

    The seed is derived from the full float load
    (:func:`~repro.runner.derive_seed`), so distinct points can never
    collide — unlike the old ``qps%g`` naming, where e.g. 1000000.0
    and 1000000.4 both formatted as ``qps1e+06``.
    """
    return f"shard_journal_seed{derived_seed}.jsonl"


def find_shard_journal(
    shard_journal_dir: Union[str, Path],
    derived_seed: int,
    qps: Optional[float] = None,
) -> Optional[Path]:
    """Locate a point's replay journal, old or new naming.

    Prefers the seed-keyed name; falls back to the legacy
    ``shard_journal_qps{qps:g}.jsonl`` name (journals written before
    the seed keying) when *qps* is given. Returns ``None`` when
    neither exists.
    """
    base = Path(shard_journal_dir)
    path = base / shard_journal_name(derived_seed)
    if path.exists():
        return path
    if qps is not None:
        legacy = base / f"shard_journal_qps{qps:g}.jsonl"
        if legacy.exists():
            return legacy
    return None


def measure_at_load(
    build_world: Callable[..., World],
    qps: float,
    duration: float = 1.0,
    warmup: float = 0.25,
    mix: Optional[RequestMix] = None,
    seed: int = 1,
    options: RunOptions = RunOptions(),
    **world_kwargs,
) -> SweepPoint:
    """Build a fresh world, drive it at *qps* for *duration* seconds,
    and report statistics over the post-warmup window.

    The world is rebuilt per point so measurements are independent; the
    seed is derived from the full float load via
    :func:`~repro.runner.derive_seed`, so even close loads (50.2 vs
    50.9 QPS) are decorrelated while the whole sweep stays
    reproducible — and the derivation is per-point, so a sweep gives
    identical results whether its points run serially or fanned out
    across processes.

    This is where *options* unpack into the per-point knobs of
    :func:`measure_vanilla_point` (or, with ``shards > 1``, of the
    builder's sharded runner): ``fault_plan`` is armed against the
    freshly-built world before the clock starts, ``audit`` runs the
    request conservation check after the window, ``slo`` objectives
    ride the returned point's ``slo`` field, and traces export to
    ``trace_dir`` as Perfetto and OTLP JSON named after the offered
    load. Tracing draws from its own named RNG stream, so the measured
    numbers are identical with or without it.
    """
    if warmup >= duration:
        raise ReproError(
            f"warmup ({warmup}) must be shorter than duration ({duration})"
        )
    derived = derive_seed(seed, float(qps))
    if options.shards == 1:
        return measure_vanilla_point(
            build_world, qps, duration, warmup, derived,
            mix=mix, fault_plan=options.fault_plan, audit=options.audit,
            trace=options.point_trace, trace_dir=options.trace_dir,
            slo=options.slo or None,
            scrape_interval=options.scrape_interval, **world_kwargs,
        )
    # The sharded core replaces the whole build-world/client/run
    # pipeline, so it is an opt-in capability of the *builder*: models
    # advertise it by attaching a ``sharded_runner`` callable (see
    # repro.experiments.tail_at_scale). Anything else fails loudly
    # rather than silently measuring unsharded.
    runner = getattr(build_world, "sharded_runner", None)
    if runner is None:
        raise ReproError(
            f"builder {getattr(build_world, '__name__', build_world)!r} "
            f"has no sharded runner; only topologies ported to "
            f"repro.shard support shards > 1 (run with shards=1)"
        )
    # Telemetry knobs are forwarded only when the runner declares them
    # (adapter-based runners carry ``supported_telemetry``; the
    # hand-written fan-out runner carries none). A knob is "requested"
    # only when it would actually do something.
    supported = frozenset(getattr(runner, "supported_telemetry", ()))
    requested = {
        "mix": mix is not None,
        "trace": options.trace_dir is not None,
        "trace_dir": options.trace_dir is not None,
        "slo": bool(options.slo),
        "scrape": options.scrape_interval is not None,
    }
    blocked = [
        name for name, active in requested.items()
        if active and name not in supported
    ]
    if blocked:
        raise ReproError(
            f"this sharded runner does not support "
            f"{', '.join(blocked)}; run those with shards=1"
        )
    telemetry = {
        name: value
        for name, value in (
            ("mix", mix), ("trace", options.point_trace),
            ("trace_dir", options.trace_dir), ("slo", options.slo or None),
        )
        if name in supported
    }
    if "scrape" in supported:
        # The knob is named "scrape" (capability-wise) but the runner
        # kwarg carries the interval itself.
        telemetry["scrape_interval"] = options.scrape_interval
    journal_dir = options.shard_journal_dir
    return runner(
        qps=qps,
        duration=duration,
        warmup=warmup,
        seed=derived,
        shards=options.shards,
        audit=options.audit,
        fault_plan=options.fault_plan,
        shard_timeout=options.shard_timeout,
        shard_restarts=options.shard_restarts,
        journal_path=(
            None if journal_dir is None
            else journal_dir / shard_journal_name(derived)
        ),
        **telemetry,
        **world_kwargs,
    )


def measure_vanilla_point(
    build_world: Callable[..., World],
    qps: float,
    duration: float,
    warmup: float,
    derived_seed: int,
    *,
    mix: Optional[RequestMix] = None,
    fault_plan: Optional[FaultPlan] = None,
    audit: bool = False,
    trace: Union[bool, TraceConfig] = False,
    trace_dir: Optional[Union[str, Path]] = None,
    slo: Optional[SLOSpec] = None,
    scrape_interval: Optional[float] = None,
    **world_kwargs,
) -> SweepPoint:
    """The raw single-simulator measurement behind one sweep point.

    Split out of :func:`measure_at_load` so the sharded adapter's
    planner fallback (:func:`repro.shard.adapter.sharded_load_point`)
    can run the *identical* code path with the *identical*
    already-derived seed — which is what makes ``shards=1`` trivially
    bit-identical to vanilla. Callers are expected to have done the
    shard/tuning guard checks (:class:`RunOptions` does them for
    :func:`measure_at_load`); *derived_seed* is used as-is.
    """
    if trace_dir is not None and not trace:
        trace = True
    world = build_world(seed=derived_seed, **world_kwargs)
    if trace:
        world.dispatcher.trace = trace
    if fault_plan is not None:
        FaultInjector(
            world.sim, world.deployment, world.cluster.network, fault_plan
        ).arm()
    client = OpenLoopClient(
        world.sim,
        world.dispatcher,
        arrivals=qps,
        mix=mix,
        stop_at=duration,
        realism=world.realism,
    )
    slos = resolve_slos(slo, window=max(0.05, min(1.0, duration - warmup)))
    slo_monitor = None
    if slos:
        slo_monitor = SLOMonitor(
            world.sim, slos, interval=max(duration / 100.0, 0.005)
        )
        slo_monitor.attach(client)
        slo_monitor.start(stop_at=duration)
    scraper = None
    if scrape_interval is not None:
        from ..telemetry.metrics import MetricsRegistry
        from ..telemetry.scrape import Scraper, scrape_tiers

        registry = MetricsRegistry()
        registry.instrument_world(world)
        scraper = Scraper(
            world.sim,
            interval=scrape_interval,
            tiers=scrape_tiers(world.deployment),
            client=client,
            registry=registry,
            stop_at=duration,
        ).start()
    clock_start = world.sim.now
    client.start()
    world.sim.run(until=duration)
    if audit:
        audit_client(
            client, world.sim, dispatcher=world.dispatcher,
            clock_start=clock_start,
        )
    timeline = None
    scrape_series = None
    if scraper is not None:
        from ..telemetry.scrape import timeline_payload

        scrape_series = scraper.snapshot()
        timeline = timeline_payload(
            scrape_series,
            interval=scrape_interval,
            meta={
                "qps": qps, "duration": duration, "warmup": warmup,
                "seed": derived_seed, "shards": 1,
            },
        )
    if trace and trace_dir is not None:
        traces = world.dispatcher.tracer.traces
        base = Path(trace_dir)
        base.mkdir(parents=True, exist_ok=True)
        stem = f"qps{qps:g}"
        write_perfetto(base / f"{stem}.perfetto.json", traces,
                       counters=scrape_series)
        write_otlp(base / f"{stem}.otlp.json", traces)
    if timeline is not None and trace_dir is not None:
        from ..telemetry.scrape import write_timeline

        base = Path(trace_dir)
        base.mkdir(parents=True, exist_ok=True)
        write_timeline(base / f"qps{qps:g}.timeseries.json", timeline)

    slo_summary = (
        slo_monitor.summary() if slo_monitor is not None else None
    )
    recorder = client.latencies
    completed = recorder.count(since=warmup, until=duration)
    if completed == 0:
        # Fully wedged system: report the offered load with infinite-ish
        # latency markers rather than crashing the sweep.
        return SweepPoint(qps, 0.0, float("inf"), float("inf"), float("inf"),
                          float("inf"), 0, slo=slo_summary,
                          timeline=timeline)
    window = (warmup, duration)
    return SweepPoint(
        offered_qps=qps,
        throughput=recorder.throughput(*window),
        mean=recorder.mean(since=warmup, until=duration),
        p50=recorder.percentile(50, since=warmup, until=duration),
        p95=recorder.percentile(95, since=warmup, until=duration),
        p99=recorder.percentile(99, since=warmup, until=duration),
        completed=completed,
        slo=slo_summary,
        timeline=timeline,
    )


def _config_token(value: Any) -> Any:
    """A deterministic, hashable stand-in for a config value.

    Primitives pass through; everything else (distributions, realism
    configs, fault plans, request mixes) contributes its ``repr``,
    which is deterministic for all of them — unlike a pickle, which
    could differ between interpreter versions and silently invalidate
    every journaled key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_config_token(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _config_token(v) for k, v in value.items()}
    return repr(value)


def sweep_config(**settings: Any) -> Dict[str, Any]:
    """The code-relevant config dict a sweep hashes into its point
    keys and records in its manifest."""
    return {key: _config_token(value) for key, value in sorted(settings.items())}


def run_sweep(
    point: Callable[[Any], Any],
    items: Sequence[Any],
    options: RunOptions,
    *,
    experiment: str,
    config: Dict[str, Any],
    keys: Sequence[str],
    seeds: Sequence[int],
) -> List[Any]:
    """Map *point* over *items* the way *options* asks.

    Without ``run_dir`` that is a plain :func:`~repro.runner.parallel_map`
    fan-out. With it, every completed point is journaled under its
    content key (*keys*, hashed from *experiment*, the point, its seed
    and the sweep *config*) and ``resume=True`` reuses journaled points
    instead of recomputing them, so a killed sweep restarted with the
    same arguments computes exactly the missing points. SLO verdicts
    and shard recovery/sync counters fold into the manifest.
    """
    if options.run_dir is None:
        return parallel_map(
            point, items, jobs=options.jobs, retries=options.retries,
            timeout=options.timeout,
        )
    summaries = (
        [shard_recovery_manifest_summary, shard_sync_manifest_summary]
        if options.shards > 1 else []
    )
    if options.slo:
        summaries.append(slo_manifest_summary)
    return durable_map(
        point, items,
        store=RunStore(options.run_dir, experiment, config=config),
        keys=keys, seeds=seeds, resume=options.resume, jobs=options.jobs,
        retries=options.retries, timeout=options.timeout,
        manifest_extra=(
            _combined_manifest_extra(*summaries) if summaries else None
        ),
    )


def load_latency_sweep(
    build_world: Callable[..., World],
    loads: Sequence[float],
    duration: float = 1.0,
    warmup: float = 0.25,
    mix: Optional[RequestMix] = None,
    seed: int = 1,
    experiment: str = "load_latency",
    options: RunOptions = RunOptions(),
    **world_kwargs,
) -> List[SweepPoint]:
    """One :func:`measure_at_load` per offered load, ascending.

    With ``options.jobs > 1`` the points run in parallel worker
    processes (each point already builds its own world from its own
    derived seed, so the results are identical to the serial run).
    *build_world* and *mix* must then be picklable — every builder in
    :mod:`repro.apps` is.

    With ``options.run_dir`` set, points journal under keys covering
    (*experiment*, the offered load, the derived seed, the sweep
    config) — see :func:`run_sweep` — and, because seeds are derived
    per point, a resumed sweep merges into a result byte-identical to
    an uninterrupted run. Every other knob threads through to each
    point; the sweep config takes :meth:`RunOptions.journal_config`.
    """
    loads = sorted(loads)
    point = functools.partial(
        measure_at_load, build_world, duration=duration, warmup=warmup,
        mix=mix, seed=seed, options=options, **world_kwargs,
    )
    config = sweep_config(
        builder=getattr(build_world, "__name__", repr(build_world)),
        duration=duration,
        warmup=warmup,
        mix=mix,
        fault_plan=options.fault_plan,
        **options.journal_config(),
        **world_kwargs,
    )
    seeds = [derive_seed(seed, float(qps)) for qps in loads]
    keys = [
        point_key(experiment, {"qps": float(qps)}, derived, config)
        for qps, derived in zip(loads, seeds)
    ]
    return run_sweep(
        point, loads, options, experiment=experiment, config=config,
        keys=keys, seeds=seeds,
    )


def saturation_load(
    points: Sequence[SweepPoint],
    p99_limit: Optional[float] = None,
) -> float:
    """The highest offered load the system sustained.

    A point counts as sustained when throughput kept up with the
    offered load and (optionally) p99 stayed under *p99_limit* seconds.
    Returns 0.0 when even the lightest load saturated.
    """
    sustained = 0.0
    for point in sorted(points, key=lambda p: p.offered_qps):
        if point.saturated:
            break
        if p99_limit is not None and point.p99 > p99_limit:
            break
        sustained = point.offered_qps
    return sustained
