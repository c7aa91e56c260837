"""Command-line interface.

::

    python -m repro run <spec-dir> [--seed N] [--until S] [--real]
        [--trace] [--trace-sample R] [--trace-dir DIR]
        [--slo SPEC ...] [--scrape-interval S] [--profile]
    python -m repro experiments list
    python -m repro experiments run <exp-id> [--seed N] [--jobs N]
        [--run-dir DIR] [--no-resume] [--audit] [--fault-plan FILE]
        [--trace-dir DIR] [--trace-sample R] [--slo SPEC ...]
        [--scrape-interval S]
        [--shards N] [--shard-timeout S] [--shard-restarts N]
    python -m repro analyze <trace-dir> [--percentiles LIST] [--top K]
        [--timeline]

``run`` loads a Table I spec directory (machines.json, services/,
graph.json, path.json, client.json, optional faults.json), simulates
it, and prints the end-to-end latency summary. ``experiments`` exposes
the figure/table registry; ``--run-dir`` journals completed sweep
points so a killed run resumes where it stopped (see
docs/operations.md). ``--trace``/``--trace-dir`` record per-request
spans and export them as Perfetto and OTLP JSON (see
docs/observability.md). ``--slo`` attaches live objectives
(``p99<5ms``, ``avail>99.9%``) evaluated on the simulation clock;
``--profile`` times event handlers; ``--scrape-interval`` samples
per-tier utilisation/queue-depth and client QPS/p99 into sim-time
timelines exported as ``timeseries.json`` + Perfetto counter tracks
(see docs/observability.md); ``analyze`` rebuilds the full analytics
report offline from exported OTLP trace files, and with ``--timeline``
also renders exported timeline artifacts (per-tier utilisation over
time, shard straggler ranking).

Exit codes: 0 on success, 2 on configuration/simulation errors
(:class:`~repro.errors.ReproError`, printed as a one-line message),
130 on Ctrl-C — the journal and manifest are already flushed by the
time the process exits, so an interrupted ``--run-dir`` sweep is
resumable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    analyze_traces,
    format_timeline_report,
    load_timelines,
    load_traces,
)
from .config import SimulationSpec
from .engine import EngineProfiler
from .errors import ReproError
from .experiments import registry
from .experiments.options import RunOptions
from .faults import load_fault_plan
from .telemetry import (
    MetricsRegistry,
    Scraper,
    SLOMonitor,
    TraceConfig,
    format_analytics_report,
    format_run_manifest,
    format_table,
    ms,
    parse_slo,
    scrape_tiers,
    timeline_payload,
    write_otlp,
    write_perfetto,
    write_timeline,
)
from .testbed import RealismConfig


def _cmd_run(args: argparse.Namespace) -> int:
    spec = SimulationSpec.load(args.spec_dir)
    realism = RealismConfig() if args.real else None
    world, client = spec.build(seed=args.seed, realism=realism)
    if client is None:
        print("spec has no client.json; nothing to drive", file=sys.stderr)
        return 2
    tracing = args.trace or args.trace_dir is not None
    if tracing:
        world.dispatcher.trace = TraceConfig(sample_rate=args.trace_sample)
    slo_monitor = None
    if args.slo:
        window = (
            min(1.0, args.until) if args.until is not None else 1.0
        )
        slos = [parse_slo(spec_str, window=window) for spec_str in args.slo]
        interval = (
            max(args.until / 100.0, 0.005)
            if args.until is not None else 0.01
        )
        slo_monitor = SLOMonitor(world.sim, slos, interval=interval)
        slo_monitor.attach(client)
        slo_monitor.start(stop_at=args.until)
    scraper = None
    if args.scrape_interval is not None:
        metrics = MetricsRegistry()
        metrics.instrument_world(world)
        scraper = Scraper(
            world.sim,
            interval=args.scrape_interval,
            tiers=scrape_tiers(world.deployment),
            client=client,
            registry=metrics,
            stop_at=args.until,
        ).start()
    if args.profile:
        world.sim.profiler = EngineProfiler()
    client.start()
    world.sim.run(until=args.until)
    if client.requests_ok == 0:
        print("no requests completed ok; raise --until or the client's "
              "stop_at/max_requests", file=sys.stderr)
        return 1
    lat = client.latencies
    rows = [
        ["requests sent", client.requests_sent],
        ["requests ok", client.requests_ok],
    ]
    # Only surface error rows when something actually went wrong (fault
    # plans / resilience policies); fault-free runs keep the old shape.
    for outcome in ("timeout", "shed", "failed"):
        count = client.outcomes.get(outcome, 0)
        if count:
            rows.append([f"requests {outcome}", count])
    rows += [
        ["simulated time (s)", round(world.sim.now, 4)],
        ["events processed", world.sim.events_processed],
        ["mean latency (ms)", ms(lat.mean())],
        ["p50 (ms)", ms(lat.p50())],
        ["p95 (ms)", ms(lat.p95())],
        ["p99 (ms)", ms(lat.p99())],
    ]
    timeline = None
    scrape_series = None
    if scraper is not None:
        scrape_series = scraper.snapshot()
        meta = {"spec": str(args.spec_dir), "seed": args.seed}
        if args.until is not None:
            meta["duration"] = args.until
        timeline = timeline_payload(
            scrape_series, interval=args.scrape_interval, meta=meta
        )
        rows.append(["timeline series", len(scrape_series)])
    if tracing:
        tracer = world.dispatcher.tracer
        rows.append(["traces sampled", len(tracer.traces)])
        if args.trace_dir is not None:
            base = Path(args.trace_dir)
            base.mkdir(parents=True, exist_ok=True)
            write_perfetto(base / "trace.perfetto.json", tracer.traces,
                           counters=scrape_series)
            write_otlp(base / "trace.otlp.json", tracer.traces)
            rows.append(["trace dir", str(base)])
    if timeline is not None and args.trace_dir is not None:
        base = Path(args.trace_dir)
        base.mkdir(parents=True, exist_ok=True)
        write_timeline(base / "timeseries.json", timeline)
        rows.append(["timeline artifact", str(base / "timeseries.json")])
    print(format_table(
        ["metric", "value"],
        rows,
        title=f"uqSim run of {args.spec_dir}"
              + (" [real-system surrogate]" if args.real else ""),
    ))
    if tracing or slo_monitor is not None or args.profile:
        analytics = None
        if tracing and world.dispatcher.tracer.traces:
            analytics = analyze_traces(world.dispatcher.tracer.traces)
        print()
        print(format_analytics_report(
            analytics,
            slo=slo_monitor.summary() if slo_monitor is not None else None,
            profile=(
                world.sim.profiler.summary() if args.profile else None
            ),
        ))
    if timeline is not None:
        print()
        print(format_timeline_report(timeline, name=str(args.spec_dir)))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.action == "list":
        rows = [
            [spec.exp_id, spec.paper_ref, spec.title]
            for spec in registry.all_experiments()
        ]
        print(format_table(["id", "paper", "title"], rows))
        return 0
    try:
        spec = registry.get(args.exp_id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    options = RunOptions(
        jobs=args.jobs,
        run_dir=args.run_dir,
        resume=args.resume,
        audit=args.audit,
        fault_plan=(
            None if args.fault_plan is None
            else load_fault_plan(args.fault_plan)
        ),
        trace=(
            None if args.trace_sample is None
            else TraceConfig(sample_rate=args.trace_sample)
        ),
        trace_dir=args.trace_dir,
        slo=tuple(args.slo),
        scrape_interval=args.scrape_interval,
        shards=args.shards,
        shard_timeout=args.shard_timeout,
        shard_restarts=args.shard_restarts,
    )
    print(f"running {spec.exp_id} ({spec.paper_ref}): {spec.title} ...")
    kwargs = {} if args.seed is None else {"seed": args.seed}
    result = spec.run(options, **kwargs)
    print(repr(result))
    if args.run_dir is not None:
        manifest_path = Path(args.run_dir) / "manifest.json"
        if manifest_path.exists():
            print(format_run_manifest(json.loads(manifest_path.read_text())))
    if args.trace_dir is not None:
        analytics = analyze_traces(load_traces(args.trace_dir))
        print()
        print(format_analytics_report(analytics))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    percentiles = tuple(float(q) for q in args.percentiles.split(","))
    first = True
    if args.timeline:
        base = Path(args.trace_dir)
        for path, payload in load_timelines(base):
            try:
                label = str(path.relative_to(base))
            except ValueError:
                label = str(path)
            if not first:
                print()
            print(format_timeline_report(payload, name=label))
            first = False
    try:
        traces = load_traces(args.trace_dir)
    except ReproError:
        # --timeline directories need not hold OTLP traces (a
        # scrape-only run exports just timeseries.json); without
        # --timeline the old contract stands: no traces is an error.
        if not args.timeline:
            raise
        traces = []
    if traces:
        analytics = analyze_traces(
            traces, percentiles=percentiles, top=args.top
        )
        if not first:
            print()
        print(format_analytics_report(analytics, top=args.top))
    return 0


def main(argv=None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro", description="uqSim reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate a Table I spec directory")
    run_parser.add_argument("spec_dir")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--until", type=float, default=None,
        help="simulation horizon in seconds (default: run to drain)",
    )
    run_parser.add_argument(
        "--real", action="store_true",
        help="apply the real-system surrogate (noise + timeouts)",
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="record per-request span traces (attempt-aware; see "
             "docs/observability.md)",
    )
    run_parser.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="R",
        help="probability of sampling each request's trace (default 1.0)",
    )
    run_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="export sampled traces to DIR as Perfetto and OTLP JSON "
             "(implies --trace)",
    )
    run_parser.add_argument(
        "--slo", action="append", default=[], metavar="SPEC",
        help="attach a live SLO (e.g. 'p99<5ms' or 'avail>99.9%%'); "
             "repeatable; verdicts print in the analytics report",
    )
    run_parser.add_argument(
        "--scrape-interval", type=float, default=None, metavar="SECONDS",
        help="sample per-tier utilisation/queue-depth and client "
             "QPS/p99 every S simulated seconds into named timelines "
             "(off by default; printed as tables, and exported as "
             "timeseries.json + Perfetto counter tracks with "
             "--trace-dir)",
    )
    run_parser.add_argument(
        "--profile", action="store_true",
        help="time event handlers and report engine hotspots",
    )
    run_parser.set_defaults(func=_cmd_run)

    exp_parser = sub.add_parser("experiments", help="figure/table registry")
    exp_sub = exp_parser.add_subparsers(dest="action", required=True)
    exp_sub.add_parser("list", help="list experiment ids")
    exp_run = exp_sub.add_parser("run", help="run one experiment")
    exp_run.add_argument("exp_id")
    exp_run.add_argument(
        "--seed", type=int, default=None,
        help="override the experiment's default RNG seed",
    )
    exp_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep fan-out (0 = all cores; "
             "results are identical to --jobs 1)",
    )
    exp_run.add_argument(
        "--run-dir", default=None,
        help="journal completed sweep points to this directory so a "
             "killed run can resume (see docs/operations.md)",
    )
    exp_run.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="with --run-dir: recompute every point instead of reusing "
             "journaled ones",
    )
    exp_run.add_argument(
        "--audit", action="store_true",
        help="verify request conservation after each measurement",
    )
    exp_run.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="arm a faults.json plan against each measured world "
             "(only experiments that support fault injection)",
    )
    exp_run.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="export sampled request traces (Perfetto + OTLP JSON) "
             "to this directory",
    )
    exp_run.add_argument(
        "--trace-sample", type=float, default=None, metavar="R",
        help="with --trace-dir: per-request trace sampling rate "
             "(default 1.0)",
    )
    exp_run.add_argument(
        "--slo", action="append", default=[], metavar="SPEC",
        help="attach a live SLO per measurement (e.g. 'p99<5ms'); "
             "repeatable; summaries land in the run manifest",
    )
    exp_run.add_argument(
        "--scrape-interval", type=float, default=None, metavar="SECONDS",
        help="sample sim-time timelines every S simulated seconds per "
             "measurement (only experiments that support scraping; "
             "artifacts export with --trace-dir, shard-runtime "
             "introspection rides the timeline under --shards)",
    )
    exp_run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run each measurement on the sharded parallel simulation "
             "core with N shards (conservative time-window sync; "
             "fig5/fig12b run through the generic shard adapter, fig14 "
             "through the hand-written fan-out port; --shards 1 is "
             "always the single-simulator engine)",
    )
    exp_run.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per conservative window before a shard "
             "worker counts as hung and is killed + replayed "
             "(default 300; needs --shards N)",
    )
    exp_run.add_argument(
        "--shard-restarts", type=int, default=None, metavar="N",
        help="restart budget per shard worker: dead/hung workers are "
             "rebuilt and replayed from the round journal up to N "
             "times before the run aborts (default 3; needs --shards N)",
    )
    exp_parser.set_defaults(func=_cmd_experiments)

    analyze_parser = sub.add_parser(
        "analyze",
        help="aggregate analytics over exported OTLP trace files",
    )
    analyze_parser.add_argument(
        "trace_dir",
        help="directory holding *.otlp.json files (searched recursively)",
    )
    analyze_parser.add_argument(
        "--percentiles", default="50,95,99", metavar="LIST",
        help="comma-separated percentiles to attribute (default 50,95,99)",
    )
    analyze_parser.add_argument(
        "--top", type=int, default=8, metavar="K",
        help="rows per table / exemplars per node (default 8)",
    )
    analyze_parser.add_argument(
        "--timeline", action="store_true",
        help="also render timeline artifacts (timeseries.json, "
             "written by --scrape-interval): per-tier utilisation and "
             "client QPS/p99 over sim-time, plus the reconciled shard "
             "straggler report for sharded runs; trace analytics "
             "become optional when set",
    )
    analyze_parser.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # durable_map flushed the journal and wrote an 'interrupted'
        # manifest before this propagated; resuming is safe.
        print("interrupted; journaled points are kept — re-run with the "
              "same --run-dir to resume", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
