"""Tail@scale study (paper SSV-A / Fig 14).

"we simulate clusters of different sizes, ranging from 5 servers to
1000 servers ... a user request fans out to all servers in the cluster,
and only returns to the user after the last server responds. ... the
application is a simple one-stage queueing system with exponentially
distributed processing time, around a 1ms mean. To emulate slow
servers, we increase the average processing time of a configurable
fraction of randomly-selected servers by 10x."
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Tuple

from ..apps.base import World, add_client_machine, new_world
from ..distributions import Deterministic, Exponential
from ..errors import ConfigError, ReproError
from ..hardware import Machine, NetworkFabric
from ..service import (
    ExecutionPath,
    Microservice,
    PathSelector,
    SimpleModel,
    SingleQueue,
    Stage,
)
from ..runner import point_key, register_result_type
from ..telemetry.export import write_otlp, write_perfetto
from ..telemetry.slo import SLOMonitor
from ..telemetry.tracing import TraceConfig
from ..topology import PathNode, PathTree
from ..workload import OpenLoopClient
from .audit import audit_client
from .loadsweep import run_sweep
from .options import RunOptions, resolve_slos

#: The knobs the tail-at-scale study honours (see
#: :data:`repro.experiments.options.CAPABILITIES`): everything but
#: timeline scraping.
CAPABILITIES = frozenset({
    "jobs", "run_dir", "audit", "trace_dir", "slo", "fault_plan",
    "shards", "shard_tuning",
})


def build_fanout_cluster(
    cluster_size: int,
    slow_fraction: float,
    slow_factor: float = 10.0,
    mean_service: float = 1e-3,
    seed: int = 0,
    network: Optional[NetworkFabric] = None,
) -> World:
    """A cluster of *cluster_size* one-stage leaf servers plus a cheap
    aggregator; every request visits every leaf and synchronises at the
    aggregator before returning."""
    if cluster_size < 1:
        raise ConfigError(f"cluster_size must be >= 1, got {cluster_size}")
    if not 0.0 <= slow_fraction <= 1.0:
        raise ConfigError(f"slow_fraction must be in [0,1], got {slow_fraction!r}")
    if slow_factor < 1.0:
        raise ConfigError(f"slow_factor must be >= 1, got {slow_factor!r}")

    world = new_world(network, seed)
    add_client_machine(world)
    placement_rng = world.sim.random.stream("tail-at-scale/placement")
    slow_mask = placement_rng.random(cluster_size) < slow_fraction

    tree = PathTree("tail_at_scale")
    agg_machine = world.cluster.add_machine(Machine("aggregator", 4))
    aggregator = _one_stage_service(
        world, "aggregator", "agg", Deterministic(5e-6), cores=4
    )
    tree.add_node(PathNode("root", "agg"))
    for i in range(cluster_size):
        machine_name = f"leaf-node{i}"
        world.cluster.add_machine(Machine(machine_name, 1))
        mean = mean_service * (slow_factor if slow_mask[i] else 1.0)
        _one_stage_service(
            world, machine_name, f"leaf{i}", Exponential(mean), cores=1
        )
        tree.add_node(PathNode(f"leaf{i}", f"leaf{i}"))
        tree.add_edge("root", f"leaf{i}")
    tree.add_node(PathNode("join", "agg", same_instance_as="root"))
    for i in range(cluster_size):
        tree.add_edge(f"leaf{i}", "join")
    world.dispatcher.add_tree(tree)
    world.labels.update(
        scenario="tail_at_scale",
        config=(
            f"size={cluster_size} slow={slow_fraction:.0%} "
            f"({int(slow_mask.sum())} slow servers)"
        ),
    )
    return world


def _fanout_sharded_runner(*args, **kwargs):
    """Late import so ``repro.shard`` stays an optional layer of the
    import graph (it imports back into this module)."""
    from ..shard import fanout_sharded_load_point

    return fanout_sharded_load_point(*args, **kwargs)


#: Opt-in hook read by :func:`repro.experiments.loadsweep.measure_at_load`
#: when called with ``shards > 1`` — builders without the attribute get
#: a loud error instead of a silently-unsharded run. The hand-written
#: fan-out runner predates the generic world adapter and supports no
#: telemetry knobs under shards (adapter-based runners declare theirs
#: via ``supported_telemetry``; see repro.apps.builders).
_fanout_sharded_runner.supported_telemetry = ()
build_fanout_cluster.sharded_runner = _fanout_sharded_runner


def _one_stage_service(world, machine_name, tier, dist, cores):
    machine = world.cluster.machine(machine_name)
    core_set = machine.allocate(tier, cores)
    stage = Stage("process", 0, SingleQueue(), base=dist)
    selector = PathSelector([ExecutionPath(0, "only", [0])])
    instance = Microservice(
        tier,
        world.sim,
        [stage],
        selector,
        core_set,
        model=SimpleModel(),
        machine_name=machine_name,
        tier=tier,
    )
    world.deployment.add_instance(instance)
    return instance


@register_result_type
@dataclass
class TailAtScalePoint:
    """One (cluster size, slow fraction) measurement of Fig 14."""

    cluster_size: int
    slow_fraction: float
    p50: float
    p99: float
    requests: int
    #: Per-SLO verdicts when the cell ran with objectives attached
    #: (``None`` otherwise; defaulted so old journals still decode).
    slo: Optional[dict] = None
    #: Shard-supervisor recovery report when worker processes had to
    #: be rebuilt mid-run (``None`` for unsharded or fault-free cells,
    #: so unfaulted results stay identical and old journals decode).
    shard_recovery: Optional[dict] = None


def measure_tail_at_scale(
    cluster_size: int,
    slow_fraction: float,
    qps: float = 30.0,
    num_requests: int = 300,
    slow_factor: float = 10.0,
    seed: int = 0,
    network: Optional[NetworkFabric] = None,
    options: RunOptions = RunOptions(),
) -> TailAtScalePoint:
    """Drive one (cluster size, slow fraction) configuration and report
    the p50/p99 of the fan-in-synchronised end-to-end latency.

    This is where *options* unpack for a cell. With ``trace_dir`` set
    the sampled traces export there as Perfetto and OTLP JSON named by
    the cell; ``slo`` objectives ride the returned point.

    ``shards > 1`` runs the cell on the sharded parallel core
    (:func:`repro.shard.measure_fanout_sharded`): one worker process
    per shard, synchronised by conservative time windows. Requires a
    *network* whose propagation has a positive minimum (otherwise the
    planner falls back to one shard with a ``RuntimeWarning``).
    ``audit`` works under shards too — it runs the merged cross-shard
    conservation audit on the per-shard finalize counters; tracing and
    SLOs remain single-simulator-only. ``fault_plan`` under shards may
    carry ``shard_kill``/``shard_hang`` chaos (the supervisor recovers
    and results must not change); under ``shards=1`` it arms the
    ordinary in-simulation :class:`~repro.faults.FaultInjector`.
    """
    options.require(CAPABILITIES, "the tail-at-scale study")
    if options.shards > 1:
        if options.trace_dir is not None or options.slo:
            raise ReproError(
                "shards > 1 does not support trace/slo "
                "instrumentation yet; run those with shards=1"
            )
        from ..shard import measure_fanout_sharded

        journal_path = None
        if options.shard_journal_dir is not None:
            journal_path = (
                options.shard_journal_dir
                / f"shard_journal_size{cluster_size}_slow{slow_fraction:g}.jsonl"
            )
        result = measure_fanout_sharded(
            cluster_size, slow_fraction, qps=qps,
            num_requests=num_requests, slow_factor=slow_factor,
            seed=seed, shards=options.shards, network=network,
            audit=options.audit, fault_plan=options.fault_plan,
            shard_timeout=options.shard_timeout,
            shard_restarts=options.shard_restarts,
            journal_path=journal_path,
        )
        return TailAtScalePoint(
            cluster_size=cluster_size,
            slow_fraction=slow_fraction,
            p50=result["p50"],
            p99=result["p99"],
            requests=result["requests"],
            shard_recovery=(
                result["recovery"] if result["restarts"] else None
            ),
        )
    world = build_fanout_cluster(
        cluster_size, slow_fraction, slow_factor, seed=seed,
        network=network,
    )
    if options.fault_plan is not None:
        from ..faults import FaultInjector

        FaultInjector(
            world.sim, world.deployment, world.cluster.network,
            options.fault_plan, cluster=world.cluster,
        ).arm()
    if options.point_trace:
        world.dispatcher.trace = options.point_trace
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=qps, max_requests=num_requests
    )
    # The fan-out run has no fixed horizon (it stops when the last of
    # num_requests resolves), so size the evaluation window from the
    # expected span of the run.
    expected_span = max(0.1, num_requests / max(qps, 1e-9) / 4.0)
    slos = resolve_slos(options.slo, window=expected_span)
    slo_monitor = None
    if slos:
        slo_monitor = SLOMonitor(
            world.sim, slos, interval=expected_span / 10.0
        )
        slo_monitor.attach(client)
        slo_monitor.start()
    clock_start = world.sim.now
    client.start()
    world.sim.run()
    if options.audit:
        audit_client(
            client, world.sim, dispatcher=world.dispatcher,
            clock_start=clock_start,
        )
    if options.trace_dir is not None:
        base = Path(options.trace_dir)
        base.mkdir(parents=True, exist_ok=True)
        stem = f"size{cluster_size}_slow{slow_fraction:g}"
        traces = world.dispatcher.tracer.traces
        write_perfetto(base / f"{stem}.perfetto.json", traces)
        write_otlp(base / f"{stem}.otlp.json", traces)
    recorder = client.latencies
    return TailAtScalePoint(
        cluster_size=cluster_size,
        slow_fraction=slow_fraction,
        p50=recorder.p50(),
        p99=recorder.p99(),
        requests=len(recorder),
        slo=slo_monitor.summary() if slo_monitor is not None else None,
    )


def _measure_grid_point(
    size_and_fraction: Tuple[int, float], **kwargs
) -> TailAtScalePoint:
    """Picklable per-cell worker for the grid sweep: unpacks the cell."""
    size, frac = size_and_fraction
    return measure_tail_at_scale(size, frac, **kwargs)


def tail_at_scale_sweep(
    cluster_sizes: Sequence[int] = (5, 10, 50, 100, 500, 1000),
    slow_fractions: Sequence[float] = (0.0, 0.01, 0.05, 0.10),
    qps: float = 30.0,
    num_requests: int = 300,
    seed: int = 0,
    experiment: str = "fig14",
    network: Optional[NetworkFabric] = None,
    options: RunOptions = RunOptions(),
):
    """The full Fig 14 grid. Each (size, fraction) cell simulates an
    independent cluster, so ``options.jobs > 1`` fans the grid out
    across processes with identical results.

    With ``options.run_dir`` set, finished cells are journaled there
    and ``resume=True`` skips them on restart — see
    :mod:`repro.runner.runstore`. With ``trace_dir`` set, every cell
    exports its sampled traces there as Perfetto/OTLP JSON (at the
    options' :class:`TraceConfig`, default full sampling).
    ``shards > 1`` runs every cell on the sharded parallel core (see
    :func:`measure_tail_at_scale`); combine with ``jobs=1``, since each
    cell then owns one worker process per shard.
    """
    grid = [
        (size, frac) for frac in slow_fractions for size in cluster_sizes
    ]
    if options.trace_dir is not None and options.trace is None:
        # The grid always traced at an explicit TraceConfig, whose repr
        # is in the journal keys of existing traced runs.
        options = replace(options, trace=TraceConfig())
    cell = functools.partial(
        _measure_grid_point, qps=qps, num_requests=num_requests, seed=seed,
        network=network, options=options,
    )
    # Journal-key stability: older journals hashed a config without
    # these knobs, so only non-default values contribute (see
    # RunOptions.journal_config).
    config = {
        "qps": qps, "num_requests": num_requests,
        **options.journal_config(),
    }
    if network is not None:
        config["network"] = repr(network)
    if options.fault_plan is not None and len(options.fault_plan):
        config["fault_plan"] = repr(options.fault_plan.sorted())
    keys = [
        point_key(
            experiment, {"size": size, "frac": frac}, seed, config
        )
        for size, frac in grid
    ]
    return run_sweep(
        cell, grid, options, experiment=experiment, config=config,
        keys=keys, seeds=[seed] * len(grid),
    )
