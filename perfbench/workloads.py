"""The benchmark's canonical worlds, each one seeded simulation.

Every workload builds its world through the library's public builders,
wires an open-loop Poisson client inside the simulation, runs it, runs
the conservation audit, and returns an :class:`Outcome`. The workload
seed is the only input; the library sees nothing but the built world.

``hooks`` lets the caller mark the end of set-up (the instant before the
first simulated event), act between the slices of a run (a plain
session samples the host's speed there), and, in a traced run, attach
the layer tracer to the simulator that is about to run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Outcome:
    """What one simulation run produced, plus its host-side cost."""

    completed: int  #: simulated requests completed
    events: int  #: events processed (summed over shards)
    times: List[float]  #: completion time of every ok request
    latencies: List[float]  #: end-to-end latency of every ok request
    wall_s: float  #: host wall time of the simulation run
    #: Host wall time of each slice of the run, in order.
    slice_walls: List[float] = field(default_factory=list)
    #: Workload-specific facts (shard counters, per-shard layer tallies).
    extra: Dict[str, object] = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over completed count, events processed and every
        latency sample, bit-exact (floats as hex)."""
        h = hashlib.sha256()
        h.update(f"{self.completed}|{self.events}|".encode())
        for t, v in zip(self.times, self.latencies):
            h.update(f"{float(t).hex()},{float(v).hex()};".encode())
        return h.hexdigest()


class Hooks:
    """Default hooks: mark set-up end, attach nothing."""

    def before_run(self, sim) -> None:
        """Called right before the first simulated event; *sim* is the
        simulator about to run (``None`` when it lives in workers)."""
        self.setup_end = time.monotonic()

    def between_slices(self) -> None:
        """Called between two slices of one simulation run."""

    def after_run(self) -> None:
        """Called right after the simulation returns."""


def _open_loop(build: Callable[[int], object], qps: float, *,
               stop_at: Optional[float] = None,
               max_requests: Optional[int] = None,
               slices: int = 1) -> Callable:
    """A single-simulator workload: *build(seed)* returns the world, an
    open-loop client drives it at *qps* until *stop_at* or until
    *max_requests* have been sent and resolved.

    With a *stop_at* horizon the run is made in *slices* equal steps of
    simulated time, ``run(until=...)`` each, so that the caller can
    sample the host's speed between them; the outputs are those of one
    ``run(until=stop_at)``, which the pinned digests check. A run
    without a horizon is one drain, as the experiments make it."""

    def run(seed: int, hooks: Hooks) -> Outcome:
        from repro.experiments.audit import audit_client
        from repro.workload import OpenLoopClient

        world = build(seed)
        client = OpenLoopClient(
            world.sim, world.dispatcher, arrivals=qps,
            stop_at=stop_at, max_requests=max_requests,
        )
        clock_start = world.sim.now
        client.start()
        hooks.before_run(world.sim)
        walls = []
        for k in range(1, slices + 1):
            if k > 1:
                hooks.between_slices()
            until = None if stop_at is None else stop_at * k / slices
            started = time.perf_counter()
            world.sim.run(until=until)
            walls.append(time.perf_counter() - started)
        hooks.after_run()
        audit_client(client, world.sim, dispatcher=world.dispatcher,
                     clock_start=clock_start)
        times, values = client.latencies.samples()
        return Outcome(
            completed=client.requests_completed,
            events=world.sim.events_processed,
            times=times.tolist(),
            latencies=values.tolist(),
            wall_s=sum(walls),
            slice_walls=walls,
        )

    return run


def _fanout500(seed: int):
    from repro.experiments.tail_at_scale import build_fanout_cluster

    return build_fanout_cluster(500, 0.01, seed=seed)


def _social(seed: int):
    from repro.apps import social_network

    return social_network(seed=seed)


def _lb16(seed: int):
    from repro.apps import load_balanced

    return load_balanced(scale_out=16, seed=seed)


#: Simulated seconds of the Social Network runs (vanilla and sharded).
SOCIAL_SECONDS = 0.1
SOCIAL_QPS = 4000.0
#: Propagation delay of the sharded run's fabric: a positive minimum
#: is what gives the conservative shard sync its lookahead.
SHARD_PROPAGATION_S = 100e-6


def _social4k_shards2(seed: int, hooks: Hooks) -> Outcome:
    """The ``social4k`` world and load on the generic shard adapter,
    two worker processes. Refuses to be measured as vanilla."""
    from repro.apps import social_network
    from repro.distributions import Deterministic
    from repro.hardware import NetworkFabric
    from repro.shard import adapter

    captured: Dict[str, object] = {}
    run_sharded = adapter.run_sharded

    def timed_run_sharded(*args, **kwargs):
        # Set-up ends where the shard run begins: imports, the probe
        # world build and shard planning are behind us.
        hooks.before_run(None)
        captured["started"] = time.perf_counter()
        results, coordinator = run_sharded(*args, **kwargs)
        captured["results"] = results
        return results, coordinator

    adapter.run_sharded = timed_run_sharded
    try:
        point = adapter.sharded_load_point(
            social_network, SOCIAL_QPS, SOCIAL_SECONDS, SOCIAL_SECONDS / 4,
            seed, 2, mode="process", audit=True,
            network=NetworkFabric(
                propagation=Deterministic(SHARD_PROPAGATION_S)
            ),
        )
    finally:
        adapter.run_sharded = run_sharded
    if "started" not in captured:
        raise RuntimeError(
            "social4k_shards2 fell back to the unsharded path; refusing "
            "to measure it as vanilla"
        )
    wall = time.perf_counter() - captured["started"]
    hooks.after_run()
    sync = getattr(point, "shard_sync", None)
    if not sync or sync.get("shards") != 2 or sync.get("mode") != "process":
        raise RuntimeError(
            f"social4k_shards2 must run on 2 process-mode shards; the "
            f"run reported shard_sync={sync!r}"
        )
    results = captured["results"]
    root = next(r for r in results if "requests_sent" in r)
    return Outcome(
        completed=root["requests_completed"],
        events=sum(r["events"] for r in results),
        times=root["completions"],
        latencies=root["latencies"],
        wall_s=wall,
        slice_walls=[wall],
        extra={
            "rounds": sync["rounds"],
            "messages": sync["messages_exchanged"],
            "straggler_rounds": dict(sync["straggler_rounds"]),
            "shard_layers": [r["perfbench_layers"] for r in results
                             if "perfbench_layers" in r],
        },
    )


#: name -> run(seed, hooks) -> Outcome
WORKLOADS: Dict[str, Callable[[int, Hooks], Outcome]] = {
    "fanout500": _open_loop(_fanout500, 30.0, max_requests=5),
    "social4k": _open_loop(_social, SOCIAL_QPS, stop_at=SOCIAL_SECONDS,
                           slices=10),
    "lb16_overload": _open_loop(_lb16, 132_000.0, stop_at=0.03,
                                slices=20),
    "social4k_shards2": _social4k_shards2,
}

#: Workloads that simulate in the session's own process alone.
SINGLE_PROCESS = ("fanout500", "social4k", "lb16_overload")
