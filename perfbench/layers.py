"""Outside-in per-layer self time for a traced simulation run.

The tracer is attached as ``sim.profiler``, so the engine hands it every
event (``dispatch(fn, args)``). It keeps a stack of layer names: an event
handler runs under the layer its ``__module__`` belongs to, and thin
wrappers installed on each layer's entry points push that layer around
the call. The time between two stack changes is charged to the layer on
top, so a layer's *self* time excludes the layers it calls into. The
``engine`` layer is what remains of ``Simulator.run`` outside handlers;
``gc`` pauses come from ``gc.callbacks``. Because every instant is
charged to exactly one layer, the layers must sum to the traced wall
time; :func:`reconcile` refuses a report where they do not.

Nothing under ``src/`` knows about this module: the wrappers are class
attribute patches made by :func:`install` in the benchmark's own
process, before any world is built.
"""

from __future__ import annotations

import gc
from collections import Counter
from time import perf_counter
from typing import Dict, Optional

#: Every layer time is charged to. ``shard`` is a worker's time outside
#: the simulation loop (window sync and IPC); ``outside`` is time before
#: the measured region and is never reported.
LAYERS = ("engine", "dispatcher", "service", "queues", "sampling",
          "hardware", "workload", "telemetry", "gc", "shard")

#: Module prefix -> layer, first match wins (so queues precede service).
_MODULE_LAYERS = (
    ("repro.engine", "engine"),
    ("repro.topology", "dispatcher"),
    ("repro.service.queues", "queues"),
    ("repro.service", "service"),
    ("repro.apps", "service"),
    ("repro.distributions", "sampling"),
    ("repro.hardware", "hardware"),
    ("repro.workload", "workload"),
    ("repro.telemetry", "telemetry"),
    # The adapter module is the sharded dispatcher; the rest of the
    # package is window sync and IPC.
    ("repro.shard.adapter", "dispatcher"),
    ("repro.shard", "shard"),
)

#: Largest allowed |sum of layers - traced wall| / traced wall.
RECONCILE_BOUND = 0.005


def layer_of_module(module: Optional[str]) -> str:
    """The layer an event handler defined in *module* is charged to."""
    for prefix, layer in _MODULE_LAYERS:
        if (module or "").startswith(prefix):
            return layer
    raise ValueError(f"no layer for event handler module {module!r}")


class LayerTracer:
    """Layer-stack self-time accountant and engine profiler."""

    def __init__(self) -> None:
        self._layer_cache: Dict[Optional[str], str] = {}
        self.reset("outside")

    def reset(self, base: str) -> None:
        """Start a fresh measured region with *base* at the stack bottom."""
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.self_s[base] = 0.0
        self.counts: Counter = Counter()
        #: Times each layer was entered (handlers plus wrapped calls):
        #: shows where wrapper overhead concentrates.
        self.entries: Counter = Counter()
        self._stack = [base]
        self.started = self._mark = perf_counter()

    def enter(self, layer: str) -> None:
        now = perf_counter()
        stack = self._stack
        self.self_s[stack[-1]] += now - self._mark
        stack.append(layer)
        self.entries[layer] += 1
        self._mark = now

    def leave(self) -> None:
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    def dispatch(self, fn, args) -> None:
        """Engine profiler hook: run one event handler under its layer."""
        module = getattr(fn, "__module__", None)
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of_module(module)
        self.enter(layer)
        try:
            fn(*args)
        finally:
            self.leave()

    def snapshot(self) -> dict:
        """Tallies of the region so far, picklable, with its wall time."""
        now = perf_counter()
        self_s = dict(self.self_s)
        self_s[self._stack[-1]] += now - self._mark
        return {"self_s": self_s, "counts": dict(self.counts),
                "entries": dict(self.entries), "wall_s": now - self.started}


def reconcile(self_s: Dict[str, float], wall_s: float) -> None:
    """Refuse a breakdown whose layers do not sum to *wall_s*."""
    total = sum(v for k, v in self_s.items() if k != "outside")
    if wall_s <= 0 or abs(total - wall_s) > RECONCILE_BOUND * wall_s:
        raise ValueError(
            f"layer self times sum to {total:.6f}s but the traced wall "
            f"time is {wall_s:.6f}s (bound {RECONCILE_BOUND:.1%}); "
            f"refusing to report an unreconciled breakdown"
        )


def _wrap(tracer: LayerTracer, cls, name: str, layer: str,
          count: Optional[str] = None, hit: Optional[str] = None) -> None:
    """Patch ``cls.name`` to run under *layer*, counting calls under
    *count* and results that are neither ``None`` nor ``False`` under
    *hit*."""
    original = cls.__dict__[name]
    enter, leave = tracer.enter, tracer.leave

    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            leave()
        if count is not None:
            counts = tracer.counts  # replaced on every reset
            counts[count] += 1
            if hit is not None and result is not None and result is not False:
                counts[hit] += 1
        return result

    setattr(cls, name, wrapper)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's entry points and hook the cyclic GC."""
    from repro.distributions.buffered import BufferedSampler
    from repro.distributions.frequency import FrequencySampler
    from repro.engine.event_queue import EventQueue
    from repro.engine.simulator import Simulator
    from repro.hardware.core import CoreSet
    from repro.hardware.network import BufferedDelaySampler
    from repro.service.microservice import Microservice
    from repro.service.queues import (
        EpollQueue, SingleQueue, SocketQueue, StageQueue,
    )
    from repro.service.stage import Stage
    from repro.telemetry.latency import LatencyRecorder
    from repro.topology.dispatcher import Dispatcher

    _wrap(tracer, Simulator, "run", "engine")
    _wrap(tracer, EventQueue, "cancel", "engine", count="engine.cancels")
    _wrap(tracer, Dispatcher, "submit", "dispatcher")
    _wrap(tracer, Dispatcher, "_enter_node", "dispatcher",
          count="dispatcher.node_visits")
    _wrap(tracer, Dispatcher, "_leave_node", "dispatcher")
    _wrap(tracer, Dispatcher, "_hop", "dispatcher", count="dispatcher.hops")
    _wrap(tracer, Microservice, "accept", "service", count="service.jobs")
    _wrap(tracer, Microservice, "_complete_job", "service")
    # Core-release and connection-unblock callbacks re-enter dispatch
    # through _kick; without this they would be charged to hardware.
    _wrap(tracer, Microservice, "_kick", "service")
    _wrap(tracer, Microservice, "_start_execution", "service",
          count="service.batch_attempts", hit="service.batch_starts")
    for cls in (SingleQueue, SocketQueue, EpollQueue):
        for name in ("push", "next_batch", "ready_count"):
            _wrap(tracer, cls, name, "queues",
                  count="queues.ready_count_calls"
                  if name == "ready_count" else None)
    _wrap(tracer, StageQueue, "has_ready", "queues",
          count="queues.has_ready_calls", hit="queues.has_ready_true")
    _wrap(tracer, Stage, "compute_cost", "sampling")
    _wrap(tracer, BufferedSampler, "sample", "sampling",
          count="sampling.draws")
    for name in ("sample", "take"):
        _wrap(tracer, FrequencySampler, name, "sampling")
    _wrap(tracer, BufferedDelaySampler, "delay", "hardware",
          count="hardware.delay_draws")
    _wrap(tracer, CoreSet, "try_acquire", "hardware",
          count="hardware.core_acquires", hit="hardware.core_acquired")
    _wrap(tracer, CoreSet, "release", "hardware")
    _wrap(tracer, LatencyRecorder, "record", "telemetry")

    def on_gc(phase, _info):
        if phase == "start":
            tracer.counts["gc.collections"] += 1
            tracer.enter("gc")
        else:
            tracer.leave()

    gc.callbacks.append(on_gc)


def install_shard_hosts(tracer: LayerTracer) -> None:
    """Trace inside the shard workers of the generic adapter.

    Workers fork from this process, so they inherit the wrappers. Each
    worker's host restarts the tracer when it is built (time outside its
    simulation loop is then charged to ``shard``) and ships its tallies
    home with its ``finalize`` results.
    """
    from repro.shard.adapter import ShardedDispatcher, WorldShardHost

    # The sharded dispatcher replaces the vanilla node/hop methods with
    # its own: a node entry is decided in _send_enter, a leg in _ship.
    _wrap(tracer, ShardedDispatcher, "_send_enter", "dispatcher",
          count="dispatcher.node_visits")
    _wrap(tracer, ShardedDispatcher, "_ship", "dispatcher",
          count="dispatcher.hops")
    _wrap(tracer, ShardedDispatcher, "_leave_node_sharded", "dispatcher")
    init = WorldShardHost.__init__
    finalize = WorldShardHost.finalize

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.sim.profiler = tracer
        tracer.reset("shard")

    def traced_finalize(self):
        tallies = tracer.snapshot()
        result = finalize(self)
        result["perfbench_layers"] = tallies
        return result

    WorldShardHost.__init__ = traced_init
    WorldShardHost.finalize = traced_finalize
