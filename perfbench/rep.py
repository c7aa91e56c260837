"""One benchmark session: a fresh process that runs one workload's seeded
simulation again and again until its time budget is spent.

Usage: ``python3 perfbench/rep.py WORKLOAD SEED {plain,traced} T0 BUDGET_S``

*T0* is the launching process's ``time.monotonic()`` just before it
started this one, so set-up time covers interpreter start, imports,
world build and client wiring up to the first simulated event of the
first simulation. Every later simulation rebuilds its world from the
same seed after a full garbage collection, which is left out of the
timings. The first simulation is a warm-up that is checked but not
timed; each later one is timed with the reference kernel's speed
around it (:mod:`reference`). Prints one JSON object on the last line
of standard output.

``traced`` attaches the layer tracer (:mod:`layers`) and refuses to
report a breakdown that does not reconcile with the traced wall time.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS, Hooks

ROOT = Path(__file__).resolve().parent.parent


class TracedHooks(Hooks):
    """Marks set-up end and attaches the tracer to the simulator."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.snapshot = None

    def before_run(self, sim) -> None:
        self.setup_end = time.monotonic()
        if sim is not None:
            sim.profiler = self.tracer
            self.tracer.reset("outside")

    def after_run(self) -> None:
        self.snapshot = self.tracer.snapshot()


class SpeedHooks(Hooks):
    """Marks set-up end and, once :attr:`reference` is set, times the
    reference kernel before, between and after a run's slices."""

    def __init__(self) -> None:
        self.reference = None
        self.samples = []

    def _sample(self) -> None:
        if self.reference is not None:
            self.samples.append(self.reference.timed())

    def before_run(self, sim) -> None:
        self.setup_end = time.monotonic()
        self.samples = []
        self._sample()

    between_slices = after_run = _sample

    def at_nominal(self, slice_walls) -> Optional[float]:
        """The run's wall time at the kernel's nominal speed: each slice
        scaled by the mean of the samples just before and after it.
        ``None`` while sampling is off."""
        if self.reference is None:
            return None
        samples = self.samples
        if len(samples) != len(slice_walls) + 1:
            raise RuntimeError(f"{len(samples)} speed samples around "
                               f"{len(slice_walls)} slices")
        return sum(wall * self.reference.NOMINAL_S * 2 / (before + after)
                   for wall, before, after
                   in zip(slice_walls, samples, samples[1:]))


def simulate(run, seed: int, hooks, layers) -> dict:
    """One simulation; its record, with reconciled layer tallies when
    *layers* (the tracer module) is given."""
    outcome = run(seed, hooks)
    if outcome.completed < 1:
        raise RuntimeError("no simulated request completed")
    breakdowns = []
    if layers is not None:
        # A vanilla run reports the tracer's own region, measured
        # against the workload's wall clock around Simulator.run; a
        # sharded run reports each worker's region, measured from its
        # host build to its finalize.
        breakdowns = outcome.extra.get("shard_layers")
        if breakdowns is None:
            breakdowns = [dict(hooks.snapshot, wall_s=outcome.wall_s)]
        if not breakdowns:
            raise RuntimeError("the traced run produced no tallies")
        for tallies in breakdowns:
            layers.reconcile(tallies["self_s"], tallies["wall_s"])
    shard = None
    if "rounds" in outcome.extra:
        shard = {key: outcome.extra[key]
                 for key in ("rounds", "messages", "straggler_rounds")}
    return {
        "digest": outcome.digest(),
        "completed": outcome.completed,
        "events": outcome.events,
        "wall_s": outcome.wall_s,
        "nominal_wall_s": (hooks.at_nominal(outcome.slice_walls)
                           if isinstance(hooks, SpeedHooks) else None),
        "layers": breakdowns,
        "shard": shard,
    }


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    t0, budget = float(argv[3]), float(argv[4])
    sys.path.insert(0, str(ROOT / "src"))

    layers = None
    if mode == "traced":
        import layers

        tracer = layers.LayerTracer()
        layers.install(tracer)
        layers.install_shard_hosts(tracer)
        hooks = TracedHooks(tracer)
    elif mode == "plain":
        hooks = SpeedHooks()
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    run = WORKLOADS[name]
    sims = [simulate(run, seed, hooks, layers)]
    setup_s = hooks.setup_end - t0
    # The first simulation is a warm-up: checked, not timed. The
    # reference kernel is loaded only after it, so that set-up time
    # leaves it out.
    sims[0]["warm_up"] = True
    # Peak memory is read here, before the kernel's table exists.
    # Sharded runs simulate in forked workers; their peak is the
    # largest child's.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if mode == "plain":
        import reference

        hooks.reference = reference
    deadline = t0 + budget
    while len(sims) < 2 or time.monotonic() < deadline:
        gc.collect()
        sims.append(simulate(run, seed, hooks, layers))

    print(json.dumps({
        "setup_s": setup_s,
        "rss_mb": rss_kb / 1024.0,
        "sims": sims,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
