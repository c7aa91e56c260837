"""Declarative definitions of every validation experiment (SSIV).

Each ``figN_*`` function runs the simulated AND "real" (testbed
surrogate, DESIGN.md SS1) sides of one paper figure and returns the
series the figure plots. Load grids and measurement windows default to
values that finish in minutes on a laptop; pass denser grids / longer
windows for higher-fidelity runs.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..apps import (
    fanout,
    load_balanced,
    social_network,
    three_tier,
    thrift_echo,
    two_tier,
)
from ..telemetry.tracing import TraceConfig
from ..testbed import RealismConfig
from .loadsweep import SweepPoint, load_latency_sweep
from .options import RunOptions

SweepPair = Dict[str, List[SweepPoint]]


def _real_and_sim(
    build_world: Callable,
    loads: Sequence[float],
    duration: float,
    warmup: float,
    seed: int,
    experiment: str = "pair",
    options: RunOptions = RunOptions(),
    **world_kwargs,
) -> SweepPair:
    """Run the same sweep with and without the realism layer.

    Both sides share ``options.run_dir`` when given: the journal is
    append-only and keys embed ``{experiment}/sim`` vs
    ``{experiment}/real``, so a whole multi-sweep figure checkpoints
    into one directory. With ``trace_dir`` set, both sides export
    per-load Perfetto/OTLP traces under
    ``{trace_dir}/{experiment}/{side}``, sampled per the options'
    :class:`TraceConfig` (full sampling by default). With
    ``shards > 1`` both sides run on the sharded parallel core through
    the builder's adapter runner (:mod:`repro.shard.adapter`);
    telemetry still merges at the root.
    """

    def side(name: str) -> RunOptions:
        if options.trace_dir is None:
            return options
        return replace(
            options,
            trace=options.trace or TraceConfig(),
            trace_dir=Path(options.trace_dir) / experiment / name,
        )

    sim_points = load_latency_sweep(
        build_world, loads, duration, warmup, seed=seed,
        experiment=f"{experiment}/sim", options=side("sim"), **world_kwargs
    )
    real_points = load_latency_sweep(
        build_world, loads, duration, warmup, seed=seed + 7919,
        experiment=f"{experiment}/real", options=side("real"),
        realism=RealismConfig(), **world_kwargs,
    )
    return {"sim": sim_points, "real": real_points}


#: Fig 5's four concurrency configurations: (nginx processes,
#: memcached threads).
FIG5_CONFIGS = ((8, 4), (8, 2), (4, 2), (4, 1))


def fig5_two_tier(
    configs: Sequence = FIG5_CONFIGS,
    loads_by_processes: Optional[Dict[int, Sequence[float]]] = None,
    duration: float = 0.4,
    warmup: float = 0.1,
    seed: int = 1,
    options: RunOptions = RunOptions(),
) -> Dict[str, SweepPair]:
    """Fig 5: 2-tier load-latency across thread/process configs."""
    loads_by_processes = loads_by_processes or {
        8: (10_000, 25_000, 40_000, 52_000, 60_000, 66_000),
        4: (5_000, 12_000, 20_000, 26_000, 30_000, 33_000),
    }
    results: Dict[str, SweepPair] = {}
    for nginx_procs, mc_threads in configs:
        key = f"nginx={nginx_procs}p,memcached={mc_threads}t"
        results[key] = _real_and_sim(
            two_tier,
            loads_by_processes[nginx_procs],
            duration,
            warmup,
            seed,
            experiment=f"fig5/{key}",
            options=options,
            nginx_processes=nginx_procs,
            memcached_threads=mc_threads,
        )
    return results


def fig6_three_tier(
    loads: Sequence[float] = (2_000, 5_000, 8_000, 10_500, 12_500),
    duration: float = 0.6,
    warmup: float = 0.15,
    seed: int = 1,
    options: RunOptions = RunOptions(),
) -> SweepPair:
    """Fig 6: 3-tier (NGINX-memcached-MongoDB) validation."""
    return _real_and_sim(three_tier, loads, duration, warmup, seed,
                         experiment="fig6", options=options)


def fig8_load_balancing(
    scale_outs: Sequence[int] = (4, 8, 16),
    loads_by_scale: Optional[Dict[int, Sequence[float]]] = None,
    duration: float = 0.3,
    warmup: float = 0.08,
    seed: int = 1,
    options: RunOptions = RunOptions(),
) -> Dict[int, SweepPair]:
    """Fig 8: p99 vs load for each scale-out factor."""
    loads_by_scale = loads_by_scale or {
        4: (10_000, 20_000, 30_000, 35_000, 38_000),
        8: (20_000, 40_000, 60_000, 70_000, 76_000),
        16: (40_000, 80_000, 105_000, 118_000, 126_000),
    }
    return {
        so: _real_and_sim(
            load_balanced, loads_by_scale[so], duration, warmup, seed,
            experiment=f"fig8/scale{so}", options=options, scale_out=so,
        )
        for so in scale_outs
    }


def fig10_fanout(
    fanouts: Sequence[int] = (4, 8, 16),
    loads: Sequence[float] = (2_000, 4_000, 6_000, 7_500, 8_600),
    duration: float = 0.4,
    warmup: float = 0.1,
    seed: int = 1,
    options: RunOptions = RunOptions(),
) -> Dict[int, SweepPair]:
    """Fig 10: p99 vs load for each fanout factor."""
    return {
        fo: _real_and_sim(
            fanout, loads, duration, warmup, seed,
            experiment=f"fig10/fanout{fo}", options=options,
            fanout_factor=fo,
        )
        for fo in fanouts
    }


def fig12a_thrift(
    loads: Sequence[float] = (10_000, 25_000, 40_000, 50_000, 56_000, 60_000),
    duration: float = 0.4,
    warmup: float = 0.1,
    seed: int = 1,
    options: RunOptions = RunOptions(),
) -> SweepPair:
    """Fig 12(a): Thrift echo RPC validation."""
    return _real_and_sim(thrift_echo, loads, duration, warmup, seed,
                         experiment="fig12a", options=options)


def fig12b_social_network(
    loads: Sequence[float] = (1_000, 3_000, 5_000, 6_500, 7_500),
    duration: float = 0.5,
    warmup: float = 0.12,
    seed: int = 1,
    options: RunOptions = RunOptions(),
) -> SweepPair:
    """Fig 12(b): Social Network end-to-end validation."""
    return _real_and_sim(social_network, loads, duration, warmup, seed,
                         experiment="fig12b", options=options)
