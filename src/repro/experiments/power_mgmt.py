"""Power-management study (paper SSV-B, Figs 15-16, Table III).

Drives the 2-tier application with a diurnal load while Algorithm 1
adjusts per-tier DVFS each decision interval, and reports the tail
latency / frequency timelines (Fig 16) and the QoS violation rate
(Table III). Building with a RealismConfig gives the "real system" row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..apps import two_tier
from ..apps.base import World
from ..errors import ConfigError
from ..telemetry import TimeSeries, WindowedLatency
from ..telemetry.slo import SLO, SLOAlert, SLOMonitor, parse_slo
from ..testbed import RealismConfig
from ..power import PowerManager
from ..workload import DiurnalPattern, OpenLoopClient
from .options import RunOptions


@dataclass
class PowerExperimentResult:
    """Outputs of one power-managed run (Fig 16 series + Table III cell)."""

    decision_interval: float
    qos_target: float
    violation_rate: float
    decisions: int
    mean_p99: float
    final_frequencies: Dict[str, float]
    p99_series: TimeSeries = field(repr=False)
    frequency_series: Dict[str, TimeSeries] = field(repr=False)
    load_series: TimeSeries = field(repr=False)
    #: Per-SLO verdicts (:meth:`SLOMonitor.summary`) when the run was
    #: driven by a declarative SLO; empty otherwise.
    slo_summary: Dict[str, dict] = field(default_factory=dict)
    slo_alerts: List[SLOAlert] = field(default_factory=list, repr=False)


def run_power_experiment(
    decision_interval: float = 0.5,
    qos_target: float = 5e-3,
    duration: float = 30.0,
    diurnal_low: float = 3_000.0,
    diurnal_high: float = 12_000.0,
    diurnal_period: float = 15.0,
    realism: Optional[RealismConfig] = None,
    seed: int = 0,
    nginx_processes: int = 2,
    memcached_threads: int = 1,
    slo: Optional[Union[str, SLO]] = None,
) -> PowerExperimentResult:
    """One Fig 16 timeline at the given decision interval.

    With *slo* (an :class:`SLO` or a spec string like ``"p99<5ms"``),
    Algorithm 1's QoS check becomes that objective's evaluation — the
    threshold supplies the QoS target, the percentile the sensed
    statistic — and an :class:`SLOMonitor` rides the run, recording
    burn-rate alerts whose summary lands in the result.

    The diurnal pattern compresses the paper's day-scale fluctuation
    into *diurnal_period* seconds so the experiment completes in
    simulable time; the controller time constants (decision intervals
    of 0.1-1 s) are kept at the paper's values. The default tier sizing
    (2 NGINX workers / 1 memcached thread) puts the diurnal peak just
    above the application's capacity at minimum frequency, so DVFS
    actually trades latency for power — the regime the paper studies.
    """
    if isinstance(slo, str):
        slo = parse_slo(slo, window=max(decision_interval, 0.05))
    world: World = two_tier(
        nginx_processes=nginx_processes,
        memcached_threads=memcached_threads,
        seed=seed,
        realism=realism,
    )
    pattern = DiurnalPattern(
        low=diurnal_low, high=diurnal_high, period=diurnal_period
    )
    e2e_window = WindowedLatency(
        window=max(decision_interval, 0.05), name="e2e"
    )
    client = OpenLoopClient(
        world.sim,
        world.dispatcher,
        arrivals=pattern,
        stop_at=duration,
        realism=world.realism,
        on_complete=lambda req: e2e_window.record(
            req.completed_at, req.latency
        ),
    )
    manager = PowerManager(
        world.sim,
        tiers={
            "nginx": world.instances("nginx"),
            "memcached": world.instances("memcached"),
        },
        client_latencies=e2e_window,
        qos_target=None if slo is not None else qos_target,
        decision_interval=decision_interval,
        slo=slo,
    )
    slo_monitor = None
    if slo is not None:
        slo_monitor = SLOMonitor(
            world.sim, [slo], interval=decision_interval
        )
        slo_monitor.attach(client)
        slo_monitor.start(stop_at=duration)
    client.start()
    manager.start()

    # Record the offered load for Fig 15.
    load_series = TimeSeries("offered_load")

    def sample_load() -> None:
        load_series.append(world.sim.now, pattern.rate(world.sim.now))
        if world.sim.now + 0.5 <= duration:
            world.sim.schedule(0.5, sample_load)

    world.sim.schedule(0.0, sample_load)
    world.sim.run(until=duration)

    p99_values = manager.p99_series.values
    return PowerExperimentResult(
        decision_interval=decision_interval,
        qos_target=manager.qos_target,
        violation_rate=manager.violation_rate,
        decisions=manager.decisions,
        mean_p99=float(np.mean(p99_values)) if p99_values.size else float("nan"),
        final_frequencies={
            tier: manager.tier_frequency(tier) for tier in manager.tier_names
        },
        p99_series=manager.p99_series,
        frequency_series=manager.frequency_series,
        load_series=load_series,
        slo_summary=(
            slo_monitor.summary() if slo_monitor is not None else {}
        ),
        slo_alerts=(
            list(slo_monitor.alerts) if slo_monitor is not None else []
        ),
    )


def fig16_timeline(
    options: RunOptions = RunOptions(), **kwargs
) -> PowerExperimentResult:
    """Fig 16 as the registry runs it: the options' latency SLO, when
    one is given, drives Algorithm 1 (see :func:`run_power_experiment`).
    The controller has one QoS target, so two or more SLOs are a
    :class:`ConfigError`, as is a non-latency one."""
    if len(options.slo) > 1:
        raise ConfigError(
            f"fig16 drives power management from one latency SLO; "
            f"got {len(options.slo)}"
        )
    return run_power_experiment(
        slo=options.slo[0] if options.slo else None, **kwargs
    )


def violation_table(
    intervals: Tuple[float, ...] = (0.1, 0.5, 1.0),
    duration: float = 30.0,
    qos_target: float = 5e-3,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    **kwargs,
) -> Dict[float, PowerExperimentResult]:
    """Table III: QoS violation rate per decision interval."""
    return {
        interval: run_power_experiment(
            decision_interval=interval,
            qos_target=qos_target,
            duration=duration,
            seed=seed,
            realism=realism,
            **kwargs,
        )
        for interval in intervals
    }
