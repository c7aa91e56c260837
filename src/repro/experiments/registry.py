"""Registry mapping paper experiment ids to their runners.

The per-experiment index of DESIGN.md SS3 in executable form: each
entry knows which figure/table it regenerates, which callable runs it,
and which run knobs (:data:`~repro.experiments.options.CAPABILITIES`)
that callable honours. ``benchmarks/`` drives these; users can too::

    from repro.experiments import registry
    from repro.experiments.options import RunOptions
    result = registry.get("fig8").run(RunOptions(jobs=4))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List

from . import (
    comparison,
    orchestration,
    power_mgmt,
    resilience,
    tail_at_scale,
    validation,
)
from .options import RunOptions

#: What every validation figure's sweep pair honours.
_SWEEP = frozenset({"jobs", "run_dir", "audit", "trace_dir"})
#: ...plus what the figures whose builders carry a sharded runner add.
_SHARDED_SWEEP = _SWEEP | {"slo", "scrape", "shards", "shard_tuning"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible evaluation artifact.

    *capabilities* names the run knobs the runner honours; a runner
    that declares any takes the whole :class:`RunOptions` as
    ``options=``, one that declares none is called without it.
    """

    exp_id: str
    paper_ref: str
    title: str
    runner: Callable[..., Any]
    capabilities: FrozenSet[str] = frozenset()

    def run(self, options: RunOptions = RunOptions(), **kwargs: Any) -> Any:
        """Run the experiment under *options*; *kwargs* go to the runner.

        Asking for a knob the runner does not honour is one error that
        names every such knob, never a silent no-op — except ``jobs``,
        which inherently serial experiments (timelines, single
        simulations) ignore."""
        options.require(self.capabilities, f"experiment {self.exp_id!r}")
        if not self.capabilities:
            return self.runner(**kwargs)
        return self.runner(options=options, **kwargs)


_SPECS: List[ExperimentSpec] = [
    ExperimentSpec(
        "fig5", "Figure 5",
        "2-tier NGINX-memcached validation across concurrency configs",
        validation.fig5_two_tier,
        _SHARDED_SWEEP,
    ),
    ExperimentSpec(
        "fig6", "Figure 6",
        "3-tier NGINX-memcached-MongoDB validation",
        validation.fig6_three_tier,
        _SWEEP,
    ),
    ExperimentSpec(
        "fig8", "Figure 8",
        "Load balancing validation (scale-out 4/8/16)",
        validation.fig8_load_balancing,
        _SWEEP,
    ),
    ExperimentSpec(
        "fig10", "Figure 10",
        "Request fanout validation (fanout 4..16)",
        validation.fig10_fanout,
        _SWEEP,
    ),
    ExperimentSpec(
        "fig12a", "Figure 12(a)",
        "Apache Thrift echo RPC validation",
        validation.fig12a_thrift,
        _SWEEP,
    ),
    ExperimentSpec(
        "fig12b", "Figure 12(b)",
        "Social Network end-to-end validation",
        validation.fig12b_social_network,
        _SHARDED_SWEEP,
    ),
    ExperimentSpec(
        "fig13_nginx", "Figure 13 (left)",
        "uqSim vs BigHouse: single-process NGINX",
        comparison.nginx_panel,
    ),
    ExperimentSpec(
        "fig13_memcached", "Figure 13 (right)",
        "uqSim vs BigHouse: 4-thread memcached",
        comparison.memcached_panel,
    ),
    ExperimentSpec(
        "fig14", "Figure 14",
        "Tail at scale: fanout with slow servers",
        tail_at_scale.tail_at_scale_sweep,
        tail_at_scale.CAPABILITIES,
    ),
    ExperimentSpec(
        "retry_storm", "beyond the paper",
        "Retry-storm metastability: goodput under overload with "
        "no/unbudgeted/budgeted retries",
        resilience.retry_storm_sweep,
    ),
    ExperimentSpec(
        "hedging", "beyond the paper",
        "Hedged requests on the 100-replica straggler tier "
        "(p99 vs hedge delay)",
        resilience.hedging_sweep,
    ),
    ExperimentSpec(
        "node_failure", "beyond the paper",
        "Self-healing: machine kill, rescheduling onto survivors, "
        "goodput recovery",
        orchestration.node_failure_experiment,
        orchestration.NODE_FAILURE_CAPABILITIES,
    ),
    ExperimentSpec(
        "rollout", "beyond the paper",
        "SLO-gated canary deploys: regressed versions roll back, "
        "clean ones promote",
        orchestration.rollout_experiment,
        orchestration.ROLLOUT_CAPABILITIES,
    ),
    ExperimentSpec(
        "fig16", "Figure 16",
        "Power management timeline under diurnal load",
        power_mgmt.fig16_timeline,
        frozenset({"slo"}),
    ),
    ExperimentSpec(
        "table3", "Table III",
        "Power management QoS violation rates vs decision interval",
        power_mgmt.violation_table,
    ),
]

_BY_ID: Dict[str, ExperimentSpec] = {spec.exp_id: spec for spec in _SPECS}


def get(exp_id: str) -> ExperimentSpec:
    """Look up an experiment by id (e.g. ``"fig8"``)."""
    try:
        return _BY_ID[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(_BY_ID)}"
        ) from None


def all_experiments() -> List[ExperimentSpec]:
    """Every registered experiment, in paper order."""
    return list(_SPECS)
