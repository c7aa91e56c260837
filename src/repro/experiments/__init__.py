"""Experiment harness: load sweeps, validation experiment definitions,
the tail-at-scale and power-management studies, the BigHouse
comparison, and the figure/table registry."""

from . import (
    audit,
    comparison,
    options,
    orchestration,
    power_mgmt,
    registry,
    resilience,
    tail_at_scale,
    validation,
)
from .audit import audit_client, audit_sharded_run
from .orchestration import (
    NodeFailurePoint,
    RolloutPoint,
    build_cluster_world,
    node_failure_experiment,
    rollout_experiment,
)
from .options import RunOptions
from .replication import ReplicatedPoint, replicate_at_load
from .loadsweep import (
    SweepPoint,
    find_shard_journal,
    load_latency_sweep,
    measure_at_load,
    measure_vanilla_point,
    saturation_load,
    shard_journal_name,
)

__all__ = [
    "NodeFailurePoint",
    "ReplicatedPoint",
    "RolloutPoint",
    "RunOptions",
    "SweepPoint",
    "audit",
    "audit_client",
    "audit_sharded_run",
    "build_cluster_world",
    "comparison",
    "find_shard_journal",
    "load_latency_sweep",
    "measure_at_load",
    "measure_vanilla_point",
    "node_failure_experiment",
    "options",
    "orchestration",
    "power_mgmt",
    "registry",
    "replicate_at_load",
    "resilience",
    "rollout_experiment",
    "saturation_load",
    "shard_journal_name",
    "tail_at_scale",
    "validation",
]
