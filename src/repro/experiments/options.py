"""Run options: the knobs every sweep and registry run threads through.

A :class:`RunOptions` is built once — by the CLI, a benchmark, or a
caller — and passed whole to the registry, the figure runners and the
sweeps. Every rule that spans knobs lives here: validation in
``__post_init__``, which capabilities are in use (:attr:`requested`),
where sharded replay journals mirror (:attr:`shard_journal_dir`), and
the knob part of each sweep's journal config (:meth:`journal_config`),
so a new knob cannot forget to join the journal key.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..faults import FaultPlan
from ..telemetry.slo import SLO, parse_slo
from ..telemetry.tracing import TraceConfig

#: How a sweep accepts SLOs: one spec string / SLO, or a sequence.
SLOSpec = Union[str, SLO, Sequence[Union[str, SLO]]]

#: Capability names a runner can declare, in the order an error lists
#: them, with the knob each one names. ``jobs`` is declarative only:
#: parallelism is a hint that serial runners ignore, never an error.
CAPABILITIES: Dict[str, str] = {
    "jobs": "jobs",
    "run_dir": "run_dir",
    "audit": "audit",
    "trace_dir": "trace_dir",
    "slo": "slo",
    "scrape": "scrape_interval",
    "fault_plan": "fault_plan",
    "shards": "the sharded parallel core (--shards)",
    "shard_tuning": "the shard supervisor knobs "
                    "(--shard-timeout/--shard-restarts)",
}


def resolve_slos(slo: Optional[SLOSpec], window: float) -> List[SLO]:
    """Normalise an ``--slo`` style argument into :class:`SLO` objects
    (spec strings parse with the given evaluation *window*)."""
    if slo is None:
        return []
    if isinstance(slo, (str, SLO)):
        slo = [slo]
    return [
        parse_slo(entry, window=window) if isinstance(entry, str) else entry
        for entry in slo
    ]


@dataclass(frozen=True)
class RunOptions:
    """How to run an experiment, as opposed to what it measures.

    ``jobs``/``retries``/``timeout`` drive the process fan-out
    (:func:`~repro.runner.parallel_map`); ``run_dir``/``resume``
    journal completed points for durable restarts; ``audit`` runs the
    request-conservation check; ``fault_plan`` arms injected faults;
    ``trace_dir`` exports request traces, sampled per ``trace`` (a
    ``trace_dir`` alone implies default tracing); ``slo`` attaches live
    objectives (spec strings or :class:`SLO` objects; a single one is
    accepted too); ``scrape_interval`` samples sim-time timelines; and
    ``shards``/``shard_timeout``/``shard_restarts`` select and tune the
    sharded parallel core.
    """

    jobs: int = 1
    run_dir: Optional[Union[str, Path]] = None
    resume: bool = True
    retries: int = 0
    timeout: Optional[float] = None
    audit: bool = False
    fault_plan: Optional[FaultPlan] = None
    trace: Optional[TraceConfig] = None
    trace_dir: Optional[Union[str, Path]] = None
    slo: Tuple[Union[str, SLO], ...] = ()
    scrape_interval: Optional[float] = None
    shards: int = 1
    shard_timeout: Optional[float] = None
    shard_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        slo = (self.slo,) if isinstance(self.slo, (str, SLO)) else self.slo
        object.__setattr__(self, "slo", tuple(slo))
        if self.trace is not None and self.trace_dir is None:
            raise ReproError(
                "a trace config (--trace-sample) needs a trace_dir "
                "(--trace-dir) to export the sampled traces to"
            )
        if self.shards < 1:
            raise ReproError(f"--shards must be >= 1, got {self.shards}")
        if self.shards == 1:
            if "shard_tuning" in self.requested:
                raise ReproError(
                    "--shard-timeout/--shard-restarts tune the shard "
                    "supervisor; they need --shards N"
                )
            if self.fault_plan is not None and self.fault_plan.shard_faults():
                raise ReproError(
                    "fault plan carries shard_kill/shard_hang faults, which "
                    "target the sharded execution layer; run with --shards N"
                )

    @property
    def point_trace(self) -> Union[bool, TraceConfig]:
        """The ``trace`` argument per-point bodies take: the config,
        ``True`` when only ``trace_dir`` was set, else ``False``."""
        if self.trace is not None:
            return self.trace
        return self.trace_dir is not None

    @property
    def requested(self) -> FrozenSet[str]:
        """The capability names (:data:`CAPABILITIES`) in use."""
        used = {
            "run_dir": self.run_dir is not None,
            "audit": self.audit,
            "trace_dir": self.trace_dir is not None,
            "slo": bool(self.slo),
            "scrape": self.scrape_interval is not None,
            "fault_plan": self.fault_plan is not None,
            "shards": self.shards > 1,
            "shard_tuning": (
                self.shard_timeout is not None
                or self.shard_restarts is not None
            ),
        }
        return frozenset(name for name, on in used.items() if on)

    def require(self, capabilities: FrozenSet[str], owner: str) -> None:
        """Raise one :class:`ReproError` naming every knob in use that
        *owner* does not declare in *capabilities*."""
        unsupported = [
            label for name, label in CAPABILITIES.items()
            if name in self.requested and name not in capabilities
        ]
        if unsupported:
            raise ReproError(
                f"{owner} does not support {', '.join(unsupported)}"
            )

    @property
    def shard_journal_dir(self) -> Optional[Path]:
        """Where sharded points mirror their replay journals, so a
        post-mortem can verify recovery digests."""
        if self.run_dir is None or self.shards == 1:
            return None
        return Path(self.run_dir) / "shard_journals"

    def journal_config(self) -> Dict[str, Any]:
        """The knob part of a sweep's journal config.

        ``audit`` always joins; every other knob joins only when on, so
        the keys of sweeps journaled before that knob existed never
        change — and a traced, scraped or sharded rerun never silently
        reuses points measured without it. ``fault_plan`` is left to
        each sweep, whose encodings predate this method. ``trace_dir``
        itself and the operational knobs (jobs, retries, timeouts,
        supervisor tuning) never join: moving an output directory or
        retuning a worker cannot change a result.
        """
        config: Dict[str, Any] = {"audit": self.audit}
        if self.trace_dir is not None:
            config["trace"] = (
                repr(self.trace) if self.trace is not None else True
            )
        if self.slo:
            config["slo"] = [s.name for s in resolve_slos(self.slo, 1.0)]
        if self.scrape_interval is not None:
            config["scrape"] = self.scrape_interval
        if self.shards != 1:
            config["shards"] = self.shards
        return config
