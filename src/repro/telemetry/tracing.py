"""Structured request tracing: spans, attempts, and resilience events.

The dispatcher's original tracing stored per-node enter times in a flat
``metadata["trace_enter"][node]`` dict, so a retried or hedged re-visit
of a node silently overwrote the earlier timestamp and the losing
attempt could emit a span carrying the winner's timings. This module
replaces those tuples with a first-class model:

* a :class:`Trace` per sampled request, holding
* one :class:`Span` per (attempt, node) visit — sibling attempts get
  sibling spans instead of clobbering each other — each with a
  queueing / service / network time breakdown, and
* :class:`SpanEvent` markers for resilience actions (timeout fired,
  retry scheduled, hedge launched, attempt cancelled, breaker
  rejection, shed).

:class:`TraceConfig` controls sampling (to bound memory at high request
counts) and whether the per-span breakdown is computed;
:class:`Tracer` owns the sampling decision and collects every sampled
trace for export (:mod:`repro.telemetry.export` writes Perfetto and
OTLP-style JSON). :mod:`repro.analysis.critical_path` consumes the
spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ReproError

#: Span terminal states. A span with ``leave is None`` is still open.
SPAN_OK = "ok"
SPAN_CANCELLED = "cancelled"


@dataclass
class SpanEvent:
    """A point-in-time marker on a trace (resilience actions)."""

    t: float
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One node visit by one attempt of a traced request.

    ``enter`` is stamped when the dispatcher sends the message towards
    the chosen instance; ``leave`` when the node's job completes (or
    when the attempt is cancelled, with ``status="cancelled"``). The
    breakdown decomposes the span:

    * ``network`` — dispatch until the instance accepted the job (wire
      delay plus any network-processing services on the way),
    * ``queueing`` — acceptance until the job first reached a core,
    * ``service`` — first core dispatch until completion (includes
      inter-stage queueing and I/O inside the instance).

    The three always sum to the span duration.
    """

    node: str
    instance: str
    service: str
    attempt: int
    enter: float
    leave: Optional[float] = None
    status: str = "open"
    network: float = 0.0
    queueing: float = 0.0
    service_time: float = 0.0
    #: Name of the upstream hop that dispatched into this node — the
    #: parent instance, or the client name at the tree roots. Drives
    #: the RED dependency-graph extraction in
    #: :mod:`repro.analysis.trace_analytics`: one span per traversal of
    #: one (upstream, service) edge mirrors the dispatcher's
    #: ``edge_requests_total`` counter exactly.
    upstream: str = ""

    @property
    def closed(self) -> bool:
        return self.leave is not None

    @property
    def duration(self) -> float:
        if self.leave is None:
            raise ReproError(
                f"span {self.node!r} (attempt {self.attempt}) is still open"
            )
        return self.leave - self.enter

    def finish(
        self,
        t: float,
        job: Optional[object] = None,
        status: str = SPAN_OK,
        breakdown: bool = True,
    ) -> "Span":
        """Close the span at *t*, deriving the breakdown from *job*'s
        lifecycle timestamps (``created_at`` = accepted by the
        instance, ``first_dispatch_at`` = first time on a core).

        Timestamps a cancelled attempt never reached are clamped to
        *t*, so ``network + queueing + service`` equals the duration
        for every closed span, cancelled or not. With
        ``breakdown=False`` the whole duration is booked as service
        time.
        """
        if self.leave is not None:
            return self
        self.leave = t
        self.status = status
        if not breakdown or job is None:
            self.service_time = t - self.enter
            return self
        created = getattr(job, "created_at", None)
        first = getattr(job, "first_dispatch_at", None)
        created = t if created is None else min(max(created, self.enter), t)
        first = t if first is None else min(max(first, created), t)
        self.network = created - self.enter
        self.queueing = first - created
        self.service_time = t - first
        return self


class Trace:
    """The span record of one sampled request across all its attempts."""

    __slots__ = (
        "request_id",
        "request_type",
        "created_at",
        "completed_at",
        "outcome",
        "spans",
        "events",
        "breakdown",
    )

    def __init__(
        self,
        request_id: int,
        request_type: str = "default",
        created_at: float = 0.0,
        breakdown: bool = True,
    ) -> None:
        self.request_id = request_id
        self.request_type = request_type
        self.created_at = created_at
        self.completed_at: Optional[float] = None
        self.outcome: Optional[str] = None
        self.spans: List[Span] = []
        self.events: List[SpanEvent] = []
        self.breakdown = breakdown

    def start_span(
        self,
        node: str,
        instance: str,
        service: str,
        attempt: int,
        enter: float,
        upstream: str = "",
    ) -> Span:
        span = Span(node, instance, service, attempt, enter, upstream=upstream)
        self.spans.append(span)
        return span

    def add_event(self, t: float, name: str, **attrs: Any) -> SpanEvent:
        event = SpanEvent(t, name, attrs)
        self.events.append(event)
        return event

    def finish(self, t: float, outcome: str) -> None:
        self.completed_at = t
        self.outcome = outcome

    @property
    def attempts(self) -> int:
        """Number of attempts that produced at least one span."""
        if not self.spans:
            return 0
        return len({span.attempt for span in self.spans})

    def spans_for_attempt(self, attempt: int) -> List[Span]:
        return [span for span in self.spans if span.attempt == attempt]

    def completed_spans(self, include_cancelled: bool = False) -> List[Span]:
        """Closed spans, by default only successfully completed ones."""
        return [
            span
            for span in self.spans
            if span.closed
            and (include_cancelled or span.status == SPAN_OK)
        ]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return (
            f"<Trace req={self.request_id} spans={len(self.spans)} "
            f"attempts={self.attempts} outcome={self.outcome}>"
        )


@dataclass
class TraceConfig:
    """Tracing knobs carried by ``Dispatcher(trace=...)``.

    ``sample_rate`` traces that fraction of submitted requests (drawn
    on a dedicated, seeded RNG stream, so sampling is reproducible);
    ``breakdown`` toggles the per-span queueing/service/network
    decomposition; ``max_traces`` hard-caps how many traces the
    :class:`Tracer` retains (further sampled requests are dropped and
    counted), bounding memory at any request volume.
    """

    sample_rate: float = 1.0
    breakdown: bool = True
    max_traces: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ReproError(
                f"sample_rate must be in [0, 1], got {self.sample_rate!r}"
            )
        if self.max_traces is not None and self.max_traces < 1:
            raise ReproError(
                f"max_traces must be >= 1, got {self.max_traces!r}"
            )


def trace_active(trace: Any, trace_dir: Any = None) -> bool:
    """Would this trace/trace_dir pair actually sample anything?

    ``trace_dir`` alone implies default tracing; a :class:`TraceConfig`
    with ``sample_rate=0`` is a configured no-op — not a reason to
    block a knob, or to ship telemetry home from shard workers.
    """
    if trace_dir is not None:
        return True
    if isinstance(trace, TraceConfig):
        return trace.sample_rate > 0
    return bool(trace)


class Tracer:
    """Owns the sampling decision and the collected traces."""

    def __init__(
        self,
        config: Optional[TraceConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config or TraceConfig()
        self._rng = rng
        self.traces: List[Trace] = []
        self.sampled = 0
        self.unsampled = 0
        self.dropped = 0  # sampled but over the max_traces cap

    def start_trace(self, request) -> Optional[Trace]:
        """Begin a trace for *request*, or ``None`` when it is sampled
        out (or the retention cap is hit)."""
        rate = self.config.sample_rate
        if rate <= 0.0:
            self.unsampled += 1
            return None
        if rate < 1.0:
            if self._rng is None:
                raise ReproError(
                    "probabilistic trace sampling needs an RNG stream"
                )
            if self._rng.random() >= rate:
                self.unsampled += 1
                return None
        cap = self.config.max_traces
        if cap is not None and len(self.traces) >= cap:
            self.dropped += 1
            return None
        trace = Trace(
            request.request_id,
            request.request_type,
            created_at=request.created_at,
            breakdown=self.config.breakdown,
        )
        self.traces.append(trace)
        self.sampled += 1
        return trace

    def __repr__(self) -> str:
        return (
            f"<Tracer sampled={self.sampled} unsampled={self.unsampled} "
            f"dropped={self.dropped}>"
        )
