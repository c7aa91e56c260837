"""The central dispatcher.

Paper SSIII-A: "uqSim is an event-driven simulator, and uses a
centralized scheduler to dispatch requests to the appropriate
microservices instances."

The dispatcher walks each request through its path tree:

1. pick the tree for the request (by request type, or probabilistically
   when the application "exhibits control flow variability");
2. enter each root node: choose an instance (load balancer or
   ``same_instance_as`` affinity), check out a connection, apply
   enter-ops (http1.1-style blocking), route the message over the
   network — through the per-machine network-processing services for
   cross-machine hops — and hand the job to the instance;
3. on job completion apply leave-ops, then fan out copies to children,
   entering each child only once all of its parents completed (fan-in
   synchronisation);
4. when every sink node has completed, send the response back to the
   client and fire the completion callback.

On top of that request walk sits the resilience layer
(:mod:`repro.resilience`): a request submitted with a
:class:`~repro.resilience.ResiliencePolicy` may be shed at admission,
timed out mid-flight (with real cancellation — queue slots, blocks and
connections are reclaimed), retried with backoff under a retry budget,
hedged with cancel-on-first-response, or failed fast by a per
(upstream, service) circuit breaker. Every request resolves with a
terminal ``outcome`` (``ok``/``timeout``/``shed``/``failed``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine import PRIORITY_ARRIVAL, Simulator
from ..distributions import WeightedIndex
from ..errors import DistributionError, TopologyError
from ..hardware import NetworkFabric
from ..resilience import CircuitBreaker, ResiliencePolicy
from ..service import Connection, Job, Microservice, Request
from ..service.job import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SHED,
    OUTCOME_TIMEOUT,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracing import SPAN_CANCELLED, Span, TraceConfig, Tracer
from .deployment import Deployment
from .load_balancer import NoHealthyInstance
from .path_tree import NodeOp, PathNode, PathTree


class _RequestGroup:
    """Book-keeping for one logical request across all its attempts.

    The group owns the resilience decisions (shed / retry / hedge /
    resolve); each traversal of the path tree — primary, retry, or
    hedge — is a :class:`_RequestState`.
    """

    __slots__ = (
        "request",
        "policy",
        "on_complete",
        "client_name",
        "client_machine",
        "states",
        "resolved",
        "hedges",
        "hedge_event",
        "trace",
    )

    def __init__(
        self,
        request: Request,
        policy: Optional[ResiliencePolicy],
        on_complete: Optional[Callable[[Request], None]],
        client_name: str,
        client_machine: str,
    ) -> None:
        self.request = request
        self.policy = policy
        self.on_complete = on_complete
        self.client_name = client_name
        self.client_machine = client_machine
        self.states: List[_RequestState] = []
        self.resolved = False
        self.hedges = 0
        self.hedge_event = None
        # The request's Trace when it was sampled for tracing.
        self.trace = None

    def live_states(self) -> List["_RequestState"]:
        """Attempts still traversing the tree."""
        return [s for s in self.states if not s.cancelled and not s.finished]


class _RequestState:
    """Book-keeping for one in-flight traversal (attempt) of the tree."""

    __slots__ = (
        "group",
        "tree",
        "attempt",
        "node_instance",
        "node_conn",
        "node_job",
        "node_upstream",
        "entered",
        "left",
        "arrivals",
        "pending_sinks",
        "used_conns",
        "cancelled",
        "finished",
        "timeout_event",
        "spans",
    )

    def __init__(self, group: _RequestGroup, tree: PathTree) -> None:
        self.group = group
        self.tree = tree
        # Attempt id: 0 for the primary, 1.. for retries/hedges. Spans
        # are keyed (attempt, node) so re-visits never clobber earlier
        # attempts' timestamps.
        self.attempt = len(group.states)
        self.node_instance: Dict[str, Microservice] = {}
        self.node_conn: Dict[str, Optional[Connection]] = {}
        self.node_job: Dict[str, Job] = {}
        self.node_upstream: Dict[str, str] = {}
        self.entered: Dict[str, bool] = {}
        self.left: Dict[str, bool] = {}
        self.arrivals: Dict[str, int] = {}
        self.pending_sinks = len(tree.sinks)
        self.used_conns: List[Connection] = []
        self.cancelled = False
        self.finished = False
        self.timeout_event = None
        # This attempt's open/closed spans by node name (traced only).
        self.spans: Dict[str, Span] = {} if group.trace is not None else None

    @property
    def request(self) -> Request:
        return self.group.request


class Dispatcher:
    """Routes requests through path trees over a deployment."""

    def __init__(
        self,
        sim: Simulator,
        deployment: Deployment,
        network: Optional[NetworkFabric] = None,
        trace: Union[bool, TraceConfig] = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """With tracing on (``trace=True`` for defaults, or a
        :class:`~repro.telemetry.tracing.TraceConfig` for sampling /
        breakdown control), every sampled request carries a
        :class:`~repro.telemetry.tracing.Trace` of attempt-aware spans
        in ``request.metadata["trace"]`` — the raw material for
        critical-path analysis and the Perfetto/OTLP exporters. With a
        :class:`~repro.telemetry.metrics.MetricsRegistry` attached via
        *metrics*, the dispatcher additionally feeds aggregate
        counters/histograms (outcomes, retries, hedges, per-edge
        traffic, end-to-end latency)."""
        self.sim = sim
        self.deployment = deployment
        self.network = network or NetworkFabric()
        self._tracer: Optional[Tracer] = None
        self.trace = trace
        self.metrics = metrics
        self._rng = sim.random.stream("dispatcher")
        # Wire-delay jitter draws, block-buffered on a dedicated stream
        # (two draws per request hop — a hot path under heavy traffic).
        self._net_delay = self.network.delay_sampler(
            sim.random.stream("dispatcher/network")
        )
        self._trees: List[Tuple[PathTree, float]] = []
        # Draw table over ``_trees``' weights: built by the first pick
        # after the trees change, so add_tree only has to drop it.
        self._tree_index: Optional[WeightedIndex] = None
        self._trees_by_type: Dict[str, PathTree] = {}
        self._trees_by_name: Dict[str, PathTree] = {}
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        # Telemetry.
        self.requests_submitted = 0
        self.requests_completed = 0
        self.requests_timed_out = 0
        self.requests_failed = 0
        self.requests_shed = 0
        self.attempts_launched = 0
        self.retries_issued = 0
        self.hedges_issued = 0
        self.fallbacks_served = 0
        self.messages_dropped = 0
        self._outcome_listeners: List[Callable[[Request], None]] = []

    # Tracing --------------------------------------------------------------

    @property
    def trace(self) -> Union[bool, TraceConfig]:
        """The active :class:`TraceConfig`, or ``False`` when tracing
        is off — so ``if dispatcher.trace:`` keeps working."""
        return self._tracer.config if self._tracer is not None else False

    @trace.setter
    def trace(self, value: Union[bool, TraceConfig, None]) -> None:
        """Turn tracing on (``True`` / a :class:`TraceConfig`) or off
        (falsy). Sampling draws come from a dedicated seeded stream, so
        traced runs stay reproducible."""
        if not value:
            self._tracer = None
            return
        config = value if isinstance(value, TraceConfig) else TraceConfig()
        self._tracer = Tracer(
            config, rng=self.sim.random.stream("dispatcher/trace")
        )

    @property
    def tracer(self) -> Optional[Tracer]:
        """The live :class:`Tracer` (collected traces, sampling
        counters), or ``None`` when tracing is off."""
        return self._tracer

    # Tree registration ---------------------------------------------------

    def add_tree(
        self,
        tree: PathTree,
        probability: Optional[float] = None,
        request_type: Optional[str] = None,
    ) -> PathTree:
        """Register a path tree.

        With *request_type*, requests of that type always use this tree.
        With *probability*, untyped requests draw among the weighted
        trees. A single tree registered with neither serves everything.
        Every tree is additionally addressable by its name — admission
        control's graceful-degradation fallback refers to trees that
        way.
        """
        tree.validate()
        if request_type is not None:
            if request_type in self._trees_by_type:
                raise TopologyError(
                    f"request type {request_type!r} already has a tree"
                )
            self._trees_by_type[request_type] = tree
        else:
            self._trees.append((tree, 1.0 if probability is None else probability))
            self._tree_index = None
        self._trees_by_name.setdefault(tree.name, tree)
        return tree

    def add_fallback_tree(self, tree: PathTree) -> PathTree:
        """Register a tree reachable ONLY as a degradation fallback
        (never picked for regular traffic)."""
        tree.validate()
        if tree.name in self._trees_by_name:
            raise TopologyError(f"tree {tree.name!r} already registered")
        self._trees_by_name[tree.name] = tree
        return tree

    def _pick_tree(self, request: Request) -> PathTree:
        by_type = self._trees_by_type.get(request.request_type)
        if by_type is not None:
            return by_type
        if not self._trees:
            raise TopologyError(
                f"no path tree for request type {request.request_type!r} "
                f"and no default trees registered"
            )
        if len(self._trees) == 1:
            return self._trees[0][0]
        index = self._tree_index
        if index is None:
            weights = np.array([w for _, w in self._trees], dtype=float)
            total = weights.sum()
            if not math.isclose(total, 1.0, rel_tol=1e-9):
                raise TopologyError(
                    f"tree probabilities must sum to 1, got {total!r}"
                )
            try:
                index = self._tree_index = WeightedIndex(weights)
            except DistributionError as exc:
                raise TopologyError(f"tree probabilities: {exc}") from None
        return self._trees[index.draw(self._rng)][0]

    # Outcome listeners ----------------------------------------------------

    def on_outcome(self, listener: Callable[[Request], None]) -> None:
        """Register a listener fired at every request resolution (any
        outcome) — availability monitors subscribe here."""
        self._outcome_listeners.append(listener)

    # Request lifecycle ----------------------------------------------------

    def submit(
        self,
        request: Request,
        on_complete: Optional[Callable[[Request], None]] = None,
        client_name: str = "client",
        client_machine: str = "client",
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        """Inject *request* from a client located on *client_machine*.

        *policy* switches on the resilience layer for this request;
        without it the request traverses exactly as before (and still
        resolves with outcome ``ok``).
        """
        self.requests_submitted += 1
        group = _RequestGroup(
            request, policy, on_complete, client_name, client_machine
        )
        if self._tracer is not None:
            group.trace = self._tracer.start_trace(request)
            if group.trace is not None:
                request.metadata["trace"] = group.trace
        if policy is not None and policy.retry is not None:
            if policy.retry.budget is not None:
                policy.retry.budget.note_primary()
        if policy is not None and policy.hedge is not None:
            group.hedge_event = self.sim.schedule(
                policy.hedge.delay, self._on_hedge, group
            )
        self._launch_attempt(group)

    def _launch_attempt(self, group: _RequestGroup, hedge: bool = False) -> None:
        """Run one traversal of the path tree for *group*."""
        policy = group.policy
        tree = self._pick_tree(group.request)
        if not hedge and policy is not None and policy.admission is not None:
            shed_tree = self._admission_decision(policy, tree)
            if shed_tree is False:
                if group.trace is not None:
                    group.trace.add_event(self.sim.now, "shed")
                self._resolve(group, OUTCOME_SHED)
                return
            if shed_tree is not None:
                tree = shed_tree
                group.request.metadata["degraded"] = True
                self.fallbacks_served += 1
                if group.trace is not None:
                    group.trace.add_event(
                        self.sim.now, "degraded", tree=tree.name
                    )
        state = _RequestState(group, tree)
        group.states.append(state)
        group.request.attempts += 1
        self.attempts_launched += 1
        if policy is not None and policy.timeout is not None:
            state.timeout_event = self.sim.schedule(
                policy.timeout, self._on_timeout, state
            )
        for root in tree.roots:
            if state.cancelled or group.resolved:
                break
            self._enter_node(state, root, src_instance=None, parent_conn=None)

    def _admission_decision(self, policy, tree):
        """None = admit; False = shed; a PathTree = degrade onto it."""
        admission = policy.admission
        entry_service = tree.roots[0].service
        try:
            replicas = self.deployment.instances(entry_service)
        except TopologyError:
            return None
        alive = [r for r in replicas if getattr(r, "healthy", True)]
        if not alive:
            return None  # routing will fail properly downstream
        pending = min(inst.pending_dispatch for inst in alive)
        if not admission.sheds(pending):
            return None
        if admission.fallback_tree is not None:
            fallback = self._trees_by_name.get(admission.fallback_tree)
            if fallback is None:
                raise TopologyError(
                    f"admission fallback_tree {admission.fallback_tree!r} "
                    f"is not a registered tree"
                )
            return fallback
        return False

    # Resilience timers ----------------------------------------------------

    def _on_timeout(self, state: _RequestState) -> None:
        group = state.group
        if group.resolved or state.cancelled or state.finished:
            return
        if group.trace is not None:
            group.trace.add_event(
                self.sim.now, "timeout_fired", attempt=state.attempt
            )
        self._record_breaker_failures(state)
        self._attempt_failed(state, OUTCOME_TIMEOUT)

    def _on_hedge(self, group: _RequestGroup) -> None:
        group.hedge_event = None
        policy = group.policy
        if group.resolved or policy is None or policy.hedge is None:
            return
        if not group.live_states():
            return  # between retries; nothing to hedge against
        if group.hedges >= policy.hedge.max_hedges:
            return
        group.hedges += 1
        self.hedges_issued += 1
        if self.metrics is not None:
            self.metrics.counter("hedges_total").inc()
        if group.trace is not None:
            group.trace.add_event(
                self.sim.now, "hedge_launched", attempt=len(group.states)
            )
        self._launch_attempt(group, hedge=True)
        if group.hedges < policy.hedge.max_hedges:
            group.hedge_event = self.sim.schedule(
                policy.hedge.delay, self._on_hedge, group
            )

    # Failure / cancellation ----------------------------------------------

    def _attempt_failed(self, state: _RequestState, outcome: str) -> None:
        """One attempt died; retry, wait for a live hedge, or resolve."""
        group = state.group
        self._cancel_state(state)
        if group.resolved or group.live_states():
            return
        policy = group.policy
        if policy is not None and policy.retry is not None:
            retry = policy.retry
            if retry.allows(group.request.attempts) and (
                retry.budget is None or retry.budget.try_spend()
            ):
                self.retries_issued += 1
                if self.metrics is not None:
                    self.metrics.counter("retries_total").inc()
                delay = retry.backoff(group.request.attempts + 1, self._rng)
                if group.trace is not None:
                    group.trace.add_event(
                        self.sim.now, "retry_scheduled",
                        attempt=len(group.states), delay=delay,
                    )
                self.sim.schedule(delay, self._relaunch, group)
                return
        self._resolve(group, outcome)

    def _relaunch(self, group: _RequestGroup) -> None:
        if group.resolved:
            return
        self._launch_attempt(group)

    def _cancel_state(self, state: _RequestState) -> None:
        """Reclaim everything a traversal holds: queue slots, blocks,
        connections, and the per-instance in-flight counters."""
        if state.cancelled or state.finished:
            return
        state.cancelled = True
        if state.timeout_event is not None:
            self.sim.cancel(state.timeout_event)
            state.timeout_event = None
        trace = state.group.trace
        if trace is not None:
            # Close this attempt's open spans with ITS timestamps — a
            # losing hedge must never report the winner's timings.
            trace.add_event(
                self.sim.now, "attempt_cancelled", attempt=state.attempt
            )
            for span in state.spans.values():
                if not span.closed:
                    span.finish(
                        self.sim.now,
                        job=state.node_job.get(span.node),
                        status=SPAN_CANCELLED,
                        breakdown=trace.breakdown,
                    )
        request_id = state.request.request_id
        for name, job in state.node_job.items():
            job.cancelled = True
            if job.service is not None:
                job.service.cancel_job(job)
        for name, instance in state.node_instance.items():
            if state.entered.get(name) and not state.left.get(name):
                instance.pending_dispatch -= 1
                state.left[name] = True
        seen = set()
        for conn in state.node_conn.values():
            if conn is None or id(conn) in seen:
                continue
            seen.add(id(conn))
            conn.abandon(request_id)
        for conn in state.used_conns:
            conn.outstanding -= 1
        state.used_conns = []

    def _on_job_fail(self, state: _RequestState, node: PathNode, job: Job) -> None:
        """An instance crashed with (or refused) this attempt's job."""
        group = state.group
        if group.resolved or state.cancelled or state.finished:
            return
        breaker = self._breaker_for(state, node)
        if breaker is not None:
            breaker.record_failure(self.sim.now)
        self._attempt_failed(state, OUTCOME_FAILED)

    def _record_breaker_failures(self, state: _RequestState) -> None:
        """Attribute a timeout to every node entered but never left."""
        if state.group.policy is None or state.group.policy.breaker is None:
            return
        for name in state.node_instance:
            if state.entered.get(name) and not state.left.get(name):
                node = state.tree.node(name)
                breaker = self._breaker_for(state, node)
                if breaker is not None:
                    breaker.record_failure(self.sim.now)

    def _breaker_for(
        self, state: _RequestState, node: PathNode
    ) -> Optional[CircuitBreaker]:
        policy = state.group.policy
        if policy is None or policy.breaker is None:
            return None
        upstream = state.node_upstream.get(node.name, state.group.client_name)
        key = (upstream, node.service)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(policy.breaker)
            self._breakers[key] = breaker
        return breaker

    def breaker(self, upstream: str, service: str) -> Optional[CircuitBreaker]:
        """The circuit breaker guarding the (upstream, service) edge,
        if one has been created (introspection/telemetry)."""
        return self._breakers.get((upstream, service))

    # Resolution -----------------------------------------------------------

    def _resolve(self, group: _RequestGroup, outcome: str) -> None:
        """Terminal state: stamp the outcome and tell the client."""
        if group.resolved:
            return
        group.resolved = True
        if group.hedge_event is not None:
            self.sim.cancel(group.hedge_event)
            group.hedge_event = None
        for state in group.states:
            self._cancel_state(state)
            # Jobs' callbacks point back at their state: dropping the
            # tables breaks those cycles, so reference counting frees the
            # request's objects. Late callbacks of cancelled attempts
            # return on ``state.cancelled``/``group.resolved`` unread.
            state.node_job.clear()
        group.states.clear()
        request = group.request
        request.completed_at = self.sim.now
        request.outcome = outcome
        if outcome == OUTCOME_OK:
            self.requests_completed += 1
        elif outcome == OUTCOME_TIMEOUT:
            self.requests_timed_out += 1
        elif outcome == OUTCOME_SHED:
            self.requests_shed += 1
        else:
            self.requests_failed += 1
        if group.trace is not None:
            group.trace.finish(self.sim.now, outcome)
        if self.metrics is not None:
            self.metrics.counter("requests_total", outcome=outcome).inc()
            if outcome == OUTCOME_OK:
                self.metrics.histogram("request_latency_seconds").observe(
                    request.latency
                )
        for listener in self._outcome_listeners:
            listener(request)
        if group.on_complete is not None:
            group.on_complete(request)

    # Tree traversal -------------------------------------------------------

    def _resolve_instance(
        self, state: _RequestState, node: PathNode
    ) -> Microservice:
        if node.same_instance_as is not None:
            instance = state.node_instance.get(node.same_instance_as)
            if instance is None:
                raise TopologyError(
                    f"node {node.name!r}: same_instance_as "
                    f"{node.same_instance_as!r} has not been visited yet"
                )
            return instance
        replicas = self.deployment.instances(node.service)
        return self.deployment.balancer(node.service).pick(replicas, self._rng)

    def _resolve_connection(
        self,
        state: _RequestState,
        node: PathNode,
        instance: Microservice,
        src_instance: Optional[Microservice],
        parent_conn: Optional[Connection],
    ) -> Optional[Connection]:
        if node.same_instance_as is not None:
            # A continuation: the message is a *response* riding back on
            # the connection the request went out on (the triggering
            # parent's incoming connection).
            return parent_conn
        upstream_key = (
            src_instance.name if src_instance is not None
            else state.group.client_name
        )
        conn = self.deployment.pool_between(upstream_key, instance).checkout()
        conn.outstanding += 1
        state.used_conns.append(conn)
        return conn

    def _apply_op(
        self, op: Optional[NodeOp], state: _RequestState, job: Job
    ) -> None:
        if op is None:
            return
        if op.connection_of is not None:
            target = state.node_conn.get(op.connection_of)
        else:
            target = job.connection
        if target is None:
            return  # nothing to (un)block: node had no connection
        request_id = state.request.request_id
        if op.action == NodeOp.BLOCK:
            # A hedge/retry attempt may hit the same connection its
            # sibling already blocked; the block is per-request, so a
            # second registration would be an error, not a state change.
            if target.holder != request_id and not target.waiting(request_id):
                target.block(request_id)
        else:
            target.unblock(request_id)

    def _enter_node(
        self,
        state: _RequestState,
        node: PathNode,
        src_instance: Optional[Microservice],
        parent_conn: Optional[Connection],
    ) -> None:
        upstream_key = (
            src_instance.name if src_instance is not None
            else state.group.client_name
        )
        state.node_upstream[node.name] = upstream_key
        breaker = self._breaker_for(state, node)
        if breaker is not None and node.same_instance_as is None:
            if not breaker.allow(self.sim.now):
                if state.group.trace is not None:
                    state.group.trace.add_event(
                        self.sim.now, "breaker_rejected",
                        attempt=state.attempt, node=node.name,
                        service=node.service,
                    )
                self._attempt_failed(state, OUTCOME_FAILED)
                return
        try:
            instance = self._resolve_instance(state, node)
        except NoHealthyInstance:
            if breaker is not None:
                breaker.record_failure(self.sim.now)
            self._attempt_failed(state, OUTCOME_FAILED)
            return
        instance.pending_dispatch += 1
        state.entered[node.name] = True
        conn = self._resolve_connection(
            state, node, instance, src_instance, parent_conn
        )
        state.node_instance[node.name] = instance
        state.node_conn[node.name] = conn

        size = node.message_bytes(state.request.size_bytes, self._rng)
        job = Job(state.request, size_bytes=size, connection=conn)
        state.node_job[node.name] = job
        job.on_complete = lambda j, _s=state, _n=node: self._leave_node(_s, _n, j)
        job.on_fail = lambda j, _s=state, _n=node: self._on_job_fail(_s, _n, j)
        self._apply_op(node.on_enter, state, job)
        trace = state.group.trace
        if trace is not None:
            state.spans[node.name] = trace.start_span(
                node.name, instance.name, node.service,
                state.attempt, self.sim.now, upstream=upstream_key,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "edge_requests_total",
                upstream=upstream_key, service=node.service,
            ).inc()

        src_machine = (
            src_instance.machine_name
            if src_instance is not None
            else state.group.client_machine
        )
        accept = lambda: self._deliver_job(state, node, instance, job)
        if conn is not None:
            # Same-connection messages towards the same receiver are
            # delivered in send order (TCP semantics) even if the
            # simulated network completes their hops out of order.
            seq = conn.next_seq(instance.name)
            if self.network.is_partitioned(src_machine, instance.machine_name):
                # The message is lost, but its sequence slot must still
                # be consumed or every later message on this connection
                # towards the receiver would park forever.
                self.messages_dropped += 1
                conn.deliver_in_order(instance.name, seq, lambda: None)
                return
            deliver = lambda: conn.deliver_in_order(instance.name, seq, accept)
            # If the message dies en route (mid-flight partition, or a
            # down/crashing netproc relay), its sequence slot must still
            # be consumed — otherwise every later message on this
            # connection towards the receiver parks forever, wedging
            # the connection past the instance's own recovery.
            on_lost = lambda: conn.deliver_in_order(
                instance.name, seq, lambda: None
            )
        else:
            if self.network.is_partitioned(src_machine, instance.machine_name):
                self.messages_dropped += 1
                return
            deliver = accept
            on_lost = None
        self._hop(
            src_machine,
            instance.machine_name,
            size,
            state.request,
            deliver,
            on_lost,
        )

    def _deliver_job(
        self,
        state: _RequestState,
        node: PathNode,
        instance: Microservice,
        job: Job,
    ) -> None:
        """Hand the job to the instance — unless the attempt died while
        the message was in flight."""
        if state.cancelled or state.group.resolved:
            return
        instance.accept(job, node.path_id, node.path_name)

    def _leave_node(self, state: _RequestState, node: PathNode, job: Job) -> None:
        if state.cancelled or state.group.resolved:
            return  # resources were reclaimed at cancellation
        state.node_instance[node.name].pending_dispatch -= 1
        state.left[node.name] = True
        breaker = self._breaker_for(state, node)
        if breaker is not None:
            breaker.record_success()
        self._apply_op(node.on_leave, state, job)
        trace = state.group.trace
        if trace is not None:
            span = state.spans.get(node.name)
            if span is not None:
                span.finish(self.sim.now, job=job, breakdown=trace.breakdown)
        children = state.tree.children(node.name)
        if not children:
            state.pending_sinks -= 1
            if state.pending_sinks == 0:
                self._complete_request(state, node)
            return
        instance = state.node_instance[node.name]
        parent_conn = state.node_conn[node.name]
        for child in children:
            if state.cancelled or state.group.resolved:
                break  # a sibling hop tripped a breaker / failed fast
            arrived = state.arrivals.get(child.name, 0) + 1
            state.arrivals[child.name] = arrived
            if arrived == state.tree.fan_in(child.name):
                # Fan-in satisfied: the last arriving parent carries the
                # job onward (fan-out makes one copy per child).
                self._enter_node(
                    state,
                    child,
                    src_instance=instance,
                    parent_conn=parent_conn,
                )

    def _complete_request(self, state: _RequestState, last_node: PathNode) -> None:
        last_instance = state.node_instance[last_node.name]
        response_size = state.tree.response_size(
            state.request.size_bytes, self._rng
        )

        def finish() -> None:
            if state.cancelled or state.group.resolved:
                return  # lost the hedge race / timed out at the wire
            state.finished = True
            if state.timeout_event is not None:
                self.sim.cancel(state.timeout_event)
                state.timeout_event = None
            for conn in state.used_conns:
                conn.outstanding -= 1
            state.used_conns = []
            self._resolve(state.group, OUTCOME_OK)

        src_machine = last_instance.machine_name
        dst_machine = state.group.client_machine
        if self.network.is_partitioned(src_machine, dst_machine):
            self.messages_dropped += 1
            return  # response lost; only a timeout will surface it
        if state.group.trace is not None:
            state.group.trace.add_event(
                self.sim.now, "response_sent", attempt=state.attempt
            )
        self._hop(src_machine, dst_machine, response_size, state.request, finish)

    # Network routing -------------------------------------------------------

    def _hop(
        self,
        src_machine: str,
        dst_machine: str,
        size_bytes: float,
        request: Request,
        deliver: Callable[[], None],
        on_lost: Optional[Callable[[], None]] = None,
    ) -> None:
        """Route one message src -> dst.

        Cross-machine messages pass through the sender's and receiver's
        network-processing services (when deployed) around the wire
        delay; same-machine messages short-circuit through loopback.

        Exactly one of *deliver* / *on_lost* eventually runs: *on_lost*
        fires when the message is lost en route (mid-flight partition,
        or a netproc relay that is down or crashes with the message),
        so the sender can reclaim per-message resources such as the
        connection's in-order delivery slot.
        """

        def lost() -> None:
            self.messages_dropped += 1
            if on_lost is not None:
                on_lost()

        if src_machine == dst_machine:
            delay = self._net_delay.delay(src_machine, dst_machine, size_bytes)
            # Wire deliveries are fire-and-forget: cancellation happens
            # via request/attempt state checked at delivery time, never
            # by cancelling the event — so the slab applies.
            self.sim.schedule_transient(
                delay, deliver, priority=PRIORITY_ARRIVAL
            )
            return

        rx_proc = self.deployment.netproc(dst_machine)
        tx_proc = self.deployment.netproc(src_machine)

        def after_wire() -> None:
            if rx_proc is None:
                deliver()
                return
            rx_job = Job(request, size_bytes=size_bytes)
            rx_job.on_complete = lambda _j: deliver()
            rx_job.on_discard = lambda _j: lost()
            rx_proc.accept(rx_job)

        def over_wire() -> None:
            if self.network.is_partitioned(src_machine, dst_machine):
                lost()
                return  # lost on the severed link
            delay = self._net_delay.delay(src_machine, dst_machine, size_bytes)
            self.sim.schedule_transient(
                delay, after_wire, priority=PRIORITY_ARRIVAL
            )

        if tx_proc is None:
            over_wire()
            return
        tx_job = Job(request, size_bytes=size_bytes)
        tx_job.on_complete = lambda _j: over_wire()
        tx_job.on_discard = lambda _j: lost()
        tx_proc.accept(tx_job)

    def __repr__(self) -> str:
        return (
            f"<Dispatcher trees={len(self._trees) + len(self._trees_by_type)} "
            f"in-flight={self.requests_submitted - self.requests_completed - self.requests_timed_out - self.requests_failed - self.requests_shed}>"
        )
