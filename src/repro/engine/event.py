"""Simulation events.

uqSim is a discrete-event simulator (paper SSIII-A): every state change
is an :class:`Event` with a timestamp, kept in a priority queue and
executed in increasing time order. An event may represent the arrival
or completion of a job in a microservice, as well as cluster
administration operations such as a DVFS change or a power-management
decision tick.

Events here are callback-based: the payload is a callable plus
positional arguments. Higher layers (services, dispatchers, clients)
define named helpers that schedule the right callbacks; keeping the
engine payload-agnostic is what makes the models modular.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A single scheduled occurrence.

    Events order by ``(time, priority, seq)``. ``priority`` breaks ties
    between events scheduled for the same instant (lower runs first) and
    ``seq`` is a per-queue monotonically increasing counter, assigned by
    :meth:`EventQueue.push <repro.engine.event_queue.EventQueue.push>`,
    that makes the order of equal-time, equal-priority events
    deterministic (FIFO in scheduling order) — a property the validation
    tests rely on. Keeping the counter on the queue rather than on the
    class means two simulators produce identical sequence numbers no
    matter how many other simulators ran in the same process — required
    for cross-process determinism of the parallel experiment runner.

    The queue's binary heap holds the entry ``(time, priority, seq,
    event)`` built once per push, so comparisons stay on plain tuples in
    C instead of calling back into :meth:`__lt__`. The embedded event is
    never reached by a comparison: ``seq`` is unique within a queue, so
    ties break at the third slot. The entry lives only in the heap; an
    event holds no reference to it, so a fired event is not a reference
    cycle and is freed by reference counting.

    Cancellation is lazy: :meth:`cancel` marks the event and the event
    loop discards it when popped, which keeps the heap operations
    O(log n) without requiring heap surgery.

    ``transient`` marks a slab-allocated event from the module free
    list (see :func:`acquire_event`): the simulator's run loops recycle
    it the moment its callback returns. The flag is the whole contract
    — transient events are only created through
    :meth:`Simulator.schedule_transient
    <repro.engine.simulator.Simulator.schedule_transient>`, whose
    callers promise never to cancel or retain the handle.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "transient", "_queue")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> None:
        self.time = float(time)
        self.priority = priority
        self.seq = 0  # assigned by EventQueue.push
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.transient = False
        self._queue = None  # owning EventQueue while pending, else None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped.

        Routed through the owning queue (when there is one) so the
        queue's live-event accounting stays correct no matter whether
        handler code calls ``event.cancel()`` or ``queue.cancel(event)``.
        """
        queue = self._queue
        if queue is not None:
            queue.cancel(self)
        else:
            self.cancelled = True

    def fire(self) -> None:
        """Run the event's callback."""
        self.fn(*self.args)

    # Ordering ---------------------------------------------------------

    def __lt__(self, other: "Event") -> bool:
        # The heap never calls this (it compares its entry tuples);
        # kept for sorting events outside a queue.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} p={self.priority} {name}{flag}>"


# Priority bands. Lower value runs earlier at equal timestamps. The
# bands encode causality at an instant: a completion must be processed
# before the arrival it may unblock, and administrative changes (DVFS)
# apply before any work scheduled at the same instant.
PRIORITY_ADMIN = -10
PRIORITY_COMPLETION = 0
PRIORITY_ARRIVAL = 10
PRIORITY_MONITOR = 20


# Event slab: a bounded free list of recycled Event objects for the
# hot-path schedules that are fired exactly once and never cancelled
# (client arrival ticks, wire deliveries). At hundreds of thousands of
# events per second, re-initialising a pooled object is measurably
# cheaper than allocating a fresh one and leaves far less garbage for
# the cyclic collector to crawl. The cap bounds memory when a burst
# schedules far ahead; beyond it, acquire falls back to plain
# construction, so the pool can never change behaviour — only
# allocation traffic.
_FREE_EVENTS: list = []
_FREE_CAP = 4096


def acquire_event(
    time: float,
    fn: Callable[..., Any],
    args: tuple,
    priority: int,
) -> Event:
    """Take a recycled :class:`Event` (or build one) marked ``transient``.

    Only :meth:`Simulator.schedule_transient
    <repro.engine.simulator.Simulator.schedule_transient>` should call
    this; the run loops hand the event back via :func:`release_event`
    right after it fires.
    """
    free = _FREE_EVENTS
    if free:
        event = free.pop()
        event.time = float(time)
        event.priority = priority
        event.fn = fn
        event.args = args
        event.cancelled = False
    else:
        event = Event(time, fn, args, priority)
        event.transient = True
    return event


def release_event(event: Event) -> None:
    """Return a fired transient event to the free list.

    Clears the payload so the pool retains no references to model
    objects (jobs, closures) between uses.
    """
    event.fn = None
    event.args = ()
    event._queue = None
    free = _FREE_EVENTS
    if len(free) < _FREE_CAP:
        free.append(event)
