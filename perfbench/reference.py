"""A fixed pure-Python yardstick for the host's current speed.

The benchmark host is a shared VM. Each of its cores switches between
fast and slow spells lasting a second or a few, up to 1.8x apart, and
the two cores do so independently. A simulation timed alone carries
that into ``host_us_per_request``: runs of one seed a minute apart
differ by 20-30%. So a plain session times this kernel before, between
and after the slices of every simulation (:mod:`rep`), and scales each
slice's wall time by ``NOMINAL_S`` over the kernel time around it. The
result reads as host µs on a host that runs this kernel in
``NOMINAL_S``.

The kernel is a small discrete-event loop of its own: an M/M/2 queue
on a heap of event times and a FIFO, with seeded exponential draws, and
a pointer chase through a table larger than the cache at every event.
So it leans on the interpreter's dispatch and on memory as the
simulator does. It imports nothing from ``src/``, so a change to the
simulator never moves it. It makes no object the cyclic collector
tracks, so it neither runs collections nor moves the simulation's own.
"""

from __future__ import annotations

import heapq
import random
from array import array
from collections import deque
from time import perf_counter

import numpy

#: Kernel time on the baseline host (2-core x86_64 VM, CPython 3.11.7),
#: about its median in a fast spell. Only a scale: it makes the
#: normalised figure read in host µs of roughly that host.
NOMINAL_S = 0.018

#: Jobs the kernel serves per timing.
JOBS = 4_000
#: Table entries the pointer chase walks (8 bytes each, untracked).
TABLE = 1 << 19
#: Chase steps per event.
STEPS = 4


def _table():
    rng = numpy.random.default_rng(11)
    order = rng.permutation(TABLE)
    # One cycle through every entry, in shuffled order.
    nxt = numpy.empty(TABLE, dtype=numpy.int64)
    nxt[order] = numpy.roll(order, -1)
    return (array("q", nxt.tobytes()),
            array("d", rng.random(TABLE).tobytes()))


_NEXT, _VALUE = _table()


def kernel(jobs: int = JOBS) -> float:
    """Serve *jobs* Poisson arrivals on two servers; a checksum that is
    the same on every call."""
    expo = random.Random(7).expovariate
    nxt, value = _NEXT, _VALUE
    push, pop = heapq.heappush, heapq.heappop
    busy = []  # departure times of the jobs in service
    waiting = deque()  # arrival times of the queued jobs
    arrival = expo(1.0)
    served = 0
    total = 0.0
    at = 0
    while served < jobs:
        for _ in range(STEPS):
            at = nxt[at]
            total += value[at]
        if busy and busy[0] <= arrival:
            now = pop(busy)
            served += 1
            if waiting:
                total += now - waiting.popleft()
                push(busy, now + expo(0.6))
            continue
        now = arrival
        arrival = now + expo(1.0)
        if len(busy) < 2:
            push(busy, now + expo(0.6))
        else:
            waiting.append(now)
    return total


def timed() -> float:
    """Host seconds one :func:`kernel` call takes right now."""
    started = perf_counter()
    kernel()
    return perf_counter() - started
