"""Objects on the request path are freed by reference counting.

A reference cycle per request (an event holding its own heap entry, a
job whose callback points back at the attempt that owns it) hands every
request's objects to the cyclic collector, whose pauses then dominate
host time. Each world below runs with the collector off and
``DEBUG_SAVEALL`` on, so anything that only a collection could free
shows up in ``gc.garbage``.
"""

import gc

import pytest

from repro.apps import load_balanced, social_network
from repro.experiments.tail_at_scale import build_fanout_cluster
from repro.resilience import HedgePolicy, ResiliencePolicy, RetryPolicy
from repro.workload import OpenLoopClient


def _cyclic_garbage(world, qps, requests, resilience=None):
    """Run *world* under an open-loop client; return (client, garbage)."""
    client = OpenLoopClient(world.sim, world.dispatcher, arrivals=qps,
                            max_requests=requests, resilience=resilience)
    client.start()
    gc.collect()
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        world.sim.run()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        if was_enabled:
            gc.enable()
    return client, garbage


def _describe(garbage):
    names = sorted({type(obj).__name__ for obj in garbage})
    return f"{len(garbage)} cyclic objects, types {names[:10]}"


@pytest.mark.parametrize("build,qps,requests", [
    (lambda: load_balanced(scale_out=4, seed=1), 20000.0, 200),
    (lambda: social_network(seed=1), 2000.0, 100),
    (lambda: build_fanout_cluster(20, 0.01, seed=1), 100.0, 20),
], ids=["load_balanced", "social_network", "fanout"])
def test_plain_worlds_leave_no_cyclic_garbage(build, qps, requests):
    client, garbage = _cyclic_garbage(build(), qps, requests)
    assert client.requests_completed == requests
    assert garbage == [], _describe(garbage)


def test_resilient_traced_world_leaves_no_cyclic_garbage():
    """Timeouts, hedges and retries cancel attempts mid-flight; their
    late callbacks and the trace's spans must not keep cycles alive."""
    world = load_balanced(scale_out=4, seed=1)
    world.dispatcher.trace = True
    policy = ResiliencePolicy(timeout=1e-3, hedge=HedgePolicy(delay=0.3e-3),
                              retry=RetryPolicy(max_attempts=3))
    client, garbage = _cyclic_garbage(world, 60000.0, 200, resilience=policy)
    dispatcher = world.dispatcher
    assert dispatcher.requests_timed_out > 0
    assert dispatcher.hedges_issued > 0
    assert dispatcher.retries_issued > 0
    assert len(dispatcher.tracer.traces) == 200
    assert garbage == [], _describe(garbage)
