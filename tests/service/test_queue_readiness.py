"""``has_ready`` short-circuits, but must agree with ``ready_count() > 0``.

Seeded random op sequences drive every queue type through pushes over
several connections, block/unblock/abandon by different requests,
batching, removal and draining; after every op the short-circuit
answer is compared with the full count.
"""

import numpy as np
import pytest

from repro.service import (
    Connection,
    EpollQueue,
    Job,
    Request,
    SingleQueue,
    SocketQueue,
)

QUEUES = {
    "single": lambda: SingleQueue(),
    "single_batch3": lambda: SingleQueue(batch_limit=3),
    "socket": lambda: SocketQueue(batch_limit=2),
    "epoll": lambda: EpollQueue(per_connection_limit=2),
    "epoll_unlimited": lambda: EpollQueue(per_connection_limit=None),
}

OPS = ("push", "push", "push", "block", "unblock", "abandon",
       "next_batch", "remove", "drain")


def _run_ops(queue, rng, steps=300):
    conns = [Connection(f"c{i}") for i in range(3)]
    requests = [Request(created_at=0.0) for _ in range(4)]
    queued = []
    counts = dict.fromkeys(OPS, 0)
    for _ in range(steps):
        op = OPS[int(rng.integers(len(OPS)))]
        counts[op] += 1
        request = requests[int(rng.integers(len(requests)))]
        conn = conns[int(rng.integers(len(conns)))]
        rid = request.request_id
        if op == "push":
            # One in four jobs has no connection at all.
            job_conn = None if rng.random() < 0.25 else conn
            job = Job(request, connection=job_conn)
            queue.push(job)
            queued.append(job)
        elif op == "block":
            if conn.holder != rid and not conn.waiting(rid):
                conn.block(rid)
        elif op == "unblock":
            conn.unblock(rid)
        elif op == "abandon":
            conn.abandon(rid)
        elif op == "next_batch":
            for job in queue.next_batch():
                queued.remove(job)
        elif op == "remove":
            if queued and rng.random() < 0.8:
                job = queued[int(rng.integers(len(queued)))]
                assert queue.remove(job)
                queued.remove(job)
            else:
                assert not queue.remove(Job(request, connection=conn))
        elif op == "drain":
            if rng.random() < 0.2:
                assert sorted(map(id, queue.drain())) == sorted(map(id, queued))
                queued.clear()
        assert len(queue) == len(queued)
        assert queue.has_ready() == (queue.ready_count() > 0), op
    return counts


@pytest.mark.parametrize("kind", sorted(QUEUES))
@pytest.mark.parametrize("seed", range(20))
def test_has_ready_matches_ready_count(kind, seed):
    counts = _run_ops(QUEUES[kind](), np.random.default_rng(seed))
    assert all(counts.values()), counts


@pytest.mark.parametrize("kind", sorted(QUEUES))
def test_sequences_reach_both_answers_with_jobs_queued(kind):
    """The op mix must exercise blocked-but-nonempty queues, or the
    equivalence above would only ever compare trivial cases."""
    seen = set()
    for seed in range(20):
        queue = QUEUES[kind]()
        original = queue.has_ready

        def probe():
            answer = original()
            if len(queue):
                seen.add(answer)
            return answer

        queue.has_ready = probe
        _run_ops(queue, np.random.default_rng(seed))
    assert seen == {True, False}
