"""Fault-tolerant sharded execution: supervised workers, the
barrier-replay journal, and the cross-shard conservation audit.

The headline contract: a shard worker SIGKILLed or hung mid-run is
rebuilt from its spec, replayed from the journal to the last completed
barrier, and the run's final statistics are **bit-identical** to the
unfaulted run — recovery is invisible except in the recovery report.
"""

import dataclasses
import multiprocessing

import pytest

from repro.distributions import Deterministic
from repro.errors import AuditError, ShardingError
from repro.experiments.audit import audit_sharded_run
from repro.experiments.loadsweep import (
    SweepPoint,
    measure_at_load,
    shard_recovery_manifest_summary,
)
from repro.experiments.options import RunOptions
from repro.experiments.tail_at_scale import (
    build_fanout_cluster,
    measure_tail_at_scale,
)
from repro.faults import FaultPlan
from repro.hardware import NetworkFabric
from repro.shard import (
    ReplayJournal,
    ShardMessage,
    ShardSupervisor,
    load_replay_journal,
    measure_fanout_sharded,
    outbound_digest,
    spawn_worker,
)
from repro.shard.worker import ShardWorkerDied


def det_fabric():
    return NetworkFabric(propagation=Deterministic(20e-6))


CFG = dict(qps=60.0, num_requests=30, seed=7)


# --------------------------------------------------------------------
# Toy deterministic host for driving the supervisor by hand. Must live
# at module level so worker processes can rebuild it from its spec.
# --------------------------------------------------------------------

class _TickHost:
    """State is a pure function of (step, inbound history): each round
    adds the inbound payloads, emits one message carrying the total."""

    def __init__(self, shard_id=0, step=1.0):
        self.shard_id = shard_id
        self.step = step
        self.rounds = 0
        self.total = 0

    def horizon(self):
        return self.step

    def advance(self, until, inbound):
        self.total += sum(m.payload[0] for m in inbound)
        self.rounds += 1
        msg = ShardMessage(
            time=until + self.step, priority=0,
            src_shard=self.shard_id, seq=self.rounds,
            kind="tick", payload=(self.total,),
        )
        return until + self.step, [(1 - self.shard_id, msg)]

    def finalize(self):
        return {"rounds": self.rounds, "total": self.total}


def build_tick_host(shard_id=0, step=1.0):
    return _TickHost(shard_id=shard_id, step=step)


def _inbound(round_index):
    return [ShardMessage(
        time=float(round_index) + 0.5, priority=0, src_shard=1,
        seq=round_index + 1, kind="tick", payload=(round_index + 1,),
    )]


def _drive(sup, journal, round_index, inbound):
    until = float(round_index + 1)
    sup.begin_advance(until, inbound)
    _horizon, out = sup.finish_advance()
    journal.record_round(
        round_index, [until], [inbound], [outbound_digest(out)]
    )
    return out


@pytest.fixture
def tick_supervisor():
    """A supervised single-shard _TickHost worker, torn down on exit."""
    ctx = multiprocessing.get_context()
    spec = (build_tick_host, {"shard_id": 0})
    journal = ReplayJournal(1)
    proxy = spawn_worker(ctx, 0, spec, timeout=30.0)
    sup = ShardSupervisor(
        0, spec, proxy, journal,
        max_restarts=3, window_timeout=30.0,
        backoff_base=0.01, backoff_cap=0.05, ctx=ctx,
    )
    try:
        yield sup, journal
    finally:
        sup.close()


class TestJournal:
    def test_digest_is_order_sensitive(self):
        a = (1, ShardMessage(0.5, 0, 0, 1, "x", (1,)))
        b = (1, ShardMessage(0.5, 0, 0, 2, "x", (2,)))
        assert outbound_digest([a, b]) != outbound_digest([b, a])
        assert outbound_digest([a, b]) == outbound_digest([a, b])
        assert outbound_digest([]) != outbound_digest([a])

    def test_round_indices_must_be_contiguous(self):
        journal = ReplayJournal(1)
        with pytest.raises(ShardingError, match="expected round 0"):
            journal.record_round(3, [1.0], [[]], ["d"])

    def test_disk_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ReplayJournal(2, path=path)
        for r in range(3):
            inbound = _inbound(r)
            journal.record_round(
                r, [float(r + 1)] * 2, [inbound, []], [f"d{r}a", f"d{r}b"]
            )
        loaded = load_replay_journal(path)
        assert loaded.num_shards == 2
        assert loaded.rounds == 3
        for r, record in enumerate(loaded.shard_history(0)):
            assert record.until == float(r + 1)
            assert record.digest == f"d{r}a"
            assert record.inbound == tuple(_inbound(r))
        assert loaded.message_counts() == {(1, 0): 3}

    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ReplayJournal(1, path=path)
        journal.record_round(0, [1.0], [[]], ["d0"])
        with open(path, "a") as fh:
            fh.write('{"round": 1, "shards": [{"unt')  # killed writer
        assert load_replay_journal(path).rounds == 1

    def test_empty_journal_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("\n")
        with pytest.raises(ShardingError, match="no rounds"):
            load_replay_journal(path)


class TestSpawnCleanup:
    def test_builder_failure_reaps_the_process(self):
        ctx = multiprocessing.get_context()
        with pytest.raises(ShardingError, match="failed to build"):
            spawn_worker(ctx, 0, (build_tick_host, {"bogus": 1}),
                         timeout=30.0)
        # No zombie left behind: every repro-shard child is gone.
        assert not [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-")
        ]


class TestSupervisorUnit:
    def test_kill_recovers_bit_identical(self, tick_supervisor):
        sup, journal = tick_supervisor
        control = build_tick_host(shard_id=0)
        for r in range(3):
            control.advance(float(r + 1), _inbound(r))
            _drive(sup, journal, r, _inbound(r))
        sup.inject_kill()
        for r in range(3, 6):
            control.advance(float(r + 1), _inbound(r))
            _drive(sup, journal, r, _inbound(r))
        assert sup.restarts == 1
        assert sup.replayed_rounds == 3
        assert sup.finalize() == control.finalize()
        summary = sup.recovery_summary()
        assert summary["restarts"] == 1
        assert "ShardWorkerDied" in summary["failures"][0]

    def test_hang_recovers_bit_identical(self, tick_supervisor):
        sup, journal = tick_supervisor
        sup.window_timeout = 1.0
        control = build_tick_host(shard_id=0)
        for r in range(2):
            control.advance(float(r + 1), _inbound(r))
            _drive(sup, journal, r, _inbound(r))
        sup.inject_hang()
        sup._proxy.timeout = 1.0  # the pending read must time out fast
        for r in range(2, 4):
            control.advance(float(r + 1), _inbound(r))
            _drive(sup, journal, r, _inbound(r))
        assert sup.restarts == 1
        assert sup.replayed_rounds == 2
        assert "ShardWorkerHung" in sup.failures[0]
        assert sup.finalize() == control.finalize()

    def test_budget_exhaustion_carries_attribution(self):
        ctx = multiprocessing.get_context()
        spec = (build_tick_host, {"shard_id": 0})
        journal = ReplayJournal(1)
        proxy = spawn_worker(ctx, 0, spec, timeout=30.0)
        sup = ShardSupervisor(
            0, spec, proxy, journal, max_restarts=0,
            window_timeout=30.0, ctx=ctx,
        )
        try:
            _drive(sup, journal, 0, _inbound(0))
            sup.inject_kill()
            with pytest.raises(
                ShardingError, match="restart budget"
            ) as excinfo:
                _drive(sup, journal, 1, _inbound(1))
            assert "shard 0" in str(excinfo.value)
            assert "after round 0" in str(excinfo.value)
            assert "ShardWorkerDied" in str(excinfo.value)
        finally:
            sup.close()

    def test_replay_divergence_aborts_loudly(self, tick_supervisor):
        sup, journal = tick_supervisor
        for r in range(2):
            _drive(sup, journal, r, _inbound(r))
        # Tamper with the journaled digest: the replayed worker will
        # reproduce the true outbound, which must now mismatch.
        journal._rounds[1][0] = dataclasses.replace(
            journal._rounds[1][0], digest="0" * 16
        )
        sup.inject_kill()
        with pytest.raises(ShardingError, match="diverged on replay"):
            _drive(sup, journal, 2, _inbound(2))


class TestFaultPlanRecovery:
    """End-to-end: kill/hang a fan-out shard worker mid-run via a
    fault plan; the run must complete bit-identical to unfaulted."""

    @pytest.mark.parametrize("shards,seed", [(2, 7), (2, 11), (4, 7)])
    def test_kill_recovery_bit_identical(self, shards, seed):
        cfg = dict(CFG, seed=seed)
        base = measure_fanout_sharded(
            8, 0.1, shards=shards, network=det_fabric(),
            mode="process", **cfg
        )
        plan = FaultPlan().kill_shard(1, 2).kill_shard(shards - 1, 5)
        faulted = measure_fanout_sharded(
            8, 0.1, shards=shards, network=det_fabric(),
            mode="process", fault_plan=plan, **cfg
        )
        assert base["restarts"] == 0
        assert faulted["restarts"] == 2
        assert faulted["replayed_rounds"] > 0
        assert faulted["latencies"] == base["latencies"]
        assert faulted["completions"] == base["completions"]
        assert faulted["outcomes"] == base["outcomes"]
        assert faulted["rounds"] == base["rounds"]
        assert faulted["messages"] == base["messages"]
        per_shard = faulted["recovery"]["per_shard"]
        assert set(per_shard) == ({1, shards - 1} if shards > 2 else {1})
        for report in per_shard.values():
            assert report["restarts"] >= 1
            assert report["failures"]

    def test_hang_recovery_bit_identical(self):
        base = measure_fanout_sharded(
            8, 0.1, shards=2, network=det_fabric(),
            mode="process", **CFG
        )
        faulted = measure_fanout_sharded(
            8, 0.1, shards=2, network=det_fabric(), mode="process",
            fault_plan=FaultPlan().hang_shard(1, 3),
            shard_timeout=1.0, **CFG
        )
        assert faulted["restarts"] == 1
        assert faulted["latencies"] == base["latencies"]
        assert faulted["outcomes"] == base["outcomes"]
        failures = faulted["recovery"]["per_shard"][1]["failures"]
        assert any("ShardWorkerHung" in f for f in failures)

    def test_budget_exhaustion_raises(self):
        plan = FaultPlan().kill_shard(1, 2)
        with pytest.raises(ShardingError, match="restart budget") as exc:
            measure_fanout_sharded(
                8, 0.1, shards=2, network=det_fabric(), mode="process",
                fault_plan=plan, shard_restarts=0, **CFG
            )
        assert "shard 1" in str(exc.value)

    def test_journal_written_and_auditable(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        result = measure_fanout_sharded(
            8, 0.1, shards=2, network=det_fabric(), mode="process",
            audit=True, fault_plan=FaultPlan().kill_shard(1, 2),
            journal_path=path, **CFG
        )
        assert result["restarts"] == 1
        journal = load_replay_journal(path)
        assert journal.rounds == result["rounds"]
        delivered = sum(journal.message_counts().values())
        assert delivered == result["messages"]

    def test_chaos_rejected_without_process_workers(self):
        with pytest.raises(ShardingError, match="supervised"):
            measure_fanout_sharded(
                8, 0.1, shards=2, network=det_fabric(), mode="inline",
                fault_plan=FaultPlan().kill_shard(1, 2), **CFG
            )

    def test_unknown_shard_rejected(self):
        with pytest.raises(ShardingError, match="shards 0..1"):
            measure_fanout_sharded(
                8, 0.1, shards=2, network=det_fabric(), mode="process",
                fault_plan=FaultPlan().kill_shard(5, 2), **CFG
            )

    def test_simulation_faults_rejected_under_shards(self):
        with pytest.raises(ShardingError, match="simulated world"):
            measure_fanout_sharded(
                8, 0.1, shards=2, network=det_fabric(), mode="process",
                fault_plan=FaultPlan().crash(0.1, "leaf_0"), **CFG
            )


class TestShardedAudit:
    def test_audit_passes_on_clean_run(self):
        measure_fanout_sharded(
            8, 0.1, shards=3, network=det_fabric(), mode="inline",
            audit=True, **CFG
        )

    def test_missing_ledger_is_a_problem(self):
        with pytest.raises(AuditError, match="conservation"):
            audit_sharded_run([{"clock": 1.0}], messages_exchanged=0)

    def test_cross_shard_imbalance_detected(self):
        # Forge a ledger where shard 0 sent one message shard 1 never
        # received: the sent/received cross-check must flag it.
        sent = [[{"1": 1}, {}], [{}, {}]]
        recv = [[{}, {}], [{}, {}]]
        fake = [
            {"shard": i, "clock": 1.0, "events": 1,
             "conservation": {"sent": sent[i], "received": recv[i]}}
            for i in range(2)
        ]
        with pytest.raises(AuditError, match="received 0"):
            audit_sharded_run(fake, messages_exchanged=1)


class TestExperimentPlumbing:
    def test_load_point_reports_recovery(self):
        common = dict(
            qps=80.0, duration=0.4, warmup=0.1, seed=3,
            cluster_size=6, slow_fraction=0.0, network=det_fabric(),
        )
        base = measure_at_load(
            build_fanout_cluster, options=RunOptions(shards=2), mode="process",
            **common
        )
        faulted = measure_at_load(
            build_fanout_cluster, mode="process",
            options=RunOptions(
                shards=2, fault_plan=FaultPlan().kill_shard(1, 4),
                audit=True,
            ),
            **common
        )
        assert base.shard_recovery is None
        assert faulted.shard_recovery["restarts"] == 1
        assert dataclasses.replace(faulted, shard_recovery=None) == base

    def test_tail_at_scale_point_reports_recovery(self):
        kwargs = dict(qps=60.0, num_requests=30, seed=5)
        base = measure_tail_at_scale(
            8, 0.1, options=RunOptions(shards=2), network=det_fabric(),
            **kwargs
        )
        faulted = measure_tail_at_scale(
            8, 0.1, network=det_fabric(),
            options=RunOptions(
                shards=2, fault_plan=FaultPlan().kill_shard(1, 3),
                audit=True,
            ),
            **kwargs
        )
        assert base.shard_recovery is None
        assert faulted.shard_recovery["restarts"] == 1
        assert faulted.p50 == base.p50
        assert faulted.p99 == base.p99
        assert faulted.requests == base.requests

    def test_recovery_manifest_summary_aggregates(self):
        recovery = {
            "restarts": 2, "replayed_rounds": 7,
            "per_shard": {1: {"restarts": 2, "replayed_rounds": 7,
                              "failures": ["a", "b"]}},
        }
        clean = SweepPoint(10.0, 10.0, 1e-3, 1e-3, 1e-3, 1e-3, 5)
        hurt = SweepPoint(20.0, 20.0, 1e-3, 1e-3, 1e-3, 1e-3, 5,
                          shard_recovery=recovery)
        assert shard_recovery_manifest_summary([clean]) == {}
        block = shard_recovery_manifest_summary([clean, hurt, hurt])
        assert block["shard_recovery"]["restarts"] == 4
        assert block["shard_recovery"]["replayed_rounds"] == 14
        assert block["shard_recovery"]["per_shard"]["1"]["failures"] == [
            "a", "b", "a", "b",
        ]

    def test_sync_manifest_summary_aggregates(self):
        from repro.experiments.loadsweep import shard_sync_manifest_summary

        plain = SweepPoint(10.0, 10.0, 1e-3, 1e-3, 1e-3, 1e-3, 5)
        synced = SweepPoint(20.0, 20.0, 1e-3, 1e-3, 1e-3, 1e-3, 5)
        synced.shard_sync = {
            "shards": 2, "mode": "inline", "rounds": 10,
            "messages_exchanged": 7, "stalls": 1, "restarts": 1,
            "per_shard_restarts": {"1": 1},
            "straggler_rounds": {"0": 6, "1": 4},
        }
        assert shard_sync_manifest_summary([plain]) == {}
        block = shard_sync_manifest_summary(
            [plain, synced, synced]
        )["shard_sync"]
        assert block["points"] == 2 and block["rounds"] == 20
        assert block["messages_exchanged"] == 14
        assert block["stalls"] == 2 and block["restarts"] == 2
        assert block["shards"] == 2 and block["mode"] == "inline"
        assert block["straggler_rounds"] == {"0": 12, "1": 8}
        assert block["per_shard_restarts"] == {"1": 2}
