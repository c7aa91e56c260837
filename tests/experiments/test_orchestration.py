"""The orchestration studies: node-failure self-healing and SLO-gated
rollouts, end to end across seeds."""

import pytest

from repro.errors import ReproError
from repro.experiments import (
    NodeFailurePoint,
    RolloutPoint,
    node_failure_experiment,
    registry,
    rollout_experiment,
)
from repro.experiments.loadsweep import measure_at_load
from repro.experiments.options import RunOptions
from repro.apps import thrift_echo
from repro.faults import FaultPlan

FAST = dict(qps=300.0, duration=2.0, fail_at=0.4)


class TestNodeFailure:
    def test_three_seeds_heal_without_losing_requests(self):
        points = node_failure_experiment(
            seeds=(1, 2, 3), options=RunOptions(audit=True), **FAST
        )
        assert len(points) == 3
        for p in points:
            # Conservation: every request sent was resolved.
            assert p.lost == 0
            assert p.requests_sent > 0
            # The reconciler replaced the dead replica...
            assert p.retirements >= 1
            assert p.reschedules >= 1
            assert p.survivors == 4
            # ...and goodput came back.
            assert p.recovered
            assert p.goodput_after > 0.8 * p.goodput_before

    def test_seeds_are_decorrelated_but_reproducible(self):
        a, b = node_failure_experiment(seeds=(1, 2), **FAST)
        assert a.requests_sent != b.requests_sent or a.goodput_after != b.goodput_after
        again, _ = node_failure_experiment(seeds=(1, 2), **FAST)
        assert a == again

    def test_external_fault_plan_replaces_default(self):
        plan = (
            FaultPlan()
            .fail_machine(0.4, "node1")
            .recover_machine(1.2, "node1")
        )
        (p,) = node_failure_experiment(
            seeds=(1,), options=RunOptions(fault_plan=plan, audit=True), **FAST
        )
        assert p.lost == 0
        assert p.retirements >= 1

    def test_durable_run_resumes_from_journal(self, tmp_path):
        first = node_failure_experiment(
            seeds=(1, 2), options=RunOptions(run_dir=tmp_path / "run"), **FAST
        )
        again = node_failure_experiment(
            seeds=(1, 2), options=RunOptions(run_dir=tmp_path / "run"), **FAST
        )
        assert again == first

    def test_parallel_identity(self):
        serial = node_failure_experiment(
            seeds=(1, 2), options=RunOptions(jobs=1), **FAST
        )
        fanned = node_failure_experiment(
            seeds=(1, 2), options=RunOptions(jobs=2), **FAST
        )
        assert fanned == serial


class TestRollout:
    def test_regressed_canary_rolls_back_on_every_seed(self):
        points = rollout_experiment(
            seeds=(1, 2, 3), regression=10.0, duration=3.5,
        )
        assert len(points) == 3
        for p in points:
            assert p.rolled_back
            assert p.breaches >= 1
            assert set(p.final_versions.values()) == {"v1"}
            assert p.requests_ok > 0

    def test_clean_candidate_promotes(self):
        (p,) = rollout_experiment(
            seeds=(1,), regression=1.0, duration=8.0, observe_for=1.0,
        )
        assert p.state == "rolled_out"
        assert set(p.final_versions.values()) == {"v2"}

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ReproError, match="strategy"):
            rollout_experiment(seeds=(1,), strategy="yolo")

    def test_durable_rollback_run(self, tmp_path):
        first = rollout_experiment(
            seeds=(1,), regression=10.0, duration=3.5,
            options=RunOptions(run_dir=tmp_path / "run"),
        )
        again = rollout_experiment(
            seeds=(1,), regression=10.0, duration=3.5,
            options=RunOptions(run_dir=tmp_path / "run"),
        )
        assert again == first
        assert first[0].rolled_back


class TestRegistry:
    def test_experiments_registered(self):
        node = registry.get("node_failure")
        roll = registry.get("rollout")
        assert "fault_plan" in node.capabilities
        assert "fault_plan" not in roll.capabilities

    def test_fault_plan_rejected_where_unsupported(self):
        spec = registry.get("rollout")
        with pytest.raises(ReproError, match="fault_plan"):
            spec.run(RunOptions(fault_plan=FaultPlan().crash(0.1, "web-0")))


class TestControlPlaneOffBitIdentity:
    def test_unmanaged_runs_unchanged_by_control_plane_use(self):
        """Exercising the control plane leaks no state into ordinary
        runs: an unmanaged measurement repeats bit-identically after a
        full managed world ran in the same process."""
        before = measure_at_load(thrift_echo, 2000, duration=0.2, warmup=0.05)
        node_failure_experiment(seeds=(1,), **FAST)
        after = measure_at_load(thrift_echo, 2000, duration=0.2, warmup=0.05)
        assert (before.mean, before.p99, before.completed) == (
            after.mean, after.p99, after.completed
        )
