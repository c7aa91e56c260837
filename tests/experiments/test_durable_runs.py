"""Durable experiment runs: kill-and-resume identity, fault-plan
interop, and the opt-in conservation audit."""

import json

import pytest

from repro.apps import thrift_echo
from repro.errors import AuditError, ReproError
from repro.experiments import load_latency_sweep, measure_at_load, registry
from repro.experiments.audit import audit_client
from repro.experiments.options import RunOptions
from repro.experiments.resilience import build_single_tier
from repro.experiments.tail_at_scale import tail_at_scale_sweep
from repro.faults import load_fault_plan
from repro.runner import RunStore
from repro.workload import OpenLoopClient

LOADS = [1000, 2000, 3000, 4000, 5000]
SWEEP = dict(duration=0.15, warmup=0.05)


class TestKillAndResume:
    """The acceptance scenario: a sweep killed at point k, re-run with
    resume=True, recomputes exactly n - k points and merges into a
    result identical to an uninterrupted run."""

    def test_resume_recomputes_only_missing_points(self, tmp_path):
        run_dir = tmp_path / "run"
        fresh = load_latency_sweep(
            thrift_echo, LOADS, options=RunOptions(jobs=1), **SWEEP
        )

        # "Killed at point 2": only the first two loads got journaled.
        load_latency_sweep(
            thrift_echo, LOADS[:2], options=RunOptions(run_dir=run_dir),
            **SWEEP
        )
        assert len(RunStore(run_dir)) == 2

        resumed = load_latency_sweep(
            thrift_echo, LOADS, options=RunOptions(
                run_dir=run_dir, resume=True
            ), **SWEEP
        )
        # Exactly n - k new journal entries, and a byte-identical merge
        # of journaled and recomputed points.
        assert len(RunStore(run_dir)) == len(LOADS)
        assert resumed == fresh
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["resumed_points"] == 2

    def test_second_resume_is_pure_replay(self, tmp_path):
        run_dir = tmp_path / "run"
        first = load_latency_sweep(
            thrift_echo, LOADS[:3], options=RunOptions(run_dir=run_dir),
            **SWEEP
        )
        replay = load_latency_sweep(
            thrift_echo, LOADS[:3], options=RunOptions(
                run_dir=run_dir, resume=True
            ), **SWEEP
        )
        assert replay == first
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["resumed_points"] == 3

    def test_resume_false_ignores_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        first = load_latency_sweep(
            thrift_echo, LOADS[:2], options=RunOptions(run_dir=run_dir),
            **SWEEP
        )
        again = load_latency_sweep(
            thrift_echo, LOADS[:2], options=RunOptions(run_dir=run_dir,
                resume=False), **SWEEP
        )
        assert again == first  # deterministic, so recompute == replay
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["resumed_points"] == 0

    def test_config_change_invalidates_keys(self, tmp_path):
        run_dir = tmp_path / "run"
        load_latency_sweep(
            thrift_echo, LOADS[:2], options=RunOptions(run_dir=run_dir),
            **SWEEP
        )
        # A different measurement window must not reuse old points.
        load_latency_sweep(
            thrift_echo, LOADS[:2], options=RunOptions(run_dir=run_dir,
                resume=True), duration=0.2, warmup=0.05,
        )
        assert len(RunStore(run_dir)) == 4
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["resumed_points"] == 0

    def test_scrape_joins_sweep_config(self, tmp_path):
        run_dir = tmp_path / "run"
        load_latency_sweep(
            thrift_echo, LOADS[:2], options=RunOptions(run_dir=run_dir),
            **SWEEP
        )
        # Enabling scraping joins the config: journaled unscraped
        # points must not be silently reused without timelines.
        scraped = load_latency_sweep(
            thrift_echo, LOADS[:2], options=RunOptions(run_dir=run_dir,
                resume=True, scrape_interval=0.05), **SWEEP
        )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["resumed_points"] == 0
        assert all(p.timeline is not None for p in scraped)
        # But scrape-off journal keys are unchanged from before the
        # scrape feature existed: the original points still resume.
        load_latency_sweep(
            thrift_echo, LOADS[:2], options=RunOptions(
                run_dir=run_dir, resume=True
            ), **SWEEP
        )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["resumed_points"] == 2

    def test_tail_at_scale_resumes(self, tmp_path):
        run_dir = tmp_path / "run"
        grid = dict(
            cluster_sizes=(2, 4), slow_fractions=(0.0, 0.5),
            num_requests=40,
        )
        fresh = tail_at_scale_sweep(**grid)
        tail_at_scale_sweep(
            cluster_sizes=(2, 4), slow_fractions=(0.0,), num_requests=40,
            options=RunOptions(run_dir=run_dir),
        )
        assert len(RunStore(run_dir)) == 2
        resumed = tail_at_scale_sweep(
            options=RunOptions(run_dir=run_dir, resume=True), **grid
        )
        assert resumed == fresh
        assert len(RunStore(run_dir)) == 4


class TestFaultPlanInterop:
    """A seeded faults.json + parallel fan-out + resume must reproduce
    the serial fresh run bit-for-bit."""

    @pytest.fixture
    def plan(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"faults": [
            {"at": 0.06, "kind": "crash", "instance": "server_0",
             "disposition": "fail"},
            {"at": 0.10, "kind": "recover", "instance": "server_0"},
        ]}))
        return load_fault_plan(path)

    def test_fault_sweep_parallel_resume_identity(self, plan, tmp_path):
        loads = [500, 800, 1100]
        kwargs = dict(duration=0.15, warmup=0.02, replicas=2)
        fresh = load_latency_sweep(
            build_single_tier, loads,
            options=RunOptions(jobs=1, fault_plan=plan), **kwargs
        )
        run_dir = tmp_path / "run"
        durable = RunOptions(
            jobs=2, run_dir=run_dir, resume=True, fault_plan=plan
        )
        fanned = load_latency_sweep(
            build_single_tier, loads, options=durable, **kwargs
        )
        assert fanned == fresh
        # And resuming over the now-complete journal replays it.
        replay = load_latency_sweep(
            build_single_tier, loads, options=durable, **kwargs
        )
        assert replay == fresh
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["resumed_points"] == len(loads)

    def test_fault_plan_enters_point_keys(self, plan, tmp_path):
        run_dir = tmp_path / "run"
        kwargs = dict(duration=0.15, warmup=0.02, replicas=2)
        load_latency_sweep(
            build_single_tier, [500], options=RunOptions(run_dir=run_dir),
            **kwargs
        )
        # Same load, now with faults: must journal a new point rather
        # than reuse the healthy one.
        load_latency_sweep(
            build_single_tier, [500], options=RunOptions(run_dir=run_dir,
                resume=True, fault_plan=plan), **kwargs
        )
        assert len(RunStore(run_dir)) == 2


class TestConservationAudit:
    def test_measure_at_load_passes_audit(self):
        point = measure_at_load(
            thrift_echo, 2000, duration=0.15, warmup=0.05,
            options=RunOptions(audit=True)
        )
        assert point.completed > 0

    def test_audit_passes_under_faults(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps([
            {"at": 0.05, "kind": "crash", "instance": "server_0"},
        ]))
        measure_at_load(
            build_single_tier, 800, duration=0.15, warmup=0.02,
            options=RunOptions(fault_plan=load_fault_plan(path), audit=True),
            replicas=2,
        )

    def test_tampered_counters_fail_audit(self):
        world = thrift_echo(seed=3)
        client = OpenLoopClient(
            world.sim, world.dispatcher, arrivals=1000, stop_at=0.05
        )
        client.start()
        world.sim.run(until=0.05)
        # Honest counters pass, with and without the dispatcher
        # cross-check.
        audit_client(client, world.sim, dispatcher=world.dispatcher)
        client.requests_sent += 1  # a "leaked" request
        with pytest.raises(AuditError, match="conservation"):
            audit_client(client, world.sim, dispatcher=world.dispatcher)

    def test_tampered_recorder_fails_audit(self):
        world = thrift_echo(seed=3)
        client = OpenLoopClient(
            world.sim, world.dispatcher, arrivals=1000, stop_at=0.05
        )
        client.start()
        world.sim.run(until=0.05)
        client.latencies.record(0.04, 1e-3)  # phantom sample
        with pytest.raises(AuditError, match="latency recorder"):
            audit_client(client, world.sim)


class TestRegistryForwarding:
    def test_supports_flags(self):
        fig6 = registry.get("fig6")
        assert {"run_dir", "audit"} <= fig6.capabilities
        table3 = registry.get("table3")
        assert "run_dir" not in table3.capabilities
        assert "audit" not in table3.capabilities

    def test_run_dir_forwarded_and_journaled(self, tmp_path):
        run_dir = tmp_path / "run"
        result = registry.get("fig14").run(
            options=RunOptions(run_dir=run_dir),
            cluster_sizes=(2,), slow_fractions=(0.0,), num_requests=30,
        )
        assert len(result) == 1
        assert (run_dir / "journal.jsonl").exists()
        assert (run_dir / "manifest.json").exists()

    def test_audit_forwarded(self):
        # Registry experiments must pass the audit end to end.
        registry.get("fig6").run(
            options=RunOptions(audit=True), loads=(500,), duration=0.1,
            warmup=0.02
        )

    def test_unsupported_run_dir_is_loud(self, tmp_path):
        with pytest.raises(ReproError, match="run_dir"):
            registry.get("table3").run(RunOptions(run_dir=tmp_path / "run"))

    def test_unsupported_audit_is_loud(self):
        with pytest.raises(ReproError, match="audit"):
            registry.get("table3").run(RunOptions(audit=True))
