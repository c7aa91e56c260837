"""Declared capabilities and the run options that travel with them.

The capability sets are pinned per experiment: they are what each
runner honoured when the registry still probed runner signatures, so a
registry edit cannot widen or narrow an experiment's knobs unnoticed.
"""

import pytest

from repro.errors import ConfigError, ReproError
from repro.experiments import registry
from repro.experiments.options import CAPABILITIES, RunOptions
from repro.faults import FaultPlan
from repro.telemetry.tracing import TraceConfig

SWEEP = {"jobs", "run_dir", "audit", "trace_dir"}
SHARDED_SWEEP = SWEEP | {"slo", "scrape", "shards", "shard_tuning"}

PINNED = {
    "fig5": SHARDED_SWEEP,
    "fig6": SWEEP,
    "fig8": SWEEP,
    "fig10": SWEEP,
    "fig12a": SWEEP,
    "fig12b": SHARDED_SWEEP,
    "fig13_nginx": set(),
    "fig13_memcached": set(),
    "fig14": SWEEP | {"slo", "fault_plan", "shards", "shard_tuning"},
    "retry_storm": set(),
    "hedging": set(),
    "node_failure": {"jobs", "run_dir", "audit", "fault_plan"},
    "rollout": {"jobs", "run_dir", "audit"},
    "fig16": {"slo"},
    "table3": set(),
}


class TestCapabilityParity:
    def test_every_experiment_is_pinned(self):
        assert [s.exp_id for s in registry.all_experiments()] == list(PINNED)

    @pytest.mark.parametrize("exp_id", sorted(PINNED))
    def test_capabilities_match_pin(self, exp_id):
        capabilities = registry.get(exp_id).capabilities
        assert capabilities == PINNED[exp_id]
        assert capabilities <= set(CAPABILITIES)

    def test_every_unsupported_knob_named_in_one_error(self, tmp_path):
        options = RunOptions(
            audit=True, run_dir=tmp_path, slo="p99<5ms",
            scrape_interval=0.1, shards=2, shard_timeout=1.0,
        )
        with pytest.raises(ReproError) as exc:
            registry.get("table3").run(options)
        message = str(exc.value)
        for knob in ("run_dir", "audit", "slo", "scrape_interval",
                     "sharded parallel core", "supervisor knobs"):
            assert knob in message, knob

    def test_direct_study_calls_refuse_unsupported_knobs(self):
        from repro.experiments import rollout_experiment

        with pytest.raises(ReproError, match="slo, fault_plan"):
            rollout_experiment(
                seeds=(1,),
                options=RunOptions(
                    slo="p99<5ms", fault_plan=FaultPlan().crash(0.1, "web-0")
                ),
            )


class TestRunOptions:
    def test_single_slo_becomes_a_tuple(self):
        assert RunOptions(slo="p99<5ms").slo == ("p99<5ms",)
        assert RunOptions(slo=["a", "b"]).slo == ("a", "b")

    def test_trace_needs_a_trace_dir(self):
        with pytest.raises(ReproError, match="trace_dir"):
            RunOptions(trace=TraceConfig(sample_rate=0.5))

    def test_shard_faults_need_shards(self):
        with pytest.raises(ReproError, match="--shards"):
            RunOptions(fault_plan=FaultPlan().kill_shard(1, 3))
        assert RunOptions(fault_plan=FaultPlan().kill_shard(1, 3), shards=2)

    def test_requested_names_knobs_in_use(self, tmp_path):
        assert RunOptions().requested == frozenset()
        assert RunOptions(jobs=4, retries=2, resume=False).requested == (
            frozenset()
        )
        assert RunOptions(
            trace_dir=tmp_path, shards=2, shard_restarts=1
        ).requested == {"trace_dir", "shards", "shard_tuning"}

    def test_shard_journal_dir_needs_run_dir_and_shards(self, tmp_path):
        assert RunOptions(run_dir=tmp_path).shard_journal_dir is None
        assert RunOptions(shards=2).shard_journal_dir is None
        assert RunOptions(run_dir=tmp_path, shards=2).shard_journal_dir == (
            tmp_path / "shard_journals"
        )


class TestFig16Slo:
    def test_registry_run_drives_power_management_from_the_slo(self):
        result = registry.get("fig16").run(
            RunOptions(slo="p99<5ms"), duration=1.0, decision_interval=0.25,
        )
        assert result.qos_target == pytest.approx(5e-3)
        assert "p99<5ms" in "".join(result.slo_summary)

    def test_two_slos_rejected(self):
        with pytest.raises(ConfigError, match="one latency SLO"):
            registry.get("fig16").run(
                RunOptions(slo=("p99<5ms", "p95<2ms")), duration=0.5
            )

    def test_non_latency_slo_rejected(self):
        with pytest.raises(ConfigError, match="latency SLO"):
            registry.get("fig16").run(
                RunOptions(slo="avail>99.9%"), duration=0.5
            )
