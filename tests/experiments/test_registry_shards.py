"""Regression tests for the registry's shard gating.

The original gating nested contradictory ``shards`` checks (an inner
``shards == 1`` arm inside the ``shards != 1`` branch); the untangled
rule is simple and tested here exhaustively: ``shards=1`` — the
default — is always accepted, parallelism (``shards >= 2``) needs a
shard-capable runner, and the supervisor knobs need parallelism first
and capability second.
"""

import pytest

from repro.errors import ReproError
from repro.experiments import registry
from repro.experiments.options import RunOptions
from repro.experiments.registry import ExperimentSpec


def _plain_runner(**kwargs):
    return kwargs


def _options_runner(options, **kwargs):
    return dict(kwargs, shards=options.shards,
                shard_timeout=options.shard_timeout,
                shard_restarts=options.shard_restarts,
                scrape_interval=options.scrape_interval)


PLAIN = ExperimentSpec("plain", "-", "no shard support", _plain_runner)
SHARDED = ExperimentSpec("sharded", "-", "full shard support",
                         _options_runner,
                         frozenset({"shards", "shard_tuning"}))
NO_TUNING = ExperimentSpec("no_tuning", "-", "shards but no knobs",
                           _options_runner, frozenset({"shards"}))


class TestShardGating:
    def test_explicit_shards_1_accepted_without_support(self):
        # shards=1 is the default single-core path: passing it
        # explicitly to a non-shard-capable experiment must work.
        assert PLAIN.run(RunOptions(shards=1)) == {}

    def test_parallel_shards_rejected_without_support(self):
        with pytest.raises(ReproError, match="sharded parallel core"):
            PLAIN.run(RunOptions(shards=2))

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_shards_rejected(self, bad):
        with pytest.raises(ReproError, match="must be >= 1"):
            SHARDED.run(RunOptions(shards=bad))

    def test_shards_forwarded_when_supported(self):
        assert SHARDED.run(RunOptions(shards=4))["shards"] == 4

    def test_shards_1_not_forced_on_capable_runner(self):
        # The options carry the default, so the runner sees shards=1.
        assert SHARDED.run(RunOptions(shards=1))["shards"] == 1


class TestSupervisorKnobGating:
    def test_tuning_needs_parallelism_first(self):
        with pytest.raises(ReproError, match="need --shards"):
            SHARDED.run(RunOptions(shards=1, shard_timeout=5.0))

    def test_tuning_needs_runner_capability_second(self):
        with pytest.raises(ReproError, match="supervisor knobs"):
            NO_TUNING.run(RunOptions(shards=2, shard_timeout=5.0))

    def test_tuning_forwarded_when_supported(self):
        result = SHARDED.run(
            RunOptions(shards=2, shard_timeout=5.0, shard_restarts=7)
        )
        assert result["shard_timeout"] == 5.0
        assert result["shard_restarts"] == 7


SCRAPABLE = ExperimentSpec("scrapable", "-", "scrape support",
                           _options_runner, frozenset({"scrape"}))


class TestScrapeGating:
    def test_scrape_rejected_without_support(self):
        assert "scrape" not in PLAIN.capabilities
        with pytest.raises(ReproError, match="scrape_interval"):
            PLAIN.run(RunOptions(scrape_interval=0.01))

    def test_scrape_forwarded_when_supported(self):
        assert "scrape" in SCRAPABLE.capabilities
        assert SCRAPABLE.run(
            RunOptions(scrape_interval=0.01)
        )["scrape_interval"] == 0.01

    def test_scrape_off_never_forwarded(self):
        # A runner that declares no capability is called without the
        # options at all.
        assert PLAIN.run() == {}


class TestRegisteredCapabilities:
    @pytest.mark.parametrize("exp_id", ["fig5", "fig12b", "fig14"])
    def test_ported_topologies_support_shards(self, exp_id):
        assert "shards" in registry.get(exp_id).capabilities

    @pytest.mark.parametrize("exp_id", ["fig5", "fig12b"])
    def test_adapter_experiments_support_lifted_knobs(self, exp_id):
        capabilities = registry.get(exp_id).capabilities
        assert "shard_tuning" in capabilities
        assert "slo" in capabilities
        assert "trace_dir" in capabilities

    def test_serial_experiments_do_not(self):
        assert "shards" not in registry.get("fig16").capabilities

    @pytest.mark.parametrize("exp_id", ["fig5", "fig12b"])
    def test_adapter_experiments_support_scrape(self, exp_id):
        assert "scrape" in registry.get(exp_id).capabilities

    def test_fanout_port_refuses_scrape(self):
        # The hand-written fan-out runner declares no scrape support:
        # asking fig14 for a timeline is a loud error, never a
        # silently-unscraped run.
        spec = registry.get("fig14")
        assert "scrape" not in spec.capabilities
        with pytest.raises(ReproError, match="scrape_interval"):
            spec.run(RunOptions(scrape_interval=0.01))
