"""Golden journal keys: run options must never move a point's key.

Every journal entry's ``"key"`` and the manifest's ``"config_hash"``
below are hex literals recorded from the keyword-threaded sweeps that
:class:`~repro.experiments.options.RunOptions` replaced. A run
directory written by any earlier version must keep resuming, so a
change to how options encode into a sweep's config fails here first.
"""

import json
import warnings

import pytest

from repro.apps import thrift_echo, two_tier
from repro.experiments import (
    load_latency_sweep,
    node_failure_experiment,
    registry,
    rollout_experiment,
)
from repro.experiments.options import RunOptions
from repro.experiments.tail_at_scale import tail_at_scale_sweep
from repro.faults import FaultPlan
from repro.telemetry.tracing import TraceConfig

LOADS = (1000.0, 2000.0)
WINDOW = dict(duration=0.04, warmup=0.01)
GRID = dict(
    cluster_sizes=(3,), slow_fractions=(0.0, 0.5), qps=50.0,
    num_requests=20,
)
NODE_FAILURE = dict(seeds=(1,), duration=1.0, fail_at=0.3, recovery_from=0.6)

#: case -> (journal keys in journal order, manifest config_hash)
GOLDEN = {
    "load/plain": (
        ("f21d984c0214d87f4246", "44a2851e5835a2a436f5"),
        "47f75598f5379192472a",
    ),
    "load/audit": (
        ("830c5139da4ceac62be9", "850f504221c4eac17659"),
        "5afc01af32b3e1278cd4",
    ),
    "load/trace_dir": (
        ("4ebb2c9f7784c06aa611", "0f6f3384c2551bc793eb"),
        "e90ba52ece867c1001a2",
    ),
    "load/trace_config": (
        ("1416384c3f772d57a550", "47bff353386f79198efb"),
        "e4ebb499c90a02b47b71",
    ),
    "load/slo": (
        ("1058556a27755a409cc0", "c7e98c98d7404fba4c08"),
        "9efaa73bf893611f4ce6",
    ),
    "load/scrape": (
        ("dcab73b655248cb55a8f", "604de8ccebbf5246486e"),
        "c5ddec18427893c2ba28",
    ),
    "load/fault_plan": (
        ("6482a75dffd01f17d4af", "c5d1b76467f798edd3e8"),
        "0b0fb130ebe351c54b33",
    ),
    "load/shards2": (
        ("96a07a4829a9c0bd1115", "b33e7aa85f624c7b3990"),
        "5f7c58d1baa341b68c21",
    ),
    "fig14/plain": (
        ("4ce61100e7c76420c521", "6894d5bd55d6ee5736f1"),
        "7397ba9664b07f6d9d6c",
    ),
    "fig14/slo_fault_plan": (
        ("e70a3ce43f40ae354263", "6ae174180ba68e812e9a"),
        "394a2f156198f5e5ac8b",
    ),
    "node_failure": (("ecf0bc8acac42f291d9e",), "484da0f368aaf881849e"),
    "node_failure/plan_audit": (
        ("e5ae3112ed5184e1c691",), "2aad53545f36d9136a15",
    ),
    "rollout": (("52ab5920c5e8551fdb55",), "31fafe36e13baabb7c1f"),
    "registry/fig6_trace_audit": (
        ("b62a88e7d6309a887e16", "cb4771ee52d39c07befb"),
        "d029a3ebeba1dd1d5c23",
    ),
    "registry/fig14_trace": (
        ("03500f9f3b72851bd19a", "bd4afd099ab1b8fe5e55"),
        "880c3418dd95385a8867",
    ),
}


def _load_sweep(builder=thrift_echo, **knobs):
    def run(run_dir, tmp_path):
        load_latency_sweep(
            builder, LOADS, options=RunOptions(run_dir=run_dir, **knobs),
            **WINDOW,
        )
    return run


def _trace_dir(**knobs):
    def run(run_dir, tmp_path):
        _load_sweep(trace_dir=tmp_path / "traces", **knobs)(run_dir, tmp_path)
    return run


def _sharded_fallback(run_dir, tmp_path):
    # The default fabric has no lookahead, so the point falls back to
    # the vanilla engine — but shards=2 still joins the config.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _load_sweep(two_tier, shards=2)(run_dir, tmp_path)


def _fig14(**knobs):
    def run(run_dir, tmp_path):
        tail_at_scale_sweep(
            options=RunOptions(run_dir=run_dir, **knobs), **GRID
        )
    return run


def _node_failure(**knobs):
    def run(run_dir, tmp_path):
        node_failure_experiment(
            options=RunOptions(run_dir=run_dir, **knobs), **NODE_FAILURE
        )
    return run


def _rollout(run_dir, tmp_path):
    rollout_experiment(
        seeds=(1,), duration=1.0, start_at=0.2, observe_for=0.4,
        options=RunOptions(run_dir=run_dir),
    )


def _registry_fig6(run_dir, tmp_path):
    registry.get("fig6").run(
        RunOptions(run_dir=run_dir, trace_dir=tmp_path / "traces",
                   audit=True),
        loads=(1000.0,), **WINDOW,
    )


def _registry_fig14(run_dir, tmp_path):
    registry.get("fig14").run(
        RunOptions(run_dir=run_dir, trace_dir=tmp_path / "traces",
                   trace=TraceConfig(sample_rate=0.5)),
        **GRID,
    )


CASES = {
    "load/plain": _load_sweep(),
    "load/audit": _load_sweep(audit=True),
    "load/trace_dir": _trace_dir(),
    "load/trace_config": _trace_dir(trace=TraceConfig(sample_rate=0.5)),
    "load/slo": _load_sweep(slo="p99<5ms"),
    "load/scrape": _load_sweep(scrape_interval=0.01),
    "load/fault_plan": _load_sweep(
        fault_plan=FaultPlan().slow(0.02, "thrift0", 2.0)
    ),
    "load/shards2": _sharded_fallback,
    "fig14/plain": _fig14(),
    "fig14/slo_fault_plan": _fig14(
        slo="p99<50ms", fault_plan=FaultPlan().slow(0.1, "leaf0", 3.0)
    ),
    "node_failure": _node_failure(),
    "node_failure/plan_audit": _node_failure(
        audit=True, fault_plan=FaultPlan().fail_machine(0.3, "node1")
    ),
    "rollout": _rollout,
    "registry/fig6_trace_audit": _registry_fig6,
    "registry/fig14_trace": _registry_fig14,
}


def test_every_case_is_pinned():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_journal_keys_and_config_hash_are_stable(case, tmp_path):
    run_dir = tmp_path / "run"
    CASES[case](run_dir, tmp_path)
    journal = (run_dir / "journal.jsonl").read_text().splitlines()
    keys = tuple(json.loads(line)["key"] for line in journal)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert (keys, manifest["config_hash"]) == GOLDEN[case]
