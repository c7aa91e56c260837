"""Tests for the load-sweep harness and saturation detection."""

import pytest

from repro.apps import thrift_echo
from repro.errors import ReproError
from repro.experiments import (
    SweepPoint,
    load_latency_sweep,
    measure_at_load,
    saturation_load,
)
from repro.experiments.options import RunOptions


class TestMeasureAtLoad:
    def test_light_load_keeps_up(self):
        point = measure_at_load(thrift_echo, 2000, duration=0.2, warmup=0.05)
        assert not point.saturated
        assert point.throughput == pytest.approx(2000, rel=0.2)
        assert point.p99 >= point.p95 >= point.p50

    def test_overload_is_detected(self):
        point = measure_at_load(thrift_echo, 90_000, duration=0.2, warmup=0.05)
        assert point.saturated
        assert point.p99 > 1e-3

    def test_row_formatting(self):
        point = SweepPoint(1000, 990.0, 1e-3, 0.9e-3, 1.5e-3, 2e-3, 500)
        row = point.row()
        assert row[0] == 1000
        assert row[2] == pytest.approx(1.0)  # mean in ms

    def test_warmup_validation(self):
        with pytest.raises(ReproError):
            measure_at_load(thrift_echo, 100, duration=0.1, warmup=0.2)


class TestPointSlo:
    def test_point_carries_slo_verdicts(self):
        # A generous objective on a light load: monitored but met.
        point = measure_at_load(
            thrift_echo, 2000, duration=0.2, warmup=0.05,
            options=RunOptions(slo="p99<1s"),
        )
        assert point.slo is not None
        assert set(point.slo) == {"p99<1s"}
        assert point.slo["p99<1s"]["breaches"] == 0
        assert point.slo_breaches == 0

    def test_overload_breaches_tight_slo(self):
        point = measure_at_load(
            thrift_echo, 90_000, duration=0.2, warmup=0.05,
            options=RunOptions(slo="p99<1ms"),
        )
        assert point.slo_breaches >= 1

    def test_no_slo_leaves_field_none(self):
        point = measure_at_load(thrift_echo, 2000, duration=0.2, warmup=0.05)
        assert point.slo is None
        assert point.slo_breaches == 0


class TestSweepAndSaturation:
    def test_sweep_sorts_loads(self):
        points = load_latency_sweep(
            thrift_echo, [5000, 1000], duration=0.15, warmup=0.05
        )
        assert [p.offered_qps for p in points] == [1000, 5000]

    def test_latency_monotone_toward_saturation(self):
        points = load_latency_sweep(
            thrift_echo, [2000, 40_000, 60_000], duration=0.2, warmup=0.05
        )
        p99s = [p.p99 for p in points]
        assert p99s[2] > p99s[0]

    def test_saturation_load_picks_knee(self):
        points = [
            SweepPoint(1000, 1000, 1e-4, 1e-4, 2e-4, 3e-4, 100),
            SweepPoint(2000, 2000, 1e-4, 1e-4, 2e-4, 3e-4, 200),
            SweepPoint(3000, 2400, 1e-3, 1e-3, 2e-3, 5e-3, 240),  # saturated
        ]
        assert saturation_load(points) == 2000

    def test_saturation_load_with_p99_limit(self):
        points = [
            SweepPoint(1000, 1000, 1e-4, 1e-4, 2e-4, 3e-4, 100),
            SweepPoint(2000, 2000, 1e-3, 1e-3, 5e-3, 20e-3, 200),
        ]
        assert saturation_load(points, p99_limit=10e-3) == 1000

    def test_all_saturated_returns_zero(self):
        points = [SweepPoint(1000, 100, 1.0, 1.0, 1.0, 1.0, 10)]
        assert saturation_load(points) == 0.0


class TestSeedDerivation:
    def test_close_loads_are_decorrelated(self):
        # int(qps) truncation used to collapse 50.2 and 50.9 onto one
        # seed, making near-identical loads share every random draw.
        a = measure_at_load(thrift_echo, 50.2, duration=0.15, warmup=0.05)
        b = measure_at_load(thrift_echo, 50.9, duration=0.15, warmup=0.05)
        assert a.mean != b.mean

    def test_same_load_is_reproducible(self):
        a = measure_at_load(thrift_echo, 50.2, duration=0.15, warmup=0.05)
        b = measure_at_load(thrift_echo, 50.2, duration=0.15, warmup=0.05)
        assert (a.mean, a.p99, a.completed) == (b.mean, b.p99, b.completed)


class TestParallelSweep:
    def test_jobs_identity(self):
        # The headline determinism claim: fanning the sweep out across
        # processes changes nothing, bit for bit.
        loads = [1000, 2000, 3000, 4000]
        serial = load_latency_sweep(
            thrift_echo, loads, duration=0.15, warmup=0.05,
            options=RunOptions(jobs=1)
        )
        fanned = load_latency_sweep(
            thrift_echo, loads, duration=0.15, warmup=0.05,
            options=RunOptions(jobs=2)
        )
        assert fanned == serial

    def test_parallel_sweep_sorts_loads(self):
        points = load_latency_sweep(
            thrift_echo, [3000, 1000], duration=0.15, warmup=0.05,
            options=RunOptions(jobs=2)
        )
        assert [p.offered_qps for p in points] == [1000, 3000]
