"""Tests for the `python -m repro` CLI."""

import pytest

from repro.__main__ import main

from .config.conftest import spec_dir  # noqa: F401 (fixture reuse)


class TestRunCommand:
    def test_run_spec_directory(self, spec_dir, capsys):
        code = main(["run", str(spec_dir), "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "requests ok" in out
        assert "p99 (ms)" in out
        # Fault-free runs keep the old shape: no error-outcome rows.
        assert "requests failed" not in out

    def test_run_surfaces_error_outcomes(self, spec_dir, capsys):
        (spec_dir / "faults.json").write_text(
            '{"faults": [{"at": 0.05, "kind": "crash",'
            ' "instance": "cache0"}]}'
        )
        code = main(["run", str(spec_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "requests ok" in out
        assert "requests failed" in out

    def test_run_with_realism(self, spec_dir, capsys):
        code = main(["run", str(spec_dir), "--real"])
        assert code == 0
        assert "real-system surrogate" in capsys.readouterr().out

    def test_run_with_horizon(self, spec_dir, capsys):
        code = main(["run", str(spec_dir), "--until", "0.5"])
        assert code == 0

    def test_missing_spec_dir_reports_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert len(err.strip().splitlines()) == 1  # one-line message

    def test_spec_without_client_rejected(self, spec_dir, capsys):
        (spec_dir / "client.json").unlink()
        code = main(["run", str(spec_dir)])
        assert code == 2


class TestExperimentsCommand:
    def test_list(self, capsys):
        code = main(["experiments", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig8" in out
        assert "Table III" in out

    def test_run_dispatches_to_registry(self, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.registry import ExperimentSpec

        cheap = ExperimentSpec("figX", "Figure X", "stub", lambda: "ran")
        monkeypatch.setitem(registry._BY_ID, "figX", cheap)
        code = main(["experiments", "run", "figX"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ran" in out

    def test_run_forwards_seed_override(self, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.registry import ExperimentSpec

        seen = {}

        def runner(seed=0):
            seen["seed"] = seed
            return "ran"

        cheap = ExperimentSpec("figY", "Figure Y", "stub", runner)
        monkeypatch.setitem(registry._BY_ID, "figY", cheap)
        assert main(["experiments", "run", "figY", "--seed", "17"]) == 0
        assert seen["seed"] == 17
        capsys.readouterr()

    def test_run_forwards_jobs(self, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.registry import ExperimentSpec

        seen = {}

        def runner(options):
            seen["jobs"] = options.jobs
            return "ran"

        cheap = ExperimentSpec("figZ", "Figure Z", "stub", runner,
                               frozenset({"jobs"}))
        monkeypatch.setitem(registry._BY_ID, "figZ", cheap)
        assert main(["experiments", "run", "figZ", "--jobs", "3"]) == 0
        assert seen["jobs"] == 3
        capsys.readouterr()

    def test_jobs_not_forced_on_serial_runner(self, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.registry import ExperimentSpec

        cheap = ExperimentSpec("figW", "Figure W", "stub", lambda: "ran")
        monkeypatch.setitem(registry._BY_ID, "figW", cheap)
        # A runner with no jobs parameter must still run under --jobs.
        assert main(["experiments", "run", "figW", "--jobs", "4"]) == 0
        capsys.readouterr()

    def test_unknown_experiment_id(self, capsys):
        code = main(["experiments", "run", "fig99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "fig99" in err


class TestDurableExperimentFlags:
    def _install(self, monkeypatch, exp_id, runner, capabilities=()):
        from repro.experiments import registry
        from repro.experiments.registry import ExperimentSpec

        cheap = ExperimentSpec(exp_id, "Figure T", "stub", runner,
                               frozenset(capabilities))
        monkeypatch.setitem(registry._BY_ID, exp_id, cheap)

    def test_run_dir_and_resume_forwarded(self, capsys, monkeypatch,
                                          tmp_path):
        seen = {}

        def runner(options):
            seen.update(run_dir=options.run_dir, resume=options.resume)
            return "ran"

        self._install(monkeypatch, "figT", runner, {"run_dir"})
        run_dir = tmp_path / "run"
        assert main([
            "experiments", "run", "figT",
            "--run-dir", str(run_dir), "--no-resume",
        ]) == 0
        assert seen == {"run_dir": str(run_dir), "resume": False}
        capsys.readouterr()

    def test_audit_forwarded(self, capsys, monkeypatch):
        seen = {}

        def runner(options):
            seen["audit"] = options.audit
            return "ran"

        self._install(monkeypatch, "figU", runner, {"audit"})
        assert main(["experiments", "run", "figU", "--audit"]) == 0
        assert seen == {"audit": True}
        capsys.readouterr()

    def test_manifest_summary_printed(self, capsys, monkeypatch, tmp_path):
        import json

        run_dir = tmp_path / "run"

        def runner(options):
            # Stand-in for a durable sweep leaving a manifest behind.
            from pathlib import Path
            Path(options.run_dir).mkdir(parents=True, exist_ok=True)
            (Path(options.run_dir) / "manifest.json").write_text(json.dumps({
                "experiment": "figV", "status": "completed",
                "counts": {"ok": 3}, "resumed_points": 1,
                "wall_time_s": 0.5,
            }))
            return "ran"

        self._install(monkeypatch, "figV", runner, {"run_dir"})
        assert main([
            "experiments", "run", "figV", "--run-dir", str(run_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "run figV: completed" in out
        assert "3/3 points ok" in out
        assert "1 reused from journal" in out

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def runner():
            raise KeyboardInterrupt

        self._install(monkeypatch, "figK", runner)
        code = main(["experiments", "run", "figK"])
        assert code == 130
        err = capsys.readouterr().err
        assert "resume" in err


class TestObservabilityFlags:
    def _install(self, monkeypatch, exp_id, runner, capabilities=()):
        from repro.experiments import registry
        from repro.experiments.registry import ExperimentSpec

        cheap = ExperimentSpec(exp_id, "Figure S", "stub", runner,
                               frozenset(capabilities))
        monkeypatch.setitem(registry._BY_ID, exp_id, cheap)

    def test_run_with_slo_prints_verdicts(self, spec_dir, capsys):
        code = main([
            "run", str(spec_dir), "--until", "0.3", "--slo", "p99<1s",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "SLO verdicts" in out
        assert "p99<1s" in out

    def test_run_with_profile_prints_hotspots(self, spec_dir, capsys):
        code = main([
            "run", str(spec_dir), "--until", "0.3", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "engine profile:" in out
        assert "hotspots" in out

    def test_run_with_trace_prints_analytics(self, spec_dir, capsys):
        code = main(["run", str(spec_dir), "--until", "0.3", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace analytics:" in out
        assert "tail attribution" in out
        assert "dependency graph" in out

    def test_run_without_observability_skips_report(self, spec_dir, capsys):
        code = main(["run", str(spec_dir), "--until", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace analytics" not in out
        assert "SLO verdicts" not in out

    def test_slo_forwarded_to_supporting_runner(self, capsys, monkeypatch):
        seen = {}

        def runner(options):
            seen["slo"] = options.slo
            return "ran"

        self._install(monkeypatch, "figS", runner, {"slo"})
        assert main([
            "experiments", "run", "figS",
            "--slo", "p99<5ms", "--slo", "avail>99.9%",
        ]) == 0
        assert seen == {"slo": ("p99<5ms", "avail>99.9%")}
        capsys.readouterr()

    def test_slo_rejected_by_unsupporting_runner(self, capsys, monkeypatch):
        self._install(monkeypatch, "figNoSlo", lambda: "ran")
        code = main([
            "experiments", "run", "figNoSlo", "--slo", "p99<5ms",
        ])
        assert code == 2
        assert "does not support slo" in capsys.readouterr().err

    def test_bad_slo_spec_is_a_config_error(self, spec_dir, capsys):
        code = main(["run", str(spec_dir), "--slo", "p99>5ms"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_with_scrape_prints_timeline(self, spec_dir, capsys):
        code = main([
            "run", str(spec_dir), "--until", "0.3",
            "--scrape-interval", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "timeline series" in out
        assert "per-tier utilisation over sim-time" in out

    def test_scrape_artifact_written_to_trace_dir(self, spec_dir, capsys,
                                                  tmp_path):
        out_dir = tmp_path / "out"
        code = main([
            "run", str(spec_dir), "--until", "0.3",
            "--scrape-interval", "0.05", "--trace-dir", str(out_dir),
        ])
        assert code == 0
        assert "timeline artifact" in capsys.readouterr().out
        from repro.telemetry import load_timeline

        payload = load_timeline(out_dir / "timeseries.json")
        assert payload["series"]

    def test_scrape_forwarded_to_supporting_runner(self, capsys,
                                                   monkeypatch):
        seen = {}

        def runner(options):
            seen["scrape_interval"] = options.scrape_interval
            return "ran"

        self._install(monkeypatch, "figScrape", runner, {"scrape"})
        assert main([
            "experiments", "run", "figScrape", "--scrape-interval", "0.01",
        ]) == 0
        assert seen == {"scrape_interval": 0.01}
        capsys.readouterr()

    def test_scrape_rejected_by_unsupporting_runner(self, capsys,
                                                    monkeypatch):
        self._install(monkeypatch, "figNoScrape", lambda: "ran")
        code = main([
            "experiments", "run", "figNoScrape",
            "--scrape-interval", "0.01",
        ])
        assert code == 2
        assert "does not support scrape_interval" in \
            capsys.readouterr().err

    def test_every_unsupported_knob_named_in_one_error(self, capsys):
        code = main([
            "experiments", "run", "fig6",
            "--slo", "p99<5ms", "--scrape-interval", "0.1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "does not support slo, scrape_interval" in err

    def test_trace_sample_without_trace_dir_rejected(self, capsys):
        code = main(["experiments", "run", "fig8", "--trace-sample", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--trace-sample" in err and "--trace-dir" in err

    @pytest.mark.parametrize("slos", [
        ["p99<5ms", "p95<2ms"],
        ["avail>99.9%"],
    ])
    def test_fig16_needs_exactly_one_latency_slo(self, capsys, slos):
        argv = ["experiments", "run", "fig16"]
        for spec in slos:
            argv += ["--slo", spec]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "latency SLO" in err


class TestAnalyzeCommand:
    def test_analyze_over_exported_traces(self, spec_dir, capsys, tmp_path):
        trace_dir = tmp_path / "traces"
        assert main([
            "run", str(spec_dir), "--until", "0.3",
            "--trace-dir", str(trace_dir),
        ]) == 0
        capsys.readouterr()
        code = main([
            "analyze", str(trace_dir), "--percentiles", "50,99", "--top", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace analytics:" in out
        assert "p50 ms" in out and "p99 ms" in out
        assert "exemplars" in out

    def test_analyze_empty_dir_exits_2(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path)])
        assert code == 2
        assert "otlp" in capsys.readouterr().err

    def test_analyze_timeline_renders_tables(self, spec_dir, capsys,
                                             tmp_path):
        out_dir = tmp_path / "out"
        assert main([
            "run", str(spec_dir), "--until", "0.3",
            "--scrape-interval", "0.05", "--trace-dir", str(out_dir),
        ]) == 0
        capsys.readouterr()
        code = main(["analyze", str(out_dir), "--timeline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-tier utilisation over sim-time" in out
        assert "client over sim-time" in out
        # The trace report still renders alongside the timelines.
        assert "trace analytics:" in out

    def test_analyze_timeline_without_traces_is_fine(self, capsys,
                                                     tmp_path):
        # A scraped-but-untraced run leaves only timeseries.json;
        # --timeline must render it instead of dying on missing OTLP.
        from repro.telemetry import timeline_payload, write_timeline

        write_timeline(tmp_path / "timeseries.json", timeline_payload(
            {"client/qps": {"times": [0.1, 0.2], "values": [5.0, 7.0]}},
            interval=0.1,
        ))
        code = main(["analyze", str(tmp_path), "--timeline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "client over sim-time" in out
        assert "trace analytics" not in out

    def test_analyze_timeline_empty_dir_exits_2(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path), "--timeline"])
        assert code == 2
        assert "timeline" in capsys.readouterr().err
