"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_simulate_validates_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "dhrystone"])

    def test_simulate_validates_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "gcc", "--scheme", "magic"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "gcc"])
        assert args.scheme == "ccnvm"
        assert args.length == 4000

    def test_crash_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crash"])

    def test_crash_campaign_defaults(self):
        args = build_parser().parse_args(["crash", "campaign"])
        assert args.schemes is None and args.profiles is None
        assert args.steps is None and args.shards is None
        assert args.window == 4 and args.seed == 7 and args.spot == 1
        assert args.min_classes == 0
        assert args.json is None and args.reproducers is None
        assert args.jobs == 1 and not args.no_cache

    def test_crash_campaign_validates_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crash", "campaign", "--schemes", "magic"])

    def test_crash_replay_and_minimize_take_a_file(self):
        args = build_parser().parse_args(["crash", "replay", "r.json"])
        assert args.file == "r.json"
        args = build_parser().parse_args(
            ["crash", "minimize", "r.json", "--out", "m.json"]
        )
        assert args.file == "r.json" and args.out == "m.json"

    def test_simulate_report_flags(self):
        args = build_parser().parse_args(
            ["simulate", "gcc", "--report", "--stats-json", "s.json"]
        )
        assert args.report and args.stats_json == "s.json"

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.root is None and args.baseline is None
        assert not args.json and not args.strict and not args.update_baseline

    def test_lint_flags(self):
        args = build_parser().parse_args(
            ["lint", "--strict", "--json", "--baseline", "b.txt"]
        )
        assert args.strict and args.json and args.baseline == "b.txt"


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "16 GB PCM" in out
        assert "M=64, N=16" in out
        assert "cc-NVM" in out

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "success=True" in out
        assert "located=['0x1000']" in out

    def test_simulate_runs(self, capsys):
        assert main(["simulate", "namd", "--length", "300"]) == 0
        out = capsys.readouterr().out
        assert "cc-NVM on namd" in out
        assert "IPC" in out

    def test_simulate_report_and_stats_json(self, capsys, tmp_path):
        import json

        from repro.common.stats import render_report
        from repro.sim.runner import run_simulation
        from repro.workloads.spec import spec_trace

        stats_path = tmp_path / "stats.json"
        assert main(["simulate", "namd", "--length", "300", "--report",
                     "--stats-json", str(stats_path)]) == 0
        out = capsys.readouterr().out
        assert "p50=" in out  # distributions render percentiles
        doc = json.loads(stats_path.read_text())
        assert any(key.startswith("ccnvm.controller.") for key in doc)
        # distributions export the summary-dict shape
        assert any(isinstance(v, dict) and "n" in v for v in doc.values())
        # Both views are the run's own result.stats, rendered once.
        expected = run_simulation("ccnvm", spec_trace("namd", 300, 1)).stats
        assert doc == expected
        assert render_report(expected) in out

    def test_crash_replay_fixture(self, capsys):
        fixture = __import__("pathlib").Path(
            __file__
        ).parent.parent / "fixtures" / "crash_reproducer_torn_batch.json"
        assert main(["crash", "replay", str(fixture)]) == 0
        out = capsys.readouterr().out
        assert "failure reproduced" in out
        assert "outcome FAILED" in out

    @pytest.mark.parametrize("command", ["replay", "minimize"])
    def test_crash_reproducer_with_a_site_schedule_exits_2(
        self, command, capsys, tmp_path
    ):
        """Schedules list recovery prefix lengths; a retired
        ``[site, hit]`` pair is rejected before any oracle runs."""
        import json

        fixture = __import__("pathlib").Path(
            __file__
        ).parent.parent / "fixtures" / "crash_reproducer_torn_batch.json"
        doc = json.loads(fixture.read_text())
        doc["schedule"] = [["recovery.mid_rebuild", 1]]
        artifact = tmp_path / "old.json"
        artifact.write_text(json.dumps(doc))
        assert main(["crash", command, str(artifact)]) == 2
        err = capsys.readouterr().err
        assert f"repro crash {command}:" in err
        assert "retired [site, hit] pair" in err

    def test_crash_replay_rejects_a_non_positive_prefix(self, capsys, tmp_path):
        import json

        fixture = __import__("pathlib").Path(
            __file__
        ).parent.parent / "fixtures" / "crash_reproducer_torn_batch.json"
        doc = json.loads(fixture.read_text())
        doc["schedule"] = [0]
        artifact = tmp_path / "zero.json"
        artifact.write_text(json.dumps(doc))
        assert main(["crash", "replay", str(artifact)]) == 2
        assert "not a recovery prefix length" in capsys.readouterr().err

    def test_crash_campaign_smoke(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # the cache lands here
        assert main([
            "crash", "campaign", "--schemes", "ccnvm", "--profiles", "hotset",
            "--steps", "24", "--quiet",
            "--json", "crash.json", "--reproducers", "repros",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and "campaign ok" in out
        import json

        summary = json.loads((tmp_path / "crash.json").read_text())
        assert summary["totals"]["violations"] == 0
        assert list(summary["grid"]) == ["ccnvm"]
        assert list(summary["grid"]["ccnvm"]) == ["hotset"]
        # No violations -> the reproducer directory exists but is empty.
        assert list((tmp_path / "repros").iterdir()) == []

    @pytest.mark.parametrize("flag", [
        ["--shards", "0"], ["--spot", "-1"], ["--profiles", "nosuch"],
        ["--steps", "-3"], ["--steps", "0"], ["--window", "-1"],
    ])
    def test_crash_rejects_shapes_that_cover_nothing(self, capsys, flag):
        assert main(["crash", "campaign", "--quiet", "--no-cache", *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro crash campaign: ")
        expected = "unknown profile" if flag[0] == "--profiles" else "must be at least"
        assert expected in err

    def test_crash_campaign_with_no_cells_fails(self, capsys, monkeypatch, tmp_path):
        import repro.crashsim.explore as explore_mod

        def broken(spec):
            raise RuntimeError("every shard fails")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(explore_mod, "run_enumerate_cell", broken)
        assert main([
            "crash", "campaign", "--schemes", "ccnvm", "--profiles", "hotset",
            "--steps", "8", "--shards", "1", "--quiet", "--no-cache",
        ]) == 1
        out = capsys.readouterr().out
        assert "campaign FAILED: no grid cell ran" in out
        assert "0 oracle calls (-x)" in out and "Nonex" not in out

    @pytest.mark.parametrize("flag", [
        ["--k", "0"], ["--k", "7"], ["--k", "1", "--campaign", "--spot", "-1"],
    ])
    def test_traffic_ace_rejects_bad_arguments(self, capsys, flag):
        assert main(["traffic", "ace", "--quiet", "--no-cache", *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro traffic ace: ") and "must be" in err

    def test_traffic_ace_campaign_gate(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main([
            "traffic", "ace", "--k", "2", "--campaign", "--schemes", "ccnvm",
            "--no-cache", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "ace campaign ok" in out

    def test_lint_runs_clean_on_repo(self, capsys, monkeypatch):
        import repro

        repo_root = __import__("pathlib").Path(
            repro.__file__
        ).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "repro lint:" in out
        assert "0 finding(s)" in out

    def test_lint_json_emits_report(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.chdir(tmp_path)  # no baseline here: finding surfaces
        assert main(["lint", "--json"]) in (0, 1)
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"counts", "findings", "rules", "root",
                            "schema_version"}
        assert set(doc["rules"]) == {
            "P0", "P1", "P4", "P7", "D1", "B0",
        }

    def test_lint_update_baseline_writes_file(self, capsys, monkeypatch,
                                              tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--update-baseline"]) == 0
        baseline = tmp_path / "lint-baseline.txt"
        assert baseline.exists()
        # the rewritten baseline makes the next strict run clean
        capsys.readouterr()
        assert main(["lint", "--strict"]) == 0

    @pytest.mark.slow
    def test_evaluate_runs_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # the cache/journal land here
        assert main(["evaluate", "--length", "300", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out
        assert "Figure 5(b)" in out
        assert "average" in out
        assert "orchestration: 40 specs: 40 executed" in out

    @pytest.mark.slow
    def test_evaluate_second_run_is_served_from_cache(self, capsys,
                                                      monkeypatch, tmp_path):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--length", "300", "--quiet",
                     "--json", "BENCH_fig5.json"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--length", "300", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 40 from cache" in out
        artifact = json.loads((tmp_path / "BENCH_fig5.json").read_text())
        assert artifact["benchmark"] == "fig5"
        assert len(artifact["workloads"]) == 8
        capsys.readouterr()
        assert main(["runs", "status", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["stats"]["hits"] >= 40

    @pytest.mark.slow
    def test_evaluate_no_cache_reexecutes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--length", "300", "--quiet", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--length", "300", "--quiet", "--no-cache"]) == 0
        assert "40 executed, 0 from cache" in capsys.readouterr().out

    def test_runs_status_on_empty_cache(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["runs", "status"]) == 0
        assert "no cached results" in capsys.readouterr().out

    def test_runs_gc_reports_scope(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["runs", "gc", "--all"]) == 0
        assert "all generations" in capsys.readouterr().out

    def test_crash_rejects_empty_workload_before_any_shard(self, capsys, monkeypatch):
        import repro.crashsim.explore as explore_mod

        def never(spec):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(explore_mod, "run_enumerate_cell", never)
        assert main([
            "crash", "campaign", "--steps", "-3", "--schemes", "sc",
            "--profiles", "lbm", "--no-cache",
        ]) == 2
        assert main([
            "crash", "campaign", "--steps", "0", "--profiles", "hotset",
            "--no-cache",
        ]) == 2
        captured = capsys.readouterr()
        assert "campaign ok" not in captured.out
        assert "steps must be at least 1, got -3" in captured.err
        assert "steps must be at least 1, got 0" in captured.err

    def test_crash_rejects_negative_window_before_any_shard(self, capsys, monkeypatch):
        import repro.crashsim.explore as explore_mod

        def never(spec):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(explore_mod, "run_enumerate_cell", never)
        assert main([
            "crash", "campaign", "--window", "-1", "--schemes", "ccnvm",
            "--profiles", "hotset", "--no-cache",
        ]) == 2
        assert "window must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--length", "0"],
        ["evaluate", "--length", "-5"],
        ["sweep", "--length", "0"],
        ["simulate", "gcc", "--length", "0"],
        ["simulate", "gcc", "--length", "-1"],
        ["evaluate", "--jobs", "0"],
        ["sweep", "--jobs", "-1"],
        ["crash", "campaign", "--jobs", "0"],
        ["traffic", "ace", "--campaign", "--jobs", "0"],
    ])
    def test_non_positive_length_and_jobs_exit_2_at_parse_time(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_positive_length_and_jobs_parse(self):
        args = build_parser().parse_args(["simulate", "gcc", "--length", "1"])
        assert args.length == 1
        args = build_parser().parse_args(["evaluate", "--length", "7", "--jobs", "3"])
        assert (args.length, args.jobs) == (7, 3)

    def test_run_option_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.jobs == 1 and not args.no_cache
        assert args.json is None
        args = build_parser().parse_args(
            ["crash", "campaign", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4 and args.no_cache
