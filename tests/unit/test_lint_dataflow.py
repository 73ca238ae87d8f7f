"""Unit tests for the call-graph rules of ``repro lint``.

Covers the call graph, the trace-seam coherence checks (P7), the
set-order determinism rule (D1), the baseline justification anchors (B0) and
the static/dynamic persist-site cross-check — against the committed
fixture corpora in ``tests/fixtures/lint/`` and against the real tree.
"""

import json
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.lint import (
    LintConfig,
    build_callgraph,
    build_model,
    cross_check,
    run_lint,
    static_persist_sites,
    write_baseline,
)

REPO_SRC = Path(repro.__file__).resolve().parent
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "lint"

def lint_fixture(name, **overrides):
    return run_lint(
        LintConfig(root=FIXTURES / name, base_dir=FIXTURES, **overrides)
    )


def tokens(report):
    return {(f.rule, f.symbol, f.token) for f in report.new}


def rules_fired(report):
    return {f.rule for f in report.new}


class TestP7Fixtures:
    def test_untraced_mutator_unbalanced_group_unbracketed_op(self):
        report = lint_fixture("ordering_tp")
        found = tokens(report)
        assert ("P7", "FakeTCB.silent_bump", "untraced:silent_bump") in found
        assert ("P7", "UnbalancedGroup.writeback", "unbalanced-group") in found
        assert ("P7", "UnbracketedCounting._bump",
                "unbracketed:count_writeback") in found

    def test_bracketed_helper_and_direct_use_stay_silent(self):
        report = lint_fixture("ordering_tn")
        assert rules_fired(report) == set(), [f.render() for f in report.new]


class TestDeterminismFixtures:
    def test_true_positives(self):
        report = lint_fixture("determinism_tp")
        assert tokens(report) == {
            ("D1", "fold_addresses", "set-iteration"),
            ("D1", "profile_names", "set-iteration"),
        }

    def test_true_negatives_including_exemptions(self):
        report = lint_fixture("determinism_tn")
        assert rules_fired(report) == set(), [f.render() for f in report.new]

    def test_empty_entries_disable_the_family(self):
        report = lint_fixture("determinism_tp", deterministic_entries=())
        assert rules_fired(report) == set()

    def test_entries_scope_the_reachable_set(self):
        # Aim the entries at one function only: its violations stay,
        # everything else goes quiet.
        report = lint_fixture(
            "determinism_tp",
            deterministic_entries=("runs/spec.py::fold_addresses",),
        )
        assert {f.symbol for f in report.new} == {"fold_addresses"}


class TestCallGraph:
    def make_model(self, tmp_path, files):
        root = tmp_path / "pkg"
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        return build_model(root, tmp_path)

    def test_virtual_dispatch_joins_overrides(self, tmp_path):
        model = self.make_model(tmp_path, {"mod.py": """
            class Base:
                def seam(self):
                    self.step()

                def step(self):
                    pass

            class Sub(Base):
                def step(self):
                    self.leaf()

                def leaf(self):
                    pass
        """})
        graph = build_callgraph(model)
        [site] = [
            s for s in graph.sites["pkg/mod.py::Base.seam"] if s.name == "step"
        ]
        assert set(site.targets) == {
            "pkg/mod.py::Base.step", "pkg/mod.py::Sub.step",
        }
        reachable = graph.reachable(["pkg/mod.py::Base.seam"])
        assert "pkg/mod.py::Sub.leaf" in reachable

    def test_bare_calls_resolve_within_the_module_only(self, tmp_path):
        model = self.make_model(tmp_path, {
            "a.py": """
                def entry():
                    helper()

                def helper():
                    pass
            """,
            "b.py": """
                def helper():
                    pass
            """,
        })
        graph = build_callgraph(model)
        [site] = graph.sites["pkg/a.py::entry"]
        assert site.targets == ("pkg/a.py::helper",)


class TestCrossCheck:
    def test_real_tree_static_and_dynamic_sites_agree(self):
        model = build_model(REPO_SRC, REPO_SRC.parent)
        config = LintConfig(root=REPO_SRC, base_dir=REPO_SRC.parent)
        report = cross_check(model, config, steps=200)
        assert report.ok, report.render_text()
        owners = {owner for owner, _ in report.static_sites}
        assert owners == {"WritePendingQueue", "TCB"}
        assert ("WritePendingQueue", "write_atomic") in report.static_sites
        assert ("TCB", "count_writeback") in report.static_sites

    def test_static_side_reads_the_fixture_seams(self):
        model = build_model(FIXTURES / "ordering_tn", FIXTURES)
        config = LintConfig(
            root=FIXTURES / "ordering_tn",
            base_dir=FIXTURES,
            scheme_root="OrderedScheme",
            cross_check_entries=("_post_writeback", "_update_tree"),
        )
        sites = static_persist_sites(model, config)
        assert ("FakeWPQ", "write") in sites
        assert ("FakeWPQ", "write_atomic") in sites
        assert ("FakeTCB", "commit_root") in sites

    def test_mismatch_is_reported_in_both_directions(self):
        # Static model from the fixture tree, dynamic trace from the
        # real schemes: nothing lines up, and the report says so both
        # ways instead of hiding either side.
        model = build_model(FIXTURES / "ordering_tn", FIXTURES)
        config = LintConfig(
            root=FIXTURES / "ordering_tn",
            base_dir=FIXTURES,
            scheme_root="OrderedScheme",
            cross_check_entries=("_post_writeback",),
        )
        report = cross_check(model, config, schemes=("no_cc",), steps=50)
        assert not report.ok
        assert report.static_only
        assert report.dynamic_only
        text = report.render_text()
        assert "static-only" in text and "dynamic-only" in text
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["static_only"] and doc["dynamic_only"]

    @staticmethod
    def break_recorder(monkeypatch):
        """Make every smoke recording raise like an unbalanced group does."""
        from repro.crashsim import workload

        def broken(scheme, steps, seed):
            raise RuntimeError("end_combined without begin_combined")

        monkeypatch.setattr(workload, "record_workload", broken)

    def test_recorder_failure_is_reported_per_scheme(self, monkeypatch):
        self.break_recorder(monkeypatch)
        model = build_model(REPO_SRC, REPO_SRC.parent)
        config = LintConfig(root=REPO_SRC, base_dir=REPO_SRC.parent)
        report = cross_check(model, config, schemes=("no_cc", "sc"), steps=10)
        assert not report.ok
        assert [scheme for scheme, _ in report.errors] == ["no_cc", "sc"]
        for _, error in report.errors:
            assert error.startswith(
                "RuntimeError: end_combined without begin_combined (at "
            )
        assert "recording failed: no_cc" in report.render_text()
        assert report.to_dict()["errors"][1][0] == "sc"

    def test_cli_writes_the_diff_and_fails_on_a_recorder_error(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        self.break_recorder(monkeypatch)
        out = tmp_path / "xcheck.json"
        monkeypatch.chdir(REPO_SRC.parents[1])
        assert main(["lint", "--cross-check", "--cross-check-out", str(out)]) == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["ok"] is False
        assert [scheme for scheme, _ in doc["errors"]] == doc["schemes"]
        assert "recording failed" in capsys.readouterr().out


class TestBaselineAnchors:
    def write_tree(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "decl.py").write_text(
            textwrap.dedent("""
                @persistence(persistent=("x",), aka=("tcb",), mutators=("bump",))
                class Owner:
                    def bump(self):
                        self.x = 1
            """),
            encoding="utf-8",
        )
        return root

    def seeded_finding_config(self, tmp_path, baseline_text, design_text=None):
        root = self.write_tree(tmp_path)
        (root / "evil.py").write_text(
            textwrap.dedent("""
                class Outside:
                    def smash(self, tcb):
                        tcb.x = 2
            """),
            encoding="utf-8",
        )
        baseline = tmp_path / "lint-baseline.txt"
        baseline.write_text(baseline_text, encoding="utf-8")
        design = None
        if design_text is not None:
            design = tmp_path / "DESIGN.md"
            design.write_text(design_text, encoding="utf-8")
        return LintConfig(
            root=root,
            base_dir=tmp_path,
            baseline_path=baseline,
            design_path=design,
        )

    KEY = "P1|pkg/evil.py|Outside.smash|tcb.x"

    def test_unanchored_entry_fails_b0(self, tmp_path):
        config = self.seeded_finding_config(
            tmp_path, f"{self.KEY}\n", design_text="# doc\n"
        )
        report = run_lint(config)
        assert [f.rule for f in report.new] == ["B0"]
        [b0] = report.new
        assert b0.token.startswith("unanchored:")
        assert not report.ok()

    def test_dangling_anchor_fails_b0(self, tmp_path):
        config = self.seeded_finding_config(
            tmp_path, f"{self.KEY} #missing-anchor\n", design_text="# doc\n"
        )
        report = run_lint(config)
        assert [f.rule for f in report.new] == ["B0"]
        [b0] = report.new
        assert b0.token == "dangling:missing-anchor"

    def test_resolving_anchor_is_clean(self, tmp_path):
        config = self.seeded_finding_config(
            tmp_path,
            f"{self.KEY} #ok-anchor\n",
            design_text="### Why this is fine {#ok-anchor}\n",
        )
        report = run_lint(config)
        assert report.ok(strict=True), [f.render() for f in report.new]
        assert [f.key for f in report.baselined] == [self.KEY]

    def test_without_design_path_anchors_are_not_required(self, tmp_path):
        config = self.seeded_finding_config(tmp_path, f"{self.KEY}\n")
        report = run_lint(config)
        assert report.ok(strict=True)

    def test_update_baseline_preserves_anchors(self, tmp_path):
        config = self.seeded_finding_config(
            tmp_path,
            f"{self.KEY} #ok-anchor\n",
            design_text="### Why {#ok-anchor}\n",
        )
        report = run_lint(config)
        write_baseline(report, config.baseline_path)
        text = config.baseline_path.read_text(encoding="utf-8")
        assert f"{self.KEY} #ok-anchor" in text
        # and the rewritten file still lints clean with anchors enforced
        assert run_lint(config).ok(strict=True)


class TestRealTreeDataflow:
    def config(self):
        return LintConfig(
            root=REPO_SRC,
            base_dir=REPO_SRC.parent,
            baseline_path=REPO_SRC.parents[1] / "lint-baseline.txt",
            design_path=REPO_SRC.parents[1] / "DESIGN.md",
        )

    def test_repo_lints_clean_with_anchors_enforced(self):
        report = run_lint(self.config())
        assert report.ok(strict=True), "\n".join(
            f.render() for f in report.new
        )
        baselined = {f.key for f in report.baselined}
        assert (
            "P7|repro/core/tcb.py|TCB.restore_registers|"
            "untraced:restore_registers"
        ) in baselined

    def test_determinism_rules_have_zero_false_positives(self):
        report = run_lint(self.config())
        assert not [f for f in report.new if f.rule == "D1"]

    def test_analyzer_runtime_stays_under_budget(self):
        started = time.perf_counter()
        report = run_lint(self.config())
        elapsed = time.perf_counter() - started
        assert report.files_analyzed > 50
        assert elapsed < 5.0, f"lint took {elapsed:.2f}s on the full tree"
        assert report.duration_seconds == pytest.approx(elapsed, abs=1.0)


class TestDeterministicJson:
    def test_json_is_byte_stable(self):
        from repro.analysis.export import lint_to_json

        config = LintConfig(
            root=REPO_SRC,
            base_dir=REPO_SRC.parent,
            baseline_path=REPO_SRC.parents[1] / "lint-baseline.txt",
        )
        first = lint_to_json(run_lint(config))
        second = lint_to_json(run_lint(config))
        assert first == second
        doc = json.loads(first)
        assert doc["schema_version"] == 1
        assert "duration" not in first  # wall clock must not leak in
