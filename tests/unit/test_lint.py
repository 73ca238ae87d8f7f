"""Unit tests for the persistence-domain static analyzer (``repro lint``).

Each rule class gets a seeded violation in a throwaway mini-tree (the
analyzer never imports what it reads, so the snippets need no imports),
plus the real source tree must lint clean against the checked-in
baseline.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint import LintConfig, RULES, run_lint, write_baseline
from tests.mutation.corpus import MUTANTS

REPO_SRC = Path(repro.__file__).resolve().parent
REPO_BASELINE = REPO_SRC.parents[1] / "lint-baseline.txt"

#: A well-formed declaration layer shared by the seeded trees.
DECLARATIONS = """
    @persistence(
        persistent=("root_old", "nwb"),
        aka=("tcb",),
        mutators=("commit_root",),
    )
    class FakeTCB:
        def commit_root(self):
            self.root_old = b""
            self.nwb = 0

    @persistence(volatile=("overlay",), aka=("meta",))
    class FakeMeta:
        pass

    @persistence(volatile=("_batch",), aka=("wpq",))
    class FakeWPQ:
        def begin_atomic(self):
            pass

        def commit_atomic(self):
            pass

        def write_atomic(self, addr, data):
            pass
"""


def make_tree(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def lint(tmp_path, files, **overrides):
    root = make_tree(tmp_path, files)
    return run_lint(LintConfig(root=root, base_dir=tmp_path, **overrides))


def rule_tokens(report):
    return {(f.rule, f.token) for f in report.new}


class TestSeededViolations:
    """Each rule class must catch its seeded violation."""

    def test_p0_declaration_defects(self, tmp_path):
        report = lint(tmp_path, {"decl.py": """
            ATTRS = ("x",)

            @persistence(persistent=ATTRS)
            class NonLiteral:
                pass

            @persistence("tcb")
            class Positional:
                pass

            @persistence(persistentt=("x",))
            class Typo:
                pass

            @persistence(persistent=("a",), volatile=("a",))
            class Overlap:
                pass
        """})
        tokens = rule_tokens(report)
        assert ("P0", "literal:persistent") in tokens
        assert ("P0", "positional") in tokens
        assert ("P0", "kwarg:persistentt") in tokens
        assert ("P0", "overlap") in tokens

    def test_p1_store_outside_owner(self, tmp_path):
        report = lint(tmp_path, {
            "decl.py": DECLARATIONS,
            "evil.py": """
                class Outside:
                    def __init__(self, tcb):
                        self.tcb = tcb

                    def smash(self):
                        self.tcb.root_old = b"evil"
            """,
        })
        assert ("P1", "tcb.root_old") in rule_tokens(report)
        [finding] = [f for f in report.new if f.rule == "P1"]
        assert finding.symbol == "Outside.smash"
        assert "commit_root" in finding.suggestion

    def test_p1_owner_and_unrelated_self_allowed(self, tmp_path):
        report = lint(tmp_path, {
            "decl.py": DECLARATIONS,
            "ok.py": """
                class OwnNamespace:
                    def __init__(self):
                        self.root_old = 7  # its own attr, not FakeTCB's
            """,
        })
        assert not [f for f in report.new if f.rule == "P1"]

    def test_p4_volatile_read_on_recovery_path(self, tmp_path):
        report = lint(tmp_path, {
            "decl.py": DECLARATIONS,
            "core/recovery.py": """
                def rebuild(meta):
                    return meta.overlay
            """,
            "schemes.py": """
                class SecureNVMScheme:
                    @abstractmethod
                    def flush(self):
                        ...

                    @abstractmethod
                    def recover(self):
                        ...

                class LeakyScheme(SecureNVMScheme):
                    def flush(self):
                        pass

                    def recover(self):
                        return self.meta.overlay
            """,
        })
        p4 = {(f.symbol, f.token) for f in report.new if f.rule == "P4"}
        assert ("rebuild", "meta.overlay") in p4
        assert ("LeakyScheme.recover", "meta.overlay") in p4

    def test_p4_ignores_non_recovery_code(self, tmp_path):
        report = lint(tmp_path, {
            "decl.py": DECLARATIONS,
            "steady.py": """
                def steady_state(meta):
                    return meta.overlay
            """,
        })
        assert not [f for f in report.new if f.rule == "P4"]

    def test_all_rule_classes_detectable(self, tmp_path):
        """The analyzer distinguishes the persist-order rule classes."""
        assert set(RULES) >= {"P1", "P4", "P7"}


class TestBaseline:
    def test_baseline_accepts_and_roundtrips(self, tmp_path):
        files = {
            "decl.py": DECLARATIONS,
            "evil.py": """
                class Outside:
                    def smash(self, tcb):
                        tcb.root_old = b"evil"
            """,
        }
        report = lint(tmp_path, files)
        assert not report.ok()
        baseline_path = tmp_path / "baseline.txt"
        write_baseline(report, baseline_path)
        again = lint(tmp_path, files, baseline_path=baseline_path)
        assert again.ok(strict=True)
        assert len(again.baselined) == len(report.new)

    def test_stale_entries_fail_strict_only(self, tmp_path):
        baseline_path = tmp_path / "baseline.txt"
        baseline_path.write_text("P1|pkg/gone.py|Gone.smash|tcb.root_old\n")
        report = lint(tmp_path, {"clean.py": "X = 1\n"},
                      baseline_path=baseline_path)
        assert report.stale_baseline == ["P1|pkg/gone.py|Gone.smash|tcb.root_old"]
        assert report.ok(strict=False)
        assert not report.ok(strict=True)

    def test_finding_keys_survive_line_shifts(self, tmp_path):
        files = {
            "decl.py": DECLARATIONS,
            "evil.py": "class O:\n    def smash(self, tcb):\n        tcb.root_old = 1\n",
        }
        before = {f.key for f in lint(tmp_path, files).new}
        (tmp_path / "pkg" / "evil.py").write_text(
            "# pad\n# pad\n" + files["evil.py"], encoding="utf-8"
        )
        after_report = run_lint(
            LintConfig(root=tmp_path / "pkg", base_dir=tmp_path)
        )
        assert {f.key for f in after_report.new} == before


class TestRealTree:
    def test_repo_lints_clean_against_baseline(self):
        report = run_lint(LintConfig(
            root=REPO_SRC,
            base_dir=REPO_SRC.parent,
            baseline_path=REPO_BASELINE if REPO_BASELINE.exists() else None,
        ))
        assert report.files_analyzed > 50
        assert report.ok(strict=True), report.render_text()

    def test_repo_baseline_entries_are_each_justified(self):
        """Every baseline entry cites a DESIGN.md anchor that resolves."""
        if not REPO_BASELINE.exists():
            return
        design = (REPO_SRC.parents[1] / "DESIGN.md").read_text(encoding="utf-8")
        for line in REPO_BASELINE.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entry, _, anchor = line.partition(" #")
            symbol = entry.split("|")[2]
            assert symbol.split(".")[-1] in design, (
                f"baseline entry {line!r} lacks a DESIGN.md justification"
            )
            assert anchor, (
                f"baseline entry {line!r} carries no #anchor — rule B0 "
                "will reject it"
            )
            assert f"{{#{anchor}}}" in design, (
                f"baseline anchor #{anchor} has no {{#{anchor}}} heading "
                "in DESIGN.md"
            )


class TestRealTreeMutants:
    """Corpus mutants only the analyzer catches, replayed on a copy of
    the real tree: tier-1's semantic tests pass on both."""

    @pytest.mark.parametrize("mutant_id, expected", [
        # The bug the analyzer found when first run: recovery set the
        # persistent flag directly instead of via TCB.begin_recovery().
        ("M10", {("P1", "RecoveryManager.run", "tcb.recovery_pending")}),
        ("M11", {("P4", "CcNVM.recover", "self.meta"),
                 ("P4", "CcNVM.recover", "meta.overlay")}),
    ])
    def test_mutant_is_flagged(self, tmp_path, mutant_id, expected):
        [mutant] = [m for m in MUTANTS if m.id == mutant_id]
        scratch = tmp_path / "repro"
        shutil.copytree(REPO_SRC, scratch,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = scratch / Path(mutant.path).relative_to("src/repro")
        source = target.read_text(encoding="utf-8")
        assert source.count(mutant.before) == 1, f"{mutant_id} no longer applies"
        target.write_text(source.replace(mutant.before, mutant.after),
                          encoding="utf-8")

        report = run_lint(LintConfig(
            root=scratch, base_dir=tmp_path, baseline_path=REPO_BASELINE
        ))
        assert {(f.rule, f.symbol, f.token) for f in report.new} == expected
