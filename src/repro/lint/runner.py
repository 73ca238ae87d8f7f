"""Run the persist-order rule passes and fold in the baseline.

:func:`run_lint` is the single entry point used by the CLI, by CI and by
the unit tests; everything it needs is captured in :class:`LintConfig`
so tests can point it at seeded mini-trees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import RULES, Baseline, Finding, sort_findings
from repro.lint.model import build_model
from repro.lint.ordering import DEFAULT_DETERMINISTIC_ENTRIES
from repro.lint.rules import ALL_RULES

#: Version of the ``--json`` report layout.  Bump when a field is
#: renamed/removed; adding fields is backward compatible.
SCHEMA_VERSION = 1


@dataclass
class LintConfig:
    """One analyzer run: what to analyze and what to accept."""

    #: Directory tree to analyze (normally the installed ``repro`` package).
    root: Path
    #: Paths in findings are relative to this (default: ``root``'s parent).
    base_dir: Path | None = None
    #: Checked-in accepted-findings file, or ``None`` for no baseline.
    baseline_path: Path | None = None
    #: Path suffixes whose every function is recovery-path code (P4).
    recovery_files: tuple[str, ...] = ("core/recovery.py",)
    #: Root class of the scheme contract (P4 recover methods, cross-check
    #: seams).
    scheme_root: str = "SecureNVMScheme"
    #: ``path-suffix::symbol-prefix`` entry patterns for the determinism
    #: rule (D1); empty disables it.
    deterministic_entries: tuple[str, ...] = DEFAULT_DETERMINISTIC_ENTRIES
    #: Scheme seam names used as static entries by ``--cross-check``.
    cross_check_entries: tuple[str, ...] = (
        "writeback", "flush", "_on_dirty_meta_evict",
    )
    #: DESIGN.md (or equivalent) holding ``{#anchor}`` justifications.
    #: When set, every baseline entry must carry an anchor that resolves
    #: into this document (rule B0); ``None`` disables the check.
    design_path: Path | None = None


@dataclass
class LintReport:
    """The outcome of one analyzer run."""

    root: str
    findings: list[Finding] = field(default_factory=list)
    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[str] = field(default_factory=list)
    baseline_path: str | None = None
    files_analyzed: int = 0
    #: Wall-clock analyzer runtime.  Deliberately *excluded* from
    #: :meth:`to_dict` so ``repro lint --json`` is byte-stable across
    #: runs; the CLI reports it on stderr.
    duration_seconds: float = 0.0

    def ok(self, strict: bool = False) -> bool:
        """Clean run: no unbaselined findings (strict: no stale entries)."""
        if self.new:
            return False
        if strict and self.stale_baseline:
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "baseline": self.baseline_path,
            "files_analyzed": self.files_analyzed,
            "counts": {
                "total": len(self.findings),
                "new": len(self.new),
                "baselined": len(self.baselined),
                "stale_baseline": len(self.stale_baseline),
            },
            "rules": dict(RULES),
            "findings": [f.to_dict() for f in self.new],
            "baselined_findings": [f.to_dict() for f in self.baselined],
            "stale_baseline": list(self.stale_baseline),
        }

    def render_text(self) -> str:
        lines = []
        for finding in self.new:
            lines.append(finding.render())
        for key in self.stale_baseline:
            lines.append(f"stale baseline entry (violation no longer exists): {key}")
        summary = (
            f"repro lint: {len(self.new)} finding(s), "
            f"{len(self.baselined)} baselined, "
            f"{len(self.stale_baseline)} stale baseline entr(y/ies) "
            f"across {self.files_analyzed} file(s)"
        )
        lines.append(summary)
        return "\n".join(lines)


def run_lint(config: LintConfig) -> LintReport:
    """Build the model, run every rule pass, apply the baseline."""
    started = time.perf_counter()
    model = build_model(config.root, config.base_dir)
    findings: list[Finding] = []
    for rule in ALL_RULES:
        findings.extend(rule(model, config))

    baseline = (
        Baseline.load(config.baseline_path)
        if config.baseline_path is not None and Path(config.baseline_path).exists()
        else Baseline()
    )
    findings.extend(_baseline_anchor_findings(config, baseline))
    findings = sort_findings(findings)

    report = LintReport(
        root=str(config.root),
        findings=findings,
        baseline_path=baseline.path,
        files_analyzed=len(model.modules),
    )
    for finding in findings:
        if baseline.accepts(finding):
            report.baselined.append(finding)
        else:
            report.new.append(finding)
    report.stale_baseline = baseline.stale
    report.duration_seconds = time.perf_counter() - started
    return report


def _baseline_anchor_findings(config: LintConfig, baseline: Baseline) -> list[Finding]:
    """B0: every baseline entry must cite a resolvable DESIGN.md anchor."""
    if config.design_path is None or baseline.path is None:
        return []
    design_path = Path(config.design_path)
    design_text = (
        design_path.read_text(encoding="utf-8") if design_path.exists() else ""
    )
    findings = []
    file_name = Path(baseline.path).name
    for key in sorted(baseline.keys):
        parts = key.split("|")
        symbol = parts[2] if len(parts) >= 3 else key
        line = baseline.lines.get(key, 1)
        token = key.replace("|", ":")
        anchor = baseline.anchors.get(key)
        if anchor is None:
            findings.append(
                Finding(
                    rule="B0",
                    path=file_name,
                    line=line,
                    col=0,
                    symbol=symbol,
                    message=(
                        f"baseline entry {key} carries no justification "
                        f"anchor — exceptions must cite the "
                        f"{design_path.name} section that argues why they "
                        "are sound"
                    ),
                    suggestion=(
                        "append ' #anchor-name' to the entry and add a "
                        f"'{{#anchor-name}}' heading in {design_path.name}"
                    ),
                    token=f"unanchored:{token}",
                )
            )
        elif f"{{#{anchor}}}" not in design_text:
            findings.append(
                Finding(
                    rule="B0",
                    path=file_name,
                    line=line,
                    col=0,
                    symbol=symbol,
                    message=(
                        f"baseline anchor #{anchor} does not resolve: no "
                        f"'{{#{anchor}}}' heading in {design_path.name}"
                    ),
                    suggestion=(
                        f"add the heading to {design_path.name} or fix the "
                        "anchor name"
                    ),
                    token=f"dangling:{anchor}",
                )
            )
    return findings


def write_baseline(report: LintReport, path: Path) -> int:
    """Write every current finding key to *path*; returns the entry count.

    Keys are sorted and deduplicated (several findings can share one
    line-independent key).  Justification anchors already present in the
    existing file are preserved; new entries start unanchored (and the
    B0 rule will demand an anchor when ``design_path`` is configured).
    """
    path = Path(path)
    anchors: dict[str, str] = {}
    if path.exists():
        anchors = Baseline.load(path).anchors
    keys = sorted({f.key for f in report.findings if f.rule != "B0"})
    entries = [
        f"{key} #{anchors[key]}" if key in anchors else key for key in keys
    ]
    lines = [
        "# repro lint baseline - accepted persist-order findings.",
        "# One entry per line: rule|path|symbol|token [#design-anchor].",
        "# The anchor names the {#...} heading in DESIGN.md justifying the",
        "# exception; rule B0 fails entries whose anchor does not resolve.",
        *entries,
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(keys)
