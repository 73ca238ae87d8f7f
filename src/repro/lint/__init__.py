"""Persistence-domain static analyzer (``repro lint``).

Checks the cc-NVM simulator's write-ordering discipline without running
it: readable declarations (P0), persistent-domain stores (P1), volatile
reads on recovery paths (P4), trace-seam coherence (P7), set-order
determinism of spec-hashed paths (D1) and baseline justification
anchors (B0).  ``--cross-check`` additionally replays a smoke persist
trace and diffs the dynamically observed persist sites against the
statically derived set in both directions.  Each rule is kept because
a mutant in ``tests/mutation/corpus.py`` shows a catch no other rule or
tier-1 test makes, or because a baseline depends on it; see DESIGN.md's
persistence-domain section for the audit table, the rule rationale and
the baseline workflow.
"""

from repro.lint.callgraph import CallGraph, CallSite, build_callgraph
from repro.lint.crosscheck import (
    CrossCheckReport,
    cross_check,
    dynamic_persist_sites,
    static_persist_sites,
)
from repro.lint.findings import RULES, Baseline, Finding, sort_findings
from repro.lint.model import CodeModel, build_model
from repro.lint.ordering import OrderingOps
from repro.lint.runner import (
    SCHEMA_VERSION,
    LintConfig,
    LintReport,
    run_lint,
    write_baseline,
)

__all__ = [
    "RULES",
    "SCHEMA_VERSION",
    "Baseline",
    "CallGraph",
    "CallSite",
    "CodeModel",
    "CrossCheckReport",
    "Finding",
    "LintConfig",
    "LintReport",
    "OrderingOps",
    "build_callgraph",
    "build_model",
    "cross_check",
    "dynamic_persist_sites",
    "run_lint",
    "sort_findings",
    "static_persist_sites",
    "write_baseline",
]
