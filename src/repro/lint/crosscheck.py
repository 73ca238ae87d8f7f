"""Static ↔ dynamic persist-site cross-check (``repro lint --cross-check``).

The static model (the call graph plus the ``stores=``/``grouped=``
trace-domain declarations) and crashsim's crash-state exploration
describe the same persist micro-op surface from two independent
directions:

* **statically**, the call graph reaches every WPQ store / atomic-batch
  write / TCB register op from the scheme seams (``writeback``,
  ``flush`` and the eviction hook wired into the meta cache);
* **dynamically**, the persist-trace recorder observes exactly the
  micro-ops a real workload drives through the trace hooks.

Each side is reduced to a set of **persist sites** ``(owner class,
micro-op)`` and diffed in both directions:

* a *static-only* site means the analyzer models a persist micro-op the
  trace seams never emit — either dead ordering code or (worse) a store
  path missing its ``_trace`` hook, which would make every crashsim
  verdict about that path vacuous;
* a *dynamic-only* site means the recorder observed a micro-op the
  static model cannot derive — an undeclared store/mutator that every
  static rule (P1, P7) is silently blind to.

A scheme whose smoke recording raises (an unbalanced combined group, a
scheme that no longer instantiates) is reported as a failed check that
names the scheme, never as a traceback.

The static side never imports the analyzed tree; the dynamic side runs
the *installed* ``repro`` package, so the cross-check is only meaningful
when both point at the same source (the default for CI and the CLI).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.model import CodeModel, Scope
from repro.lint.ordering import analysis_for

#: Scheme seam methods used as static reachability entries.  The
#: eviction hook is included explicitly because it is wired into the
#: meta cache as a callback — a dynamic edge no static call site shows.
DEFAULT_CROSS_CHECK_ENTRIES = ("writeback", "flush", "_on_dirty_meta_evict")

#: Workload shape of the dynamic smoke trace (kept deliberately small:
#: the cross-check compares *site sets*, not op counts, and every site
#: class appears within a few hundred steps).
SMOKE_STEPS = 400
SMOKE_SEED = 7
SMOKE_DATA_CAPACITY = 1 << 16


@dataclass
class CrossCheckReport:
    """Both-direction diff of static vs dynamic persist sites."""

    schemes: tuple[str, ...]
    steps: int
    seed: int
    static_sites: list[tuple[str, str]] = field(default_factory=list)
    dynamic_sites: list[tuple[str, str]] = field(default_factory=list)
    static_only: list[tuple[str, str]] = field(default_factory=list)
    dynamic_only: list[tuple[str, str]] = field(default_factory=list)
    #: ``(scheme, error)`` for every scheme whose smoke recording raised.
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.static_only and not self.dynamic_only and not self.errors

    def to_dict(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "steps": self.steps,
            "seed": self.seed,
            "static_sites": [list(s) for s in self.static_sites],
            "dynamic_sites": [list(s) for s in self.dynamic_sites],
            "static_only": [list(s) for s in self.static_only],
            "dynamic_only": [list(s) for s in self.dynamic_only],
            "errors": [list(e) for e in self.errors],
            "ok": self.ok,
        }

    def render_text(self) -> str:
        lines = [
            f"persist-site cross-check: {len(self.static_sites)} static, "
            f"{len(self.dynamic_sites)} dynamic site(s) across "
            f"{len(self.schemes)} scheme(s)",
        ]
        for owner, op in self.static_only:
            lines.append(
                f"  static-only: {owner}.{op} — derived from the seams but "
                "never observed in the trace (dead path or missing trace "
                "hook)"
            )
        for owner, op in self.dynamic_only:
            lines.append(
                f"  dynamic-only: {owner}.{op} — recorded in the trace but "
                "invisible to the static model (undeclared micro-op)"
            )
        for scheme, error in self.errors:
            lines.append(
                f"  recording failed: {scheme} — {error} (its persist sites "
                "are missing from the dynamic side)"
            )
        if self.ok:
            lines.append("  static and dynamic persist sites agree")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# static side
# ---------------------------------------------------------------------------


def static_persist_sites(model: CodeModel, config) -> set[tuple[str, str]]:
    """Persist sites reachable from the scheme seams, from the AST alone."""
    analysis = analysis_for(model)
    graph, ops = analysis.graph, analysis.ops
    seams = getattr(config, "cross_check_entries", DEFAULT_CROSS_CHECK_ENTRIES)
    scheme_root = getattr(config, "scheme_root", "SecureNVMScheme")

    entries: list[str] = []
    root_info = model.classes.get(scheme_root)
    concrete = ([root_info] if root_info is not None else []) + list(
        model.subclasses_of(scheme_root)
    )
    for info in concrete:
        for seam in seams:
            resolved = model.resolve_method(info.name, seam)
            if resolved is None:
                continue
            entries.append(f"{resolved.path}::{resolved.name}.{seam}")

    sites: set[tuple[str, str]] = set()
    for key in graph.reachable(entries):
        scope = graph.functions[key]
        for site in graph.callees(key):
            resolved = _micro_op(model, ops, scope, site.name, site.receiver)
            if resolved is not None:
                sites.add(resolved)
    return sites


def _micro_op(model, ops, scope: Scope, name: str, recv) -> tuple[str, str] | None:
    """``(owner, op)`` for a call that the trace recorder would emit."""
    for cls in ops._candidates(scope, recv):
        store_like = bool(model.effective(cls, "stores"))
        if store_like and (
            name in model.effective(cls, "stores") or name == "write_atomic"
        ):
            owner = model.resolve_method(cls, name)
            owner_name = owner.name if owner is not None else cls
            if ops._internal(scope, owner_name):
                return None
            return (owner_name, name)
        register_like = bool(model.effective(cls, "grouped"))
        if (
            not store_like
            and register_like
            and name in model.effective(cls, "mutators")
        ):
            owner = model.resolve_method(cls, name)
            owner_name = owner.name if owner is not None else cls
            if ops._internal(scope, owner_name):
                return None
            return (owner_name, name)
    return None


# ---------------------------------------------------------------------------
# dynamic side
# ---------------------------------------------------------------------------


def dynamic_persist_sites(
    schemes: tuple[str, ...],
    steps: int = SMOKE_STEPS,
    seed: int = SMOKE_SEED,
    data_capacity: int = SMOKE_DATA_CAPACITY,
) -> tuple[set[tuple[str, str]], list[tuple[str, str]]]:
    """Persist sites observed by recording one smoke workload per scheme.

    Returns ``(sites, errors)``.  A scheme whose construction or
    recording raises contributes no sites and one ``(scheme, error)``
    entry naming the exception and its innermost frame, so a broken
    tree fails the check with a report instead of a traceback.
    """
    from repro.core.schemes import create_scheme
    from repro.crashsim.workload import record_workload

    sites: set[tuple[str, str]] = set()
    errors: list[tuple[str, str]] = []
    for name in schemes:
        try:
            scheme = create_scheme(name, data_capacity=data_capacity, seed=seed)
            trace = record_workload(scheme, steps, seed)
        except Exception as err:
            where = traceback.extract_tb(err.__traceback__)[-1]
            errors.append((
                name,
                f"{type(err).__name__}: {err} "
                f"(at {Path(where.filename).name}:{where.lineno})",
            ))
            continue
        tcb_owner = type(scheme.tcb).__name__
        for unit in trace.units:
            for op in unit.ops:
                if op.kind == "tcb":
                    sites.add((tcb_owner, op.mutator))
                else:
                    sites.add((op.owner, op.kind))
    return sites, errors


# ---------------------------------------------------------------------------
# the diff
# ---------------------------------------------------------------------------


def cross_check(
    model: CodeModel,
    config,
    schemes: tuple[str, ...] | None = None,
    steps: int = SMOKE_STEPS,
    seed: int = SMOKE_SEED,
) -> CrossCheckReport:
    """Diff static against dynamic persist sites in both directions."""
    if schemes is None:
        from repro.core.schemes import SCHEMES

        schemes = tuple(sorted(SCHEMES))
    static = static_persist_sites(model, config)
    dynamic, errors = dynamic_persist_sites(schemes, steps=steps, seed=seed)
    return CrossCheckReport(
        schemes=tuple(schemes),
        steps=steps,
        seed=seed,
        static_sites=sorted(static),
        dynamic_sites=sorted(dynamic),
        static_only=sorted(static - dynamic),
        dynamic_only=sorted(dynamic - static),
        errors=errors,
    )
