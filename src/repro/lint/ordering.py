"""Trace-seam coherence (P7) and set-order determinism (D1).

Both rules reason across functions over the call graph
(:mod:`repro.lint.callgraph`):

* **P7** — every sanctioned persist micro-op is visible to the trace
  seams crashsim replays: declared mutators of a trace-domain class
  (one declaring ``stores=`` or ``grouped=`` on
  ``@persistence``) must call ``_trace``/``trace_hook``, combined groups
  must balance, and ``grouped=`` register ops must execute inside a
  ``begin_combined``/``end_combined`` bracket on every call path.
* **D1** — functions reachable from spec-hashed/cached entry points
  do not iterate unordered sets whose order can escape.  ``str`` and
  ``bytes`` hashes are salted per process, so such an order changes
  between runs; the mutation audit found this the one determinism bug
  tier-1 cannot see (a wall-clock read or an unsorted dump moves a
  pinned hash, which tier-1 does see).

:class:`OrderingOps` and :func:`analysis_for` are shared with the
static side of the cross-check (:mod:`repro.lint.crosscheck`).  Like
the rest of the analyzer, everything here works on the AST alone — the
analyzed tree is never imported.
"""

from __future__ import annotations

import ast

from repro.lint.callgraph import CallSite, build_callgraph, scope_key
from repro.lint.findings import Finding
from repro.lint.model import CodeModel, Scope

#: Combined-group bracket markers (controller transaction: members share
#: fate on a crash).
COMBINED_BEGIN = "begin_combined"
COMBINED_END = "end_combined"

#: Default spec-hashed/cached entry points for rule D1:
#: ``path-suffix::symbol-prefix`` (empty prefix matches every symbol in
#: the file).  Spec hashing, worker execution and crash-image hashing
#: must all be replayable from a seed.
DEFAULT_DETERMINISTIC_ENTRIES = (
    "runs/spec.py::",
    "runs/pool.py::execute_spec",
    "runs/pool.py::_execute_",
    "crashsim/enumerate.py::CrashState.image_hash",
    "crashsim/enumerate.py::canonical_value",
    # ACE profile names are crash-campaign spec workloads, so their
    # enumeration must be deterministic.
    "trafficgen/ace.py::",
)

#: Consumers that are insensitive to iteration order: a generator over
#: an unordered set feeding one of these cannot leak the order.
_ORDER_FREE_CONSUMERS = frozenset(
    {"sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted"}
)


# ---------------------------------------------------------------------------
# micro-op classification
# ---------------------------------------------------------------------------


class OrderingOps:
    """Classifies calls as persist micro-ops using the declarations."""

    def __init__(self, model: CodeModel) -> None:
        self.model = model

    def _candidates(self, scope: Scope, recv: str | None) -> list[str]:
        if recv == "self":
            return [scope.class_name] if scope.class_name else []
        if recv is not None:
            return [info.name for info in self.model.aka_map.get(recv, ())]
        return []

    def _internal(self, scope: Scope, owner: str) -> bool:
        """Is *scope* inside the micro-op's own implementation lineage?"""
        return (
            scope.class_name is not None
            and owner in self.model.lineage(scope.class_name)
        )

    def classify(self, scope: Scope, name: str, recv: str | None) -> str | None:
        """The P7 kind of a call, or ``None``.

        The kind is ``grouped`` (a ``grouped=`` register op) or ``begin``
        / ``end`` (combined-group brackets on a store-declaring class).
        Calls inside the declaring class's own lineage are the
        micro-op's implementation, not a use, and are never classified.
        """
        for cls in self._candidates(scope, recv):
            if name in self.model.effective(cls, "grouped"):
                kind, domain = "grouped", "grouped"
            elif name in (COMBINED_BEGIN, COMBINED_END) and self.model.effective(
                cls, "stores"
            ):
                kind = "begin" if name == COMBINED_BEGIN else "end"
                domain = "stores"
            else:
                continue
            if self._internal(scope, self._declaring_owner(cls, domain)):
                return None
            return kind
        return None

    def _declaring_owner(self, cls: str, domain: str) -> str:
        """The first lineage class whose own declaration fills *domain*."""
        for ancestor in self.model.lineage(cls):
            info = self.model.classes.get(ancestor)
            if info is not None and info.decl is not None and getattr(info.decl, domain):
                return ancestor
        return cls


# ---------------------------------------------------------------------------
# shared per-model analysis cache
# ---------------------------------------------------------------------------


class OrderingAnalysis:
    """Call graph + micro-op tables, built once per lint run."""

    def __init__(self, model: CodeModel) -> None:
        self.model = model
        self.graph = build_callgraph(model)
        self.ops = OrderingOps(model)


_ANALYSIS_ATTR = "_ordering_analysis"


def analysis_for(model: CodeModel) -> OrderingAnalysis:
    """The model's cached :class:`OrderingAnalysis` (one build per run)."""
    cached = getattr(model, _ANALYSIS_ATTR, None)
    if cached is None:
        cached = OrderingAnalysis(model)
        setattr(model, _ANALYSIS_ATTR, cached)
    return cached


# ---------------------------------------------------------------------------
# P7 — trace-seam coherence
# ---------------------------------------------------------------------------


def rule_p7(model: CodeModel, config) -> list[Finding]:
    """Persist micro-ops must be visible to the crashsim trace seams."""
    findings: list[Finding] = []
    findings.extend(_p7_untraced_mutators(model))
    findings.extend(_p7_grouped_bracketing(model))
    return findings


def _p7_untraced_mutators(model: CodeModel) -> list[Finding]:
    """Declared mutators of trace-domain classes must call the hook."""
    findings = []
    trace_domain: dict[str, object] = {}
    for domain in ("stores", "grouped"):
        for info in model.declaring_classes(domain):
            trace_domain[info.name] = info
    for name in sorted(trace_domain):
        info = trace_domain[name]
        for mutator in sorted(model.effective(name, "mutators")):
            resolved = model.resolve_method(name, mutator)
            if resolved is None or mutator in resolved.traced_methods:
                continue
            node = resolved.methods[mutator]
            findings.append(
                Finding(
                    rule="P7",
                    path=resolved.path,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=f"{resolved.name}.{mutator}",
                    message=(
                        f"persistent mutator {mutator}() never calls the "
                        "trace hook — crashsim's persist trace (and the "
                        "static/dynamic cross-check) cannot see this "
                        "micro-op"
                    ),
                    suggestion=(
                        "call self._trace(...) (or invoke trace_hook) "
                        "after the mutation, mirroring the other mutators"
                    ),
                    token=f"untraced:{mutator}",
                )
            )
    return findings


def _p7_grouped_bracketing(model: CodeModel) -> list[Finding]:
    """Grouped register ops must run inside a combined bracket; brackets
    must balance within their function."""
    analysis = analysis_for(model)
    graph, ops = analysis.graph, analysis.ops
    findings: list[Finding] = []
    # depth at each call site, per function, in one linear pass
    depth_at: dict[tuple[str, int, int], int] = {}
    grouped_sites: list[tuple[Scope, CallSite]] = []
    for key, scope in graph.functions.items():
        depth = 0
        begins = ends = 0
        for site in graph.callees(key):
            kind = ops.classify(scope, site.name, site.receiver)
            if kind == "end":
                depth -= 1
                ends += 1
            depth_at[(key, site.line, site.col)] = depth
            if kind == "begin":
                depth += 1
                begins += 1
            elif kind == "grouped":
                grouped_sites.append((scope, site))
        if begins != ends:
            findings.append(
                Finding(
                    rule="P7",
                    path=scope.path,
                    line=scope.node.lineno,
                    col=scope.node.col_offset,
                    symbol=scope.symbol,
                    message=(
                        f"combined group is unbalanced here ({begins} "
                        f"{COMBINED_BEGIN} vs {ends} {COMBINED_END}) — an "
                        "open controller transaction leaks past the "
                        "function and corrupts shared-fate accounting"
                    ),
                    suggestion="open and close the combined group in the "
                               "same function",
                    token="unbalanced-group",
                )
            )

    bracketed_memo: dict[str, bool] = {}

    def called_bracketed(key: str, trail: frozenset) -> bool:
        """Every call path to *key* passes through an open bracket."""
        if key in bracketed_memo:
            return bracketed_memo[key]
        sites = graph.callers.get(key, [])
        if not sites:
            return False
        ok = True
        for site in sites:
            if depth_at.get((site.caller, site.line, site.col), 0) > 0:
                continue
            if site.caller in trail or not called_bracketed(
                site.caller, trail | {site.caller}
            ):
                ok = False
                break
        bracketed_memo[key] = ok
        return ok

    for scope, site in grouped_sites:
        if depth_at.get((scope_key(scope), site.line, site.col), 0) > 0:
            continue
        if called_bracketed(scope_key(scope), frozenset({scope_key(scope)})):
            continue
        findings.append(
            Finding(
                rule="P7",
                path=scope.path,
                line=site.line,
                col=site.col,
                symbol=scope.symbol,
                message=(
                    f"grouped register op {site.name}(...) "
                    "executes outside any begin_combined/end_combined "
                    "bracket — a crash can separate the register bump "
                    "from the write it must share fate with"
                ),
                suggestion=(
                    "run it inside the write-back's combined group (or "
                    "bracket every call site of this helper)"
                ),
                token=f"unbracketed:{site.name}",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# D1 — set-order determinism on spec-hashed paths
# ---------------------------------------------------------------------------


def _deterministic_scopes(model: CodeModel, config) -> list[tuple[str, Scope]]:
    """Function scopes reachable from the configured entry patterns."""
    patterns = getattr(
        config, "deterministic_entries", DEFAULT_DETERMINISTIC_ENTRIES
    )
    if not patterns:
        return []
    analysis = analysis_for(model)
    graph = analysis.graph
    entries = []
    for key, scope in graph.functions.items():
        for pattern in patterns:
            path_suffix, _, symbol_prefix = pattern.partition("::")
            if scope.path.endswith(path_suffix) and scope.symbol.startswith(
                symbol_prefix
            ):
                entries.append(key)
                break
    reachable = graph.reachable(entries)
    return sorted(
        ((key, graph.functions[key]) for key in reachable),
        key=lambda item: item[0],
    )


def _set_names(scope: Scope) -> set[str]:
    names: set[str] = set()
    for node in scope.walk_own():
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_set_expr(node.value, names)
        ):
            names.add(node.targets[0].id)
    return names


def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return isinstance(node, ast.Name) and node.id in set_names


def _order_free_iters(scope: Scope) -> set[int]:
    """``id()`` of iter nodes whose order cannot escape (the generator
    feeds an order-insensitive consumer like ``sum``/``min``/``sorted``)."""
    exempt: set[int] = set()
    for node in scope.walk_own():
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_FREE_CONSUMERS
            and node.args
        ):
            continue
        consumed = node.args[0]
        if isinstance(consumed, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for comp in consumed.generators:
                exempt.add(id(comp.iter))
        else:
            exempt.add(id(consumed))
    return exempt


def rule_d1(model: CodeModel, config) -> list[Finding]:
    """Spec-hashed paths do not iterate unordered sets."""
    findings = []
    for _key, scope in _deterministic_scopes(model, config):
        set_names = _set_names(scope)
        exempt = _order_free_iters(scope)
        iters: list[ast.expr] = []
        for node in scope.walk_own():
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                                   ast.DictComp)):
                iters.extend(comp.iter for comp in node.generators)
        for it in iters:
            if id(it) in exempt or not _is_set_expr(it, set_names):
                continue
            findings.append(
                Finding(
                    rule="D1",
                    path=scope.path,
                    line=it.lineno,
                    col=it.col_offset,
                    symbol=scope.symbol,
                    message=(
                        "iterating an unordered set on a spec-hashed path "
                        "— the iteration order depends on hash "
                        "randomization and can leak into cached results"
                    ),
                    suggestion="iterate sorted(...) over the set, or feed "
                               "it to an order-insensitive reduction",
                    token="set-iteration",
                )
            )
    return findings


