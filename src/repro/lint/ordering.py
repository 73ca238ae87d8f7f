"""Interprocedural persist-order dataflow and determinism rules.

This module grows the structural checker into a dataflow analyzer.  It
consumes the call graph (:mod:`repro.lint.callgraph`) and the ordering
micro-op declarations (``stores`` / ``fences`` / ``ordered`` /
``grouped`` on ``@persistence``) and derives, per function, a
**happens-before summary** of its persist micro-ops:

``Summary(always_fences, exit_pending)``
    *always_fences* — every path through the function crosses an
    ordering point (an atomic-batch commit or a root commit) after its
    last droppable store; *exit_pending* — the set of droppable store
    sites that may still be un-ordered when the function returns (or
    raises), on at least one path.

The abstract state during interpretation is ``(pending, fenced)``:
*pending* is the set of store sites accepted but not yet ordered,
*fenced* records whether the path crossed an ordering point at all.  The
transfer function for a call resolved to summaries ``S₁..Sₙ`` (virtual
dispatch joins over every override) is::

    pending' = ⋃ᵢ ((∅ if Sᵢ.always_fences else pending) | Sᵢ.exit_pending)

Branches join by union of pending and conjunction of fenced — the ADR
model makes a *possibly* dropped store a real defect, so the analysis is
a may-analysis over pending stores.  Loops run two iterations and join
(store/fence membership is a finite lattice; two rounds reach the
fixpoint of any loop-carried pending set).

Three rule families are built on top:

* **P6** — every seam a class lists in ``ordered=`` must have an empty
  ``exit_pending`` in every concrete subclass: a droppable store that
  can trail the seam's return is exactly the Osiris Plus stop-loss bug
  (a later in-flight write can oust it from the WPQ, silently voiding
  the staleness bound recovery relies on).
* **P7** — every sanctioned persist micro-op is visible to the trace
  seams crashsim replays: declared mutators of a trace-domain class
  must call ``_trace``/``trace_hook``, combined groups must balance,
  and ``grouped=`` register ops must execute inside a
  ``begin_combined``/``end_combined`` bracket on every call path.
* **D0–D2** — functions reachable from spec-hashed/cached entry points
  must be deterministic: no wall-clock/entropy calls (D0), no iteration
  over unordered sets whose order can escape (D1), no dict
  serialization without ``sort_keys=True`` (D2).

Like the rest of the analyzer, everything here works on the AST alone —
the analyzed tree is never imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.callgraph import CallGraph, CallSite, build_callgraph, scope_key
from repro.lint.findings import Finding
from repro.lint.model import CodeModel, Scope

#: Combined-group bracket markers (controller transaction: members share
#: fate on a crash).  They mark shared fate, not ordering — a whole
#: group is still droppable — so they are deliberately *not* fences.
COMBINED_BEGIN = "begin_combined"
COMBINED_END = "end_combined"

#: Default spec-hashed/cached entry points for the determinism rules:
#: ``path-suffix::symbol-prefix`` (empty prefix matches every symbol in
#: the file).  Spec hashing, worker execution and crash-image hashing
#: must all be replayable from a seed.
DEFAULT_DETERMINISTIC_ENTRIES = (
    "runs/spec.py::",
    "runs/pool.py::execute_spec",
    "runs/pool.py::_execute_",
    "crashsim/enumerate.py::CrashState.image_hash",
    "crashsim/enumerate.py::canonical_value",
    # The workload frontier: descriptors are folded into spec hashes and
    # traces are content-addressed, so every generator path must be
    # seeded-Random-only and serialize with sorted keys.
    "trafficgen/descriptor.py::",
    "trafficgen/ace.py::",
    "trafficgen/ingest.py::",
    "trafficgen/interleave.py::",
)

#: Consumers that are insensitive to iteration order: a generator over
#: an unordered set feeding one of these cannot leak the order.
_ORDER_FREE_CONSUMERS = frozenset(
    {"sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted"}
)

#: ``receiver -> names`` (empty set = every call on that receiver) of
#: nondeterministic stdlib calls for D0.
_NONDET_CALLS: dict[str, frozenset[str]] = {
    "time": frozenset(),
    "secrets": frozenset(),
    "random": frozenset(),          # except the seeded Random() constructor
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}
_NONDET_EXEMPT = frozenset({"Random"})


# ---------------------------------------------------------------------------
# micro-op classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PendingStore:
    """One droppable store site that may be pending at a program point."""

    path: str
    symbol: str
    line: int
    col: int
    #: Human-oriented rendering of the call (``wpq.write``).
    label: str


class OrderingOps:
    """Classifies calls as persist micro-ops using the declarations."""

    def __init__(self, model: CodeModel) -> None:
        self.model = model
        #: Class names declaring any ordering micro-op — calls *inside*
        #: these classes (or their subclasses) are the micro-ops'
        #: implementations, not uses, and are never classified.
        self.declaring: set[str] = set()
        for domain in ("stores", "fences", "grouped"):
            for info in model.declaring_classes(domain):
                self.declaring.add(info.name)

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

    def classify(
        self, scope: Scope, name: str, recv: str | None
    ) -> tuple[str, str] | None:
        """``(kind, owner_class)`` for a micro-op call, else ``None``.

        *kind* is one of ``store`` / ``fence`` / ``grouped`` /
        ``begin`` / ``end`` (combined-group brackets).
        """
        for cls in self._candidates(scope, recv):
            for kind, domain in (
                ("store", "stores"),
                ("fence", "fences"),
                ("grouped", "grouped"),
            ):
                if name in self.model.effective(cls, domain):
                    owner = self._declaring_owner(cls, domain, name)
                    if self._internal(scope, owner):
                        return None
                    return (kind, owner)
            if name in (COMBINED_BEGIN, COMBINED_END):
                if self.model.effective(cls, "stores"):
                    owner = self._declaring_owner(cls, "stores", name)
                    if self._internal(scope, owner):
                        return None
                    kind = "begin" if name == COMBINED_BEGIN else "end"
                    return (kind, owner)
        return None

    def _declaring_owner(self, cls: str, domain: str, name: str) -> str:
        """The lineage class whose own declaration sanctions the op."""
        for ancestor in self.model.lineage(cls):
            info = self.model.classes.get(ancestor)
            decl = info.decl if info is not None else None
            if decl is not None and (
                name in getattr(decl, domain) or getattr(decl, domain)
            ):
                return ancestor
        return cls


# ---------------------------------------------------------------------------
# happens-before summaries (the P6 dataflow)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    """Happens-before summary of one function."""

    #: Every path from entry to exit crosses an ordering point after its
    #: last droppable store.
    always_fences: bool
    #: Droppable store sites possibly still pending at exit.
    exit_pending: frozenset[PendingStore]


#: Most-optimistic summary (fixpoint seed): iteration only ever weakens
#: it, so convergence is monotone.
_TOP = Summary(always_fences=True, exit_pending=frozenset())

_State = tuple[frozenset, bool]


class FlowAnalysis:
    """Kleene-iterates happens-before summaries over a call subgraph."""

    def __init__(self, model: CodeModel, graph: CallGraph, ops: OrderingOps) -> None:
        self.model = model
        self.graph = graph
        self.ops = ops
        self.summaries: dict[str, Summary] = {}
        #: Per-caller index of resolved call sites by AST position.
        self._site_index: dict[str, dict[tuple[int, int, str], CallSite]] = {}

    def compute(self, roots: list[str]) -> None:
        """Compute summaries for *roots* and everything they reach."""
        keys = sorted(self.graph.reachable(roots))
        for key in keys:
            self.summaries.setdefault(key, _TOP)
        for _ in range(len(keys) + 2):
            changed = False
            for key in keys:
                new = self._summarize(key)
                if new != self.summaries[key]:
                    self.summaries[key] = new
                    changed = True
            if not changed:
                break

    def summary(self, key: str) -> Summary:
        return self.summaries.get(key, _TOP)

    # -- per-function interpretation ----------------------------------------

    def _summarize(self, key: str) -> Summary:
        scope = self.graph.functions[key]
        exits: list[_State] = []
        final = self._exec_block(scope, scope.node.body, (frozenset(), False), exits)
        if final is not None:
            exits.append(final)
        if not exits:
            # Only unreachable exits (e.g. an infinite loop): vacuously
            # fenced and nothing escapes.
            return _TOP
        pending = frozenset().union(*(p for p, _ in exits))
        return Summary(
            always_fences=all(fenced for _, fenced in exits),
            exit_pending=pending,
        )

    def _exec_block(self, scope, stmts, state, exits):
        for stmt in stmts:
            if state is None:
                break
            state = self._exec_stmt(scope, stmt, state, exits)
        return state

    def _exec_stmt(self, scope, stmt, state, exits):
        if isinstance(
            stmt,
            (
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.ClassDef,
                ast.Import,
                ast.ImportFrom,
                ast.Pass,
                ast.Global,
                ast.Nonlocal,
                ast.Break,
                ast.Continue,
            ),
        ):
            return state
        if isinstance(stmt, ast.If):
            state = self._apply_exprs(scope, [stmt.test], state)
            then = self._exec_block(scope, stmt.body, state, exits)
            other = self._exec_block(scope, stmt.orelse, state, exits)
            return _join(then, other)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            state = self._apply_exprs(scope, [stmt.iter], state)
            state = self._exec_loop(scope, stmt.body, state, exits)
            return self._exec_block(scope, stmt.orelse, state, exits)
        if isinstance(stmt, ast.While):
            state = self._apply_exprs(scope, [stmt.test], state)
            state = self._exec_loop(scope, stmt.body, state, exits)
            return self._exec_block(scope, stmt.orelse, state, exits)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            state = self._apply_exprs(
                scope, [item.context_expr for item in stmt.items], state
            )
            return self._exec_block(scope, stmt.body, state, exits)
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            body_out = self._exec_block(scope, stmt.body, state, exits)
            # A handler can trigger anywhere inside the body, so it joins
            # the entry state with the body's out-state.
            handler_in = _join(state, body_out)
            outs = [
                self._exec_block(scope, handler.body, handler_in, exits)
                for handler in stmt.handlers
            ]
            outs.append(self._exec_block(scope, stmt.orelse, body_out, exits))
            merged = None
            for out in outs:
                merged = _join(merged, out)
            return self._exec_block(scope, stmt.finalbody, merged, exits)
        if isinstance(stmt, ast.Match):
            state = self._apply_exprs(scope, [stmt.subject], state)
            merged = state  # no case may match
            for case in stmt.cases:
                merged = _join(merged, self._exec_block(scope, case.body, state, exits))
            return merged
        if isinstance(stmt, ast.Return):
            parts = [stmt.value] if stmt.value is not None else []
            state = self._apply_exprs(scope, parts, state)
            exits.append(state)
            return None
        if isinstance(stmt, ast.Raise):
            parts = [p for p in (stmt.exc, stmt.cause) if p is not None]
            state = self._apply_exprs(scope, parts, state)
            exits.append(state)
            return None
        # Plain statements (Expr, Assign, AugAssign, AnnAssign, Assert,
        # Delete, ...): interpret every call in their expressions.
        return self._apply_exprs(scope, list(ast.iter_child_nodes(stmt)), state)

    def _exec_loop(self, scope, body, state, exits):
        # Two rounds + join reach the fixpoint of loop-carried
        # pending/fence state (both lattices are small and monotone).
        joined = state
        for _ in range(2):
            once = self._exec_block(scope, body, joined, exits)
            joined = _join(joined, once)
        return joined

    # -- transfer functions -------------------------------------------------

    def _apply_exprs(self, scope, exprs, state):
        if state is None:
            return None
        for call in _calls_in_exprs(exprs):
            state = self._apply_call(scope, call, state)
        return state

    def _apply_call(self, scope, call: ast.Call, state: _State) -> _State:
        pending, fenced = state
        site = self._site_for(scope, call)
        if site is None:
            return state
        event = self.ops.classify(scope, site.name, site.receiver)
        if event is not None:
            kind, _owner = event
            if kind == "store":
                store = PendingStore(
                    path=scope.path,
                    symbol=scope.symbol,
                    line=call.lineno,
                    col=call.col_offset,
                    label=site.dotted or site.name,
                )
                return (pending | {store}, fenced)
            if kind == "fence":
                return (frozenset(), True)
            return state  # grouped / begin / end: no ordering effect
        callees = [t for t in site.targets if t in self.summaries]
        if not callees:
            return state
        out_pending: frozenset = frozenset()
        for target in callees:
            summary = self.summaries[target]
            base = frozenset() if summary.always_fences else pending
            out_pending |= base | summary.exit_pending
        if all(self.summaries[t].always_fences for t in callees):
            fenced = True
        return (out_pending, fenced)

    def _site_for(self, scope, call: ast.Call) -> CallSite | None:
        key = scope_key(scope)
        index = self._site_index.get(key)
        if index is None:
            index = {
                (s.line, s.col, s.name): s for s in self.graph.callees(key)
            }
            self._site_index[key] = index
        from repro.lint.model import call_name

        name = call_name(call.func)
        if name is None:
            return None
        return index.get((call.lineno, call.col_offset, name))


def _join(a: _State | None, b: _State | None) -> _State | None:
    if a is None:
        return b
    if b is None:
        return a
    return (a[0] | b[0], a[1] and b[1])


def _calls_in_exprs(exprs) -> list[ast.Call]:
    """Call nodes of the given expressions, source order, lambdas skipped."""
    out: list[ast.Call] = []
    stack = [e for e in exprs if isinstance(e, ast.expr)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    out.sort(key=lambda n: (n.lineno, n.col_offset))
    return out


# ---------------------------------------------------------------------------
# shared per-model analysis cache
# ---------------------------------------------------------------------------


class OrderingAnalysis:
    """Call graph + micro-op tables, built once per lint run."""

    def __init__(self, model: CodeModel) -> None:
        self.model = model
        self.graph = build_callgraph(model)
        self.ops = OrderingOps(model)

    def seam_keys(self) -> dict[str, tuple[str, str]]:
        """``function key -> (class, seam)`` for every ordered seam of
        every concrete class, resolved through the lineage."""
        model = self.model
        seams: dict[str, tuple[str, str]] = {}
        for declaring in model.declaring_classes("ordered"):
            concrete = [declaring] + list(model.subclasses_of(declaring.name))
            for info in concrete:
                for seam in model.effective(info.name, "ordered"):
                    resolved = model.resolve_method(info.name, seam)
                    if resolved is None:
                        continue
                    key = f"{resolved.path}::{resolved.name}.{seam}"
                    if key in self.graph.functions:
                        seams.setdefault(key, (info.name, seam))
        return seams


_ANALYSIS_ATTR = "_ordering_analysis"


def analysis_for(model: CodeModel) -> OrderingAnalysis:
    """The model's cached :class:`OrderingAnalysis` (one build per run)."""
    cached = getattr(model, _ANALYSIS_ATTR, None)
    if cached is None:
        cached = OrderingAnalysis(model)
        setattr(model, _ANALYSIS_ATTR, cached)
    return cached


# ---------------------------------------------------------------------------
# P6 — unordered persistent write on an ordered seam
# ---------------------------------------------------------------------------


def rule_p6(model: CodeModel, config) -> list[Finding]:
    """Droppable stores may not trail an ordered seam's return."""
    analysis = analysis_for(model)
    seams = analysis.seam_keys()
    if not seams:
        return []
    flow = FlowAnalysis(model, analysis.graph, analysis.ops)
    flow.compute(sorted(seams))
    findings: dict[str, Finding] = {}
    for key in sorted(seams):
        cls, seam = seams[key]
        summary = flow.summary(key)
        for store in sorted(
            summary.exit_pending, key=lambda s: (s.path, s.line, s.col)
        ):
            finding = Finding(
                rule="P6",
                path=store.path,
                line=store.line,
                col=store.col,
                symbol=store.symbol,
                message=(
                    f"droppable store {store.label}(...) may still be "
                    f"pending when the ordered seam {cls}.{seam} returns — "
                    "a crash can drop it behind later accepted writes, "
                    "voiding the bound recovery relies on"
                ),
                suggestion=(
                    "order it before returning: wrap it in an atomic batch "
                    "(begin_atomic/write_atomic/commit_atomic) or follow "
                    "it with a fence (commit_root)"
                ),
                token=f"unfenced:{store.label}",
            )
            findings.setdefault(finding.key, finding)
    return list(findings.values())


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
    for domain in ("stores", "fences", "grouped"):
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
            event = ops.classify(scope, site.name, site.receiver)
            kind = event[0] if event else None
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
                    f"grouped register op {site.dotted or site.name}(...) "
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
# D0–D2 — determinism on spec-hashed paths
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


def rule_d0(model: CodeModel, config) -> list[Finding]:
    """Spec-hashed paths call no wall-clock/entropy sources."""
    analysis = analysis_for(model)
    findings = []
    for key, scope in _deterministic_scopes(model, config):
        for site in analysis.graph.callees(key):
            banned = _NONDET_CALLS.get(site.receiver or "")
            if banned is None:
                continue
            if banned and site.name not in banned:
                continue
            if site.name in _NONDET_EXEMPT:
                continue
            findings.append(
                Finding(
                    rule="D0",
                    path=scope.path,
                    line=site.line,
                    col=site.col,
                    symbol=scope.symbol,
                    message=(
                        f"{site.dotted}(...) is nondeterministic but this "
                        "function is reachable from a spec-hashed entry "
                        "point — identical specs would stop producing "
                        "identical runs"
                    ),
                    suggestion=(
                        "derive the value from the spec seed (e.g. a "
                        "seeded random.Random) or hoist it out of the "
                        "hashed path"
                    ),
                    token=f"nondet:{site.dotted}",
                )
            )
    return findings


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


def rule_d2(model: CodeModel, config) -> list[Finding]:
    """Spec-hashed paths serialize dicts with ``sort_keys=True``."""
    analysis = analysis_for(model)
    findings = []
    for key, scope in _deterministic_scopes(model, config):
        for site in analysis.graph.callees(key):
            if site.receiver != "json" or site.name not in ("dumps", "dump"):
                continue
            call = _call_node_at(scope, site)
            if call is not None and _sorts_keys(call):
                continue
            findings.append(
                Finding(
                    rule="D2",
                    path=scope.path,
                    line=site.line,
                    col=site.col,
                    symbol=scope.symbol,
                    message=(
                        f"json.{site.name}(...) without sort_keys=True on "
                        "a spec-hashed path — dict insertion order leaks "
                        "into the serialized (and possibly hashed) bytes"
                    ),
                    suggestion="pass sort_keys=True",
                    token="unsorted-json",
                )
            )
    return findings


def _call_node_at(scope: Scope, site: CallSite) -> ast.Call | None:
    for node in scope.walk_own():
        if (
            isinstance(node, ast.Call)
            and node.lineno == site.line
            and node.col_offset == site.col
        ):
            return node
    return None


def _sorts_keys(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "sort_keys":
            value = keyword.value
            if isinstance(value, ast.Constant):
                return bool(value.value)
            return True  # dynamic flag: give it the benefit of the doubt
    return False
