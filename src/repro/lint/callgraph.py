"""Interprocedural call graph over the static code model.

Rule P7, rule D1 and the cross-check's static side reason *across*
functions: a register bump is bracketed by its caller's combined group,
a spec-hashed entry point reaches a set iteration three calls deep, and
a scheme seam reaches its persist micro-ops through helpers.  This
module derives the call graph the same way the rest of the analyzer
works — from the AST alone, never importing the analyzed tree.

Resolution is deliberately the same receiver-name scheme the structural
rules use (no type inference):

* ``self.m(...)`` resolves against the enclosing class's lineage, plus
  every subclass override — **virtual dispatch**: a call through a seam
  the base class defines must consider every design's implementation;
* ``x.m(...)`` where ``x`` is a declared ``aka`` alias resolves against
  the aliased class (and its overrides);
* a bare ``f(...)`` resolves to a module-level function of the same
  module.

Unresolved calls (stdlib, unknown receivers) keep an empty target set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.model import CodeModel, Scope, call_name, receiver_name


def scope_key(scope: Scope) -> str:
    """Stable node identity: ``path::symbol``."""
    return f"{scope.path}::{scope.symbol}"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside one function scope."""

    caller: str            # scope key of the enclosing function
    line: int
    col: int
    name: str              # called method/function name
    receiver: str | None   # last identifier of the receiver, if any
    targets: tuple[str, ...]   # resolved callee scope keys (virtual set)


@dataclass
class CallGraph:
    """Call sites, edges and reachability over function scopes."""

    model: CodeModel
    #: Function scopes by key.
    functions: dict[str, Scope] = field(default_factory=dict)
    #: Call sites grouped by caller key, in source order.
    sites: dict[str, list[CallSite]] = field(default_factory=dict)
    #: Reverse edges: callee key -> list of call sites targeting it.
    callers: dict[str, list[CallSite]] = field(default_factory=dict)

    def callees(self, key: str) -> list[CallSite]:
        return self.sites.get(key, [])

    def reachable(self, entries: list[str]) -> set[str]:
        """Function keys transitively callable from *entries*."""
        seen = set()
        frontier = [key for key in entries if key in self.functions]
        while frontier:
            key = frontier.pop()
            if key in seen:
                continue
            seen.add(key)
            for site in self.sites.get(key, ()):
                frontier.extend(t for t in site.targets if t not in seen)
        return seen


def build_callgraph(model: CodeModel) -> CallGraph:
    graph = CallGraph(model)
    method_index: dict[tuple[str, str], str] = {}
    module_index: dict[tuple[str, str], str] = {}
    for scope in model.scopes:
        if not isinstance(scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        key = scope_key(scope)
        graph.functions[key] = scope
        parts = scope.symbol.split(".")
        if scope.class_name is not None and len(parts) >= 2:
            # `Class.method` (possibly nested deeper; attribute the method
            # name to the innermost enclosing class).
            method_index[(scope.class_name, parts[-1])] = key
        elif len(parts) == 1:
            module_index[(scope.path, scope.symbol)] = key

    resolver = _Resolver(model, method_index, module_index)
    for key, scope in graph.functions.items():
        sites = []
        for node in _calls_in_order(scope):
            name = call_name(node.func)
            if name is None:
                continue
            recv = (
                receiver_name(node.func.value)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            targets = resolver.resolve(scope, name, recv)
            site = CallSite(
                caller=key,
                line=node.lineno,
                col=node.col_offset,
                name=name,
                receiver=recv,
                targets=targets,
            )
            sites.append(site)
            for target in targets:
                graph.callers.setdefault(target, []).append(site)
        graph.sites[key] = sites
    return graph


def _calls_in_order(scope: Scope):
    """Call nodes of one scope in source order, nested defs excluded."""
    calls = [n for n in scope.walk_own() if isinstance(n, ast.Call)]
    calls.sort(key=lambda n: (n.lineno, n.col_offset))
    return calls


class _Resolver:
    def __init__(self, model, method_index, module_index) -> None:
        self.model = model
        self.method_index = method_index
        self.module_index = module_index
        self._cache: dict[tuple, tuple[str, ...]] = {}

    def resolve(self, scope: Scope, name: str, recv: str | None) -> tuple[str, ...]:
        cache_key = (scope.path, scope.class_name, name, recv)
        if cache_key in self._cache:
            return self._cache[cache_key]
        targets = self._resolve_uncached(scope, name, recv)
        self._cache[cache_key] = targets
        return targets

    def _resolve_uncached(self, scope, name, recv) -> tuple[str, ...]:
        model = self.model
        classes: list[str] = []
        if recv == "self" and scope.class_name is not None:
            classes.append(scope.class_name)
        elif recv is not None:
            classes.extend(info.name for info in model.aka_map.get(recv, ()))
        elif recv is None:
            key = self.module_index.get((scope.path, name))
            return (key,) if key is not None else ()

        targets: list[str] = []
        for cls_name in classes:
            resolved = model.resolve_method(cls_name, name)
            if resolved is not None:
                key = self.method_index.get((resolved.name, name))
                if key is not None:
                    targets.append(key)
            # Virtual dispatch: the receiver may be any subclass, so a
            # call through a base-class seam considers every override.
            for sub in model.subclasses_of(cls_name):
                if name in sub.methods:
                    key = self.method_index.get((sub.name, name))
                    if key is not None:
                        targets.append(key)
        return tuple(dict.fromkeys(targets))
