"""The static code model the persist-order rules run against.

Everything here is derived from the AST alone — the analyzed code is
never imported (importing the system under analysis could execute it,
and CI must be able to lint a broken tree).  The model collects:

* every module under the analyzed root, parsed;
* every class, with its base-class names, methods (noting which ones
  call a persist-trace seam), and the
  :func:`repro.common.persistence.persistence` declaration read
  *statically* from the decorator's literal arguments.

Scopes (module bodies and function bodies) are first-class so rules can
reason about "calls within this function" without double-counting nested
definitions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.lint.findings import Finding

#: Call names treated as persist-trace instrumentation (the seams the
#: crashsim recorder attaches to; rule P7 requires every sanctioned
#: micro-op of a trace-domain class to pass through one).
TRACE_CALL_NAMES = ("_trace", "trace_hook")

#: Keyword arguments the persistence decorator accepts.
_DECL_KWARGS = (
    "persistent", "volatile", "aka", "mutators",
    "stores", "grouped",
)


@dataclass(frozen=True)
class StaticDeclaration:
    """A persistence declaration as read from a decorator's literals."""

    cls_name: str
    persistent: tuple[str, ...] = ()
    volatile: tuple[str, ...] = ()
    aka: tuple[str, ...] = ()
    mutators: tuple[str, ...] = ()
    #: Store micro-ops of the WPQ; declaring any puts the class in the
    #: P7 trace domain and makes it a cross-check store site owner.
    stores: tuple[str, ...] = ()
    #: Register micro-ops that must run inside a combined group (P7);
    #: declaring any makes every mutator a cross-check register site.
    grouped: tuple[str, ...] = ()


@dataclass
class ClassInfo:
    """One class definition in the analyzed tree."""

    name: str
    path: str
    line: int
    bases: tuple[str, ...]
    decl: StaticDeclaration | None
    methods: dict[str, ast.FunctionDef]
    #: Method names whose bodies contain a persist-trace call — these
    #: micro-ops are visible to the crashsim recorder (rule P7).
    traced_methods: frozenset[str] = frozenset()


@dataclass
class Scope:
    """A module or function body (nested definitions excluded)."""

    path: str
    #: Dotted name: ``<module>``, ``Class.method`` or ``function``.
    symbol: str
    #: Name of the innermost enclosing class, or ``None``.
    class_name: str | None
    node: ast.AST

    def walk_own(self):
        """Yield this scope's nodes, stopping at nested function/class defs."""
        stack = list(_body_of(self.node))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                stack.extend(ast.iter_child_nodes(node))


def _body_of(node: ast.AST) -> list[ast.stmt]:
    return getattr(node, "body", [])


def receiver_name(expr: ast.AST) -> str | None:
    """The last identifier of a receiver expression (``a.b.tcb`` → ``tcb``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def call_name(func: ast.AST) -> str | None:
    """The called name of a ``Call.func`` (``x.y.f(...)`` → ``f``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _literal_names(node: ast.AST) -> tuple[str, ...] | None:
    """Decode a literal tuple/list of strings, or ``None`` if non-literal."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    names = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return tuple(names)


class CodeModel:
    """Parsed view of every module under one root directory."""

    def __init__(self, root: Path, base_dir: Path | None = None) -> None:
        self.root = Path(root)
        #: Paths in findings are rendered relative to this directory.
        self.base_dir = Path(base_dir) if base_dir is not None else self.root.parent
        self.modules: dict[str, ast.Module] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.scopes: list[Scope] = []
        #: P0 findings raised while reading declarations.
        self.problems: list[Finding] = []
        self._build()

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        for file_path in sorted(self.root.rglob("*.py")):
            rel = str(file_path.relative_to(self.base_dir))
            tree = ast.parse(file_path.read_text(encoding="utf-8"), filename=rel)
            self.modules[rel] = tree
            self._collect(rel, tree)
        self._link_hierarchy()

    def _collect(self, rel: str, tree: ast.Module) -> None:
        self.scopes.append(Scope(rel, "<module>", None, tree))
        self._walk_body(rel, tree, prefix="", class_name=None)

    def _walk_body(
        self, rel: str, node: ast.AST, prefix: str, class_name: str | None
    ) -> None:
        for child in _body_of(node):
            if isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}"
                self._register_class(rel, child, qual)
                self._walk_body(rel, child, prefix=f"{qual}.", class_name=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                self.scopes.append(Scope(rel, qual, class_name, child))
                self._walk_body(rel, child, prefix=f"{qual}.", class_name=class_name)

    def _register_class(self, rel: str, node: ast.ClassDef, qual: str) -> None:
        decl = None
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) and call_name(deco.func) == "persistence":
                decl = self._read_declaration(rel, node, deco, qual)
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        traced = frozenset(
            name
            for name, fn in methods.items()
            if any(
                isinstance(n, ast.Call) and call_name(n.func) in TRACE_CALL_NAMES
                for n in ast.walk(fn)
            )
        )
        info = ClassInfo(
            name=node.name,
            path=rel,
            line=node.lineno,
            bases=tuple(
                name for base in node.bases if (name := receiver_name(base)) is not None
            ),
            decl=decl,
            methods=methods,
            traced_methods=traced,
        )
        if node.name in self.classes:
            self.problems.append(
                Finding(
                    "P0", rel, node.lineno, node.col_offset, qual,
                    f"class name {node.name!r} is defined more than once in the "
                    "analyzed tree; domain attribution is ambiguous",
                    token=f"duplicate:{node.name}",
                )
            )
        self.classes[node.name] = info

    def _read_declaration(
        self, rel: str, cls: ast.ClassDef, deco: ast.Call, qual: str
    ) -> StaticDeclaration | None:
        fields: dict[str, tuple[str, ...]] = {}
        bad = False
        if deco.args:
            self._p0(rel, deco, qual, "positional",
                     "the persistence decorator takes keyword arguments only")
            bad = True
        for kw in deco.keywords:
            if kw.arg not in _DECL_KWARGS:
                self._p0(rel, deco, qual, f"kwarg:{kw.arg}",
                         f"unknown persistence declaration field {kw.arg!r}")
                bad = True
                continue
            names = _literal_names(kw.value)
            if names is None:
                self._p0(
                    rel, deco, qual, f"literal:{kw.arg}",
                    f"declaration field {kw.arg!r} must be a literal "
                    "tuple/list of strings so the analyzer can read it "
                    "without importing the code",
                )
                bad = True
                continue
            fields[kw.arg] = names
        if bad:
            return None
        overlap = set(fields.get("persistent", ())) & set(fields.get("volatile", ()))
        if overlap:
            self._p0(
                rel, deco, qual, "overlap",
                f"attributes declared both persistent and volatile: "
                f"{sorted(overlap)}",
            )
            return None
        return StaticDeclaration(cls.name, **fields)

    def _p0(self, rel: str, node: ast.AST, symbol: str, token: str, msg: str) -> None:
        self.problems.append(
            Finding("P0", rel, node.lineno, node.col_offset, symbol, msg, token=token)
        )

    # -- hierarchy and domain lookups --------------------------------------------

    def _link_hierarchy(self) -> None:
        self._ancestors: dict[str, tuple[str, ...]] = {}
        for name in self.classes:
            chain: list[str] = []
            seen = {name}
            frontier = list(self.classes[name].bases)
            while frontier:
                base = frontier.pop(0)
                if base in seen or base not in self.classes:
                    continue
                seen.add(base)
                chain.append(base)
                frontier.extend(self.classes[base].bases)
            self._ancestors[name] = tuple(chain)

        self.persistent_owners: dict[str, list[ClassInfo]] = {}
        self.volatile_owners: dict[str, list[ClassInfo]] = {}
        self.aka_map: dict[str, list[ClassInfo]] = {}
        for info in self.classes.values():
            if info.decl is None:
                continue
            for attr in info.decl.persistent:
                self.persistent_owners.setdefault(attr, []).append(info)
            for attr in info.decl.volatile:
                self.volatile_owners.setdefault(attr, []).append(info)
            for alias in info.decl.aka:
                self.aka_map.setdefault(alias, []).append(info)

    def ancestors(self, cls_name: str) -> tuple[str, ...]:
        """Transitive base-class names resolvable inside the model."""
        return self._ancestors.get(cls_name, ())

    def lineage(self, cls_name: str) -> tuple[str, ...]:
        """*cls_name* plus its resolvable ancestors."""
        return (cls_name, *self.ancestors(cls_name))

    def is_declared(self, cls_name: str) -> bool:
        """True when the class or an ancestor carries a declaration."""
        return any(
            self.classes[c].decl is not None
            for c in self.lineage(cls_name)
            if c in self.classes
        )

    def effective(self, cls_name: str, domain: str) -> frozenset[str]:
        """Effective persistent/volatile attr names, ancestors included."""
        names: set[str] = set()
        for c in self.lineage(cls_name):
            info = self.classes.get(c)
            if info is not None and info.decl is not None:
                names.update(getattr(info.decl, domain))
        return frozenset(names)

    def subclasses_of(self, root_name: str) -> list[ClassInfo]:
        """Every class transitively inheriting from *root_name* (excl. it)."""
        return [
            info
            for name, info in self.classes.items()
            if name != root_name and root_name in self.ancestors(name)
        ]

    def resolve_method(self, cls_name: str, method: str) -> ClassInfo | None:
        """The class in *cls_name*'s lineage actually defining *method*."""
        for c in self.lineage(cls_name):
            info = self.classes.get(c)
            if info is not None and method in info.methods:
                return info
        return None

    def declaring_classes(self, domain: str) -> list[ClassInfo]:
        """Classes whose *own* declaration fills the given field."""
        return [
            info
            for info in self.classes.values()
            if info.decl is not None and getattr(info.decl, domain)
        ]


def build_model(root, base_dir=None) -> CodeModel:
    """Parse everything under *root* into a :class:`CodeModel`."""
    return CodeModel(Path(root), base_dir)
