"""The structural rule passes (P0, P1, P4).

Each pass is a pure function of the :class:`~repro.lint.model.CodeModel`
and the run configuration, returning :class:`~repro.lint.findings.Finding`
objects.  The rules encode cc-NVM's write-ordering discipline
(PAPER.md §4.2-4.4):

* **P0** — the declaration layer itself must be statically readable.
* **P1** — persistent attributes are assigned only inside the owning
  class; everywhere else mutation must go through the owner's sanctioned
  micro-ops (TCB register ops, WPQ ``write``/``write_atomic``/...).
* **P4** — recovery-path code never reads volatile-domain attributes;
  after a crash only the NVM image and the persistent TCB registers
  exist, so consulting volatile state is a latent use-of-lost-state bug.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.model import CodeModel, Scope, receiver_name


def _assign_targets(node: ast.AST):
    """Flatten the attribute targets of any assignment statement."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, ast.Attribute):
            yield target


def _function_scopes(model: CodeModel):
    for scope in model.scopes:
        if isinstance(scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield scope


# ---------------------------------------------------------------------------
# P0 — declaration hygiene
# ---------------------------------------------------------------------------

def rule_p0(model: CodeModel, config) -> list[Finding]:
    """Problems found while reading the declaration layer."""
    return list(model.problems)


# ---------------------------------------------------------------------------
# P1 — persistent-domain stores
# ---------------------------------------------------------------------------

def rule_p1(model: CodeModel, config) -> list[Finding]:
    findings = []
    for scope in model.scopes:
        for node in scope.walk_own():
            for target in _assign_targets(node):
                finding = _check_store(model, scope, target)
                if finding is not None:
                    findings.append(finding)
    return findings


def _check_store(model: CodeModel, scope: Scope, target: ast.Attribute):
    attr = target.attr
    if attr not in model.persistent_owners:
        return None
    recv = receiver_name(target.value)
    if recv == "self":
        # Inside the owning class (or a subclass inheriting the domain)
        # the store IS the sanctioned micro-op.  An unrelated class's
        # same-named `self.<attr>` lives in its own namespace.
        return None
    owners = [
        info
        for info in model.aka_map.get(recv, ())
        if attr in model.effective(info.name, "persistent")
    ]
    if not owners:
        return None
    owner = owners[0]
    if scope.class_name is not None and owner.name in model.lineage(scope.class_name):
        return None  # the owner (or a subclass) touching its own domain
    mutators = owner.decl.mutators if owner.decl else ()
    suggestion = (
        f"mutate {owner.name} through its sanctioned micro-ops"
        + (f" ({', '.join(mutators)})" if mutators else "")
        + " or route the change through the WPQ"
    )
    return Finding(
        "P1", scope.path, target.lineno, target.col_offset, scope.symbol,
        f"direct store to persistent attribute {recv}.{attr} "
        f"(owned by {owner.name}) outside the owning class — persist order "
        "is only guaranteed through the owner's micro-ops",
        suggestion=suggestion,
        token=f"{recv}.{attr}",
    )


# ---------------------------------------------------------------------------
# P4 — recovery-path volatile reads
# ---------------------------------------------------------------------------

def rule_p4(model: CodeModel, config) -> list[Finding]:
    findings = []
    for scope in _function_scopes(model):
        if not _is_recovery_scope(model, scope, config):
            continue
        seen: set[tuple[str, int]] = set()
        for node in scope.walk_own():
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            attr = node.attr
            if attr not in model.volatile_owners:
                continue
            recv = receiver_name(node.value)
            owner = _volatile_owner(model, scope, recv, attr)
            if owner is None:
                continue
            key = (f"{recv}.{attr}", node.lineno)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    "P4", scope.path, node.lineno, node.col_offset, scope.symbol,
                    f"recovery path reads volatile attribute {recv}.{attr} "
                    f"(declared volatile by {owner}) — after a crash only the "
                    "NVM image and persistent TCB registers exist",
                    suggestion="recompute the value from the NVM image or a "
                    "persistent register; volatile state must not feed recovery",
                    token=f"{recv}.{attr}",
                )
            )
    return findings


def _is_recovery_scope(model: CodeModel, scope: Scope, config) -> bool:
    normalized = scope.path.replace("\\", "/")
    if any(normalized.endswith(suffix) for suffix in config.recovery_files):
        return True
    if scope.class_name is not None and scope.node.name.startswith("recover"):
        lineage = model.lineage(scope.class_name)
        return config.scheme_root in lineage
    return False


def _volatile_owner(model: CodeModel, scope: Scope, recv, attr: str) -> str | None:
    if recv == "self" and scope.class_name is not None:
        if attr in model.effective(scope.class_name, "volatile"):
            return scope.class_name
        return None
    for info in model.aka_map.get(recv, ()):
        if attr in model.effective(info.name, "volatile"):
            return info.name
    return None


#: The full pass list, in reporting order.  The call-graph rules (P7
#: and the determinism rule D1) live in :mod:`repro.lint.ordering`;
#: they share one call-graph build per run.
from repro.lint.ordering import rule_d1, rule_p7  # noqa: E402

ALL_RULES = (
    rule_p0,
    rule_p1,
    rule_p4,
    rule_p7,
    rule_d1,
)
