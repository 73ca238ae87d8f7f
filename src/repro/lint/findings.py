"""Structured findings emitted by the persistence-domain analyzer.

A finding names the violated rule, where it is (`file:line`), the
enclosing symbol, a message, and a suggested fix.  Its :attr:`Finding.key`
deliberately excludes the line number so checked-in baselines survive
unrelated edits above the finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Rule identifiers and their one-line charters, in severity-free
#: reporting order.  ``P0`` covers defects of the declaration layer
#: itself (the analyzer cannot trust its model if declarations are
#: malformed); ``P1``, ``P4`` and ``P7`` are the persist-order rules
#: proper.  Baseline keys embed the id, so the ids of deleted rules
#: (listed in DESIGN.md) are never reused.
RULES: dict[str, str] = {
    "P0": "persistence declarations must be statically readable literals",
    "P1": "persistent attributes are assigned only inside the owning class "
          "(all other mutation goes through its sanctioned methods or the WPQ)",
    "P4": "recovery-path code reads no volatile-domain state "
          "(only the NVM image and persistent TCB registers survive)",
    "P7": "every persist micro-op is visible to the trace seams "
          "(mutators call the trace hook; grouped register ops run "
          "inside balanced combined brackets)",
    "D1": "spec-hashed paths do not iterate unordered sets "
          "whose order can escape",
    "B0": "every baseline entry cites a DESIGN.md justification anchor",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    #: Path of the offending file, relative to the analyzed root's parent.
    path: str
    line: int
    col: int
    #: Dotted name of the enclosing class/function (or ``<module>``).
    symbol: str
    message: str
    suggestion: str = ""
    #: Short stable slug (attribute, site or method name) distinguishing
    #: findings within one symbol; part of the baseline key.
    token: str = ""

    @property
    def key(self) -> str:
        """Line-number-independent identity used by baseline files."""
        return f"{self.rule}|{self.path}|{self.symbol}|{self.token}"

    def render(self) -> str:
        """One-finding text rendering (``file:line:col rule symbol: msg``)."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.symbol}] {self.message}"
        if self.suggestion:
            text += f"\n    fix: {self.suggestion}"
        return text

    def to_dict(self) -> dict:
        """JSON-ready representation (stable field names)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "suggestion": self.suggestion,
            "token": self.token,
            "key": self.key,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable report order: rule, then file, then position."""
    return sorted(findings, key=lambda f: (f.rule, f.path, f.line, f.col, f.token))


@dataclass
class Baseline:
    """A checked-in set of intentionally accepted finding keys.

    The file format is one key per line, optionally followed by a
    justification anchor — ``rule|path|symbol|token #anchor-name`` —
    naming the DESIGN.md heading (written ``{#anchor-name}``) that
    argues why the exception is sound.  Blank lines and ``#`` comment
    lines are ignored.  The baseline records *that* an exception
    exists, the anchored document records *why*; the B0 rule holds the
    two together.
    """

    path: str | None = None
    keys: frozenset[str] = frozenset()
    matched: set[str] = field(default_factory=set)
    #: ``key -> anchor name`` for entries carrying a justification.
    anchors: dict[str, str] = field(default_factory=dict)
    #: ``key -> 1-based line number`` in the baseline file.
    lines: dict[str, int] = field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "Baseline":
        keys: list[str] = []
        anchors: dict[str, str] = {}
        lines: dict[str, int] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, anchor = line.partition(" #")
                key = key.strip()
                keys.append(key)
                lines.setdefault(key, number)
                if anchor.strip():
                    anchors[key] = anchor.strip()
        return cls(
            path=str(path), keys=frozenset(keys), anchors=anchors, lines=lines
        )

    def accepts(self, finding: Finding) -> bool:
        """True (and recorded) when *finding* is baselined."""
        if finding.key in self.keys:
            self.matched.add(finding.key)
            return True
        return False

    @property
    def stale(self) -> list[str]:
        """Baseline entries that matched no finding — fixed or mistyped.

        Stale entries are reported (and fail ``--strict``) so the
        baseline shrinks as violations are fixed instead of rotting.
        """
        return sorted(self.keys - self.matched)
