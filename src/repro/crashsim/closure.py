"""Crash-during-recovery, closed over recovery's own persists.

Recovery writes the NVM image only through ``NVMDevice.poke`` (re-key
data and HMAC pokes, the recovered counter leaves, the rebuilt tree
nodes) and the TCB only through ``begin_recovery`` and ``set_roots``.
Each of those ops is durable the moment it happens, so the stream a
:class:`~repro.crashsim.trace.RecoveryRecorder` records has no drop-sets:
its prefixes are exactly the images a power failure during recovery can
leave behind.

:func:`recovery_closure` starts from a set of crash states, records each
one's recovery, crashes it at every prefix and recovers each new image
again — repeating on the images *that* produces until no unseen image
(by :meth:`~repro.crashsim.enumerate.CrashState.image_hash`) appears.
The set is finite, so the fixed point covers every nesting depth.  The
one :class:`~repro.crashsim.oracle.RecoveryOracle` judges every member
against the root's expected contents: a crash during recovery must
never change what the surviving write stream implies.  A member is
named by its *schedule*, the prefix lengths that lead to it from its
root — the same list :meth:`RecoveryOracle.evaluate` replays.

The crash campaign runs it per shard (``CrashCampaignConfig.closure``,
``--closure``) and merges the shards' reports per cell.

A violating member is reported but not expanded: its descendants would
only restate the violation.  A correct recovery closes within a few
thousand members and at nesting depth 2 at most (DESIGN.md, "Crash
during recovery"); a broken one can lose one more block per nesting
level, so the walk stops when it finds a member deeper than
:data:`MAX_DEPTH`, or at :data:`MAX_MEMBERS` as a backstop, and reports
the closure as not reached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.crashsim.enumerate import (
    CrashState,
    _copy_registers,
    apply_op,
    lines_digest,
)
from repro.crashsim.oracle import RecoveryOracle


@dataclass
class ClosureReport:
    """One closure's images, depth and violations."""

    #: Image hashes of the distinct starting states (depth 0).
    roots: set[str] = field(default_factory=set)
    #: Image hash -> length of its shortest schedule, for every member
    #: judged (roots at 0).
    members: dict[str, int] = field(default_factory=dict)
    #: False when the walk stopped at its depth or member budget.
    closed: bool = True
    #: ``{"state", "schedule", "verdict"}`` per violating member.
    violations: list[dict] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Longest schedule any member needed (0: no recovery persists)."""
        return max(self.members.values(), default=0)


#: Longest schedule a closure member may have: one more than any
#: correct design's closure needs (see module docs).  The walk gives up
#: when a member of this depth has an unseen child.
MAX_DEPTH = 3

#: Members one closure may judge before it gives up (see module docs).
#: The campaign closes each shard separately, so a cell of *n* shards
#: may judge up to *n* times this before it reports a walk unclosed.
MAX_MEMBERS = 20_000


def prefix_state(root: CrashState, state: CrashState, ops, persists: int):
    """*state* after the first *persists* recovery ops, under *root*'s name."""
    lines = dict(state.lines)
    registers = _copy_registers(state.registers)
    for op in ops[:persists]:
        apply_op(lines, registers, {}, op, {})
    return CrashState(root.k, root.dropped, root.torn, lines, registers, root.expected)


def recovery_closure(oracle: RecoveryOracle, roots, memo=None) -> ClosureReport:
    """Close *roots* under crash-at-every-recovery-prefix; judge each member.

    Breadth first, so each member's schedule is a shortest one and
    :attr:`ClosureReport.depth` is the nesting the fixed point needs;
    closures of several root sets thus merge into their union's, each
    member at its smallest depth.  Queued members stay unmaterialized
    (parent state, its recovery ops, a prefix length) until judged.

    *memo* maps (image hash, expected-contents digest) to a member's
    verdict, recovery ops and the image hash after each prefix of them;
    closures over one oracle's (scheme, capacity, seed) may share it.
    """
    memo = {} if memo is None else memo
    report = ClosureReport()
    queue: deque = deque()
    for root in roots:
        digest = root.image_hash()
        if digest not in report.roots:
            report.roots.add(digest)
            expected = lines_digest(root.expected)
            queue.append((root, expected, root, (), 0, (), digest))
    seen = set(report.roots)
    while queue:
        if len(report.members) >= MAX_MEMBERS:
            report.closed = False
            break
        root, expected, parent, ops, persists, schedule, digest = queue.popleft()
        state = prefix_state(root, parent, ops, persists) if persists else parent
        if (digest, expected) not in memo:
            memo[digest, expected] = _judge(oracle, state)
        verdict, ops, children = memo[digest, expected]
        report.members[digest] = len(schedule)
        if not verdict.ok:
            report.violations.append(
                {
                    "state": root.describe(),
                    "schedule": list(schedule),
                    "verdict": verdict.to_dict(),
                }
            )
            continue
        for persists, child in enumerate(children, 1):
            if child not in seen:
                if len(schedule) == MAX_DEPTH:
                    # Breadth first: no shallower member is left unjudged.
                    report.closed = False
                    return report
                seen.add(child)
                queue.append(
                    (root, expected, state, ops, persists, schedule + (persists,), child)
                )
    return report


def _judge(oracle: RecoveryOracle, state: CrashState):
    """*state*'s verdict, recovery ops and image hash after each prefix."""
    verdict, ops = oracle.evaluate_traced(state)
    children = []
    if verdict.ok:
        lines = dict(state.lines)
        registers = _copy_registers(state.registers)
        for op in ops:
            apply_op(lines, registers, {}, op, {})
            children.append(CrashState(0, (), None, lines, registers, {}).image_hash())
    return verdict, ops, children
