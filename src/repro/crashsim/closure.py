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

A violating member is reported but not expanded: its descendants would
only restate the violation.  A correct recovery closes within a few
thousand members per workload (DESIGN.md, "Crash during recovery");
a broken one can lose one more block per nesting level, so the walk
stops at :data:`MAX_MEMBERS` and reports the closure as not reached.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from repro.crashsim.enumerate import (
    CrashEnumerator,
    CrashState,
    _copy_registers,
    apply_op,
)
from repro.crashsim.oracle import RecoveryOracle


@dataclass
class ClosureReport:
    """One closure's size, depth, outcomes and violations."""

    scheme: str
    #: Distinct starting states (depth 0).
    roots: int = 0
    #: Distinct images judged, roots included.
    members: int = 0
    #: Longest schedule any member needed (0: no recovery persists).
    depth: int = 0
    #: False when the walk stopped at its member budget.
    closed: bool = True
    outcomes: Counter = field(default_factory=Counter)
    #: ``{"state", "schedule", "verdict"}`` per violating member.
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.closed and not self.violations


#: Members one closure may judge before it gives up (see module docs).
MAX_MEMBERS = 20_000
#: Workload seed and device size of :func:`profile_closure`'s recordings.
SEED = 1
DATA_CAPACITY = 1 << 16


def prefix_state(root: CrashState, state: CrashState, ops, persists: int):
    """*state* after the first *persists* recovery ops, under *root*'s name."""
    lines = dict(state.lines)
    registers = _copy_registers(state.registers)
    for op in ops[:persists]:
        apply_op(lines, registers, {}, op, {})
    return CrashState(root.k, root.dropped, root.torn, lines, registers, root.expected)


def recovery_closure(oracle: RecoveryOracle, roots) -> ClosureReport:
    """Close *roots* under crash-at-every-recovery-prefix; judge each member.

    Breadth first, so each member's schedule is a shortest one and
    :attr:`ClosureReport.depth` is the nesting the fixed point needs.
    Queued members stay unmaterialized (parent state, its recovery ops,
    a prefix length) until judged.
    """
    report = ClosureReport(oracle.scheme_name)
    seen: set[str] = set()
    queue: deque = deque()
    for root in roots:
        digest = root.image_hash()
        if digest not in seen:
            seen.add(digest)
            queue.append((root, root, (), 0, ()))
    report.roots = len(queue)
    while queue:
        if report.members >= MAX_MEMBERS:
            report.closed = False
            break
        root, parent, ops, persists, schedule = queue.popleft()
        state = prefix_state(root, parent, ops, persists) if persists else parent
        verdict, ops = oracle.evaluate_traced(state)
        report.members += 1
        report.depth = max(report.depth, len(schedule))
        report.outcomes[verdict.outcome] += 1
        if not verdict.ok:
            report.violations.append(
                {
                    "state": root.describe(),
                    "schedule": list(schedule),
                    "verdict": verdict.to_dict(),
                }
            )
            continue
        lines = dict(state.lines)
        registers = _copy_registers(state.registers)
        for persists, op in enumerate(ops, 1):
            apply_op(lines, registers, {}, op, {})
            digest = CrashState(0, (), None, lines, registers, {}).image_hash()
            if digest not in seen:
                seen.add(digest)
                queue.append((root, state, ops, persists, schedule + (persists,)))
    return report


def profile_closure(scheme: str, profile: str, steps: int) -> ClosureReport:
    """The closure of one recorded workload's run-time crash states.

    The roots are every state :class:`CrashEnumerator` yields from the
    profile's trace at the default (exhaustive) window.
    """
    from repro.core.schemes import create_scheme
    from repro.crashsim.workload import record_workload

    machine = create_scheme(scheme, data_capacity=DATA_CAPACITY, seed=SEED)
    trace = record_workload(machine, steps, SEED, profile=profile)
    oracle = RecoveryOracle(scheme, data_capacity=DATA_CAPACITY, seed=SEED)
    return recovery_closure(oracle, CrashEnumerator(trace).states())
