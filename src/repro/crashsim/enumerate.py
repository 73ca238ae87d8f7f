"""Crash-state enumeration under ADR semantics.

Given a recorded :class:`~repro.crashsim.trace.PersistTrace`, generate
the NVM-image × register-file states a power failure can leave behind:

* **every prefix** — a crash between any two trace units;
* **window drops** — a unit is one controller write transaction, and
  transactions still in flight toward the WPQ may be lost even though
  *later* transactions were already accepted.  The model bounds that
  in-flight window to the last ``window`` units, keeps per-address
  program order (a surviving write implies every earlier write to the
  same line survived — the controller never reorders same-line stores),
  and treats committed atomic batches and epoch commits as fences:
  the batch owns the WPQ end to end, so nothing earlier is still in
  flight once it commits;
* **atomic batches all-or-nothing** — a batch unit is applied in full
  or not at all.  With ``torn_batches=True`` the enumerator *also*
  emits partially-applied batch states, deliberately violating the
  paper's protocol; that mode exists so the oracle can demonstrate it
  catches an ordering bug, never for validating a correct design.

Per crash point the drop-sets are enumerated exhaustively, never
sampled; a crash point with more than :data:`MAX_ACTIVE_CANDIDATES`
candidates fails loudly instead.

TCB register micro-ops replay as *deltas* (``nwb += 1``,
``counter_log[addr] += 1``, commit folds ``root_new`` into
``root_old``), never as recorded absolute snapshots: once an earlier
droppable unit is gone, an absolute snapshot would smuggle the dropped
write's register effect back in.  Only the root-register mutators are
absolute — they live in standalone units no drop-set can touch.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from repro.crashsim.trace import PersistTrace, PersistOp, TraceUnit

DEFAULT_WINDOW = 4
#: Hard cap on drop candidates expanded per crash point: 2**16 subsets
#: is the most one point may expand before failing loudly.
MAX_ACTIVE_CANDIDATES = 16


def canonical_value(value):
    """A hashable, order-independent image of a (nested) register value.

    Dicts become sorted item tuples recursively, so two structurally
    equal register files hash identically no matter the insertion order
    of nested mappings such as ``counter_log``.
    """
    if isinstance(value, dict):
        return tuple(sorted((k, canonical_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical_value(v) for v in value)
    return value


def _lines_bytes(lines: dict[int, bytes]) -> list[bytes]:
    """``address (8 bytes, little endian), line`` per entry, in address order."""
    parts = []
    append = parts.append
    for addr in sorted(lines):
        append(addr.to_bytes(8, "little"))
        append(lines[addr])
    return parts


def lines_digest(lines: dict[int, bytes]) -> str:
    """Content hash of an ``{address: bytes}`` map, in address order."""
    return hashlib.sha256(b"".join(_lines_bytes(lines))).hexdigest()


def canonical_registers(registers: dict) -> bytes:
    """``repr(canonical_value(registers_to_dict(registers))).encode()``,
    built directly: the register names in their sorted (fixed) order and
    ``counter_log`` sorted by its string keys, as that nesting sorts it."""
    log = tuple(sorted([(str(a), c) for a, c in registers["counter_log"].items()]))
    return (
        f"(('counter_log', {log!r}), ('nwb', {registers['nwb']!r}), "
        f"('recovery_pending', {registers['recovery_pending']!r}), "
        f"('root_new', {registers['root_new'].hex()!r}), "
        f"('root_old', {registers['root_old'].hex()!r}))"
    ).encode()


@dataclass
class CrashState:
    """One reachable post-crash durable state."""

    #: Trace units 0..k-1 were reached (minus ``dropped``).
    k: int
    #: Indices of window units lost in flight (sorted, possibly empty).
    dropped: tuple[int, ...]
    #: For torn-batch mode: how many ops of unit ``k-1`` applied.
    torn: int | None
    #: Complete durable NVM image (initial lines + surviving writes).
    lines: dict[int, bytes]
    #: TCB persistent register file at the crash.
    registers: dict
    #: addr -> plaintext the surviving write stream implies.
    expected: dict[int, bytes]

    def describe(self) -> str:
        out = f"k={self.k}"
        if self.dropped:
            out += ",drop=" + "+".join(str(i) for i in self.dropped)
        if self.torn is not None:
            out += f",torn={self.torn}"
        return out

    def image_hash(self) -> str:
        """Content hash of (NVM image, register file) — state identity."""
        parts = _lines_bytes(self.lines)
        parts.append(canonical_registers(self.registers))
        return hashlib.sha256(b"".join(parts)).hexdigest()


def apply_op(
    lines: dict,
    registers: dict,
    expected: dict,
    op: PersistOp,
    annotations: dict,
) -> None:
    """Replay one recorded micro-op onto a durable state."""
    if op.kind in ("write", "write_partial", "write_atomic", "poke"):
        lines[op.addr] = op.data
        if op.seq in annotations:
            expected[op.addr] = annotations[op.seq]
        return
    mutator = op.mutator
    if mutator == "count_writeback":
        registers["nwb"] += 1
    elif mutator == "log_counter_update":
        log = registers["counter_log"]
        log[op.addr] = log.get(op.addr, 0) + 1
    elif mutator == "commit_root":
        registers["root_old"] = registers["root_new"]
        registers["nwb"] = 0
        registers["counter_log"] = {}
    elif mutator in ("update_root_new", "set_root_new"):
        registers["root_new"] = op.data
    elif mutator == "set_roots":
        registers["root_new"] = op.data
        registers["root_old"] = op.data
        registers["nwb"] = 0
        registers["counter_log"] = {}
        registers["recovery_pending"] = False
    elif mutator == "begin_recovery":
        registers["recovery_pending"] = True
    else:
        raise ValueError(f"unknown TCB mutator {mutator!r} in trace")


def _copy_registers(registers: dict) -> dict:
    out = dict(registers)
    out["counter_log"] = dict(registers["counter_log"])
    return out


class CrashEnumerator:
    """Generates :class:`CrashState`\\ s from one recorded trace."""

    def __init__(
        self,
        trace: PersistTrace,
        window: int = DEFAULT_WINDOW,
        torn_batches: bool = False,
    ) -> None:
        if window < 0:
            raise ValueError("window must be >= 0")
        self.trace = trace
        self.window = window
        self.torn_batches = torn_batches

    # -- drop-set machinery --------------------------------------------------------

    def _droppable(self, k: int) -> list[int]:
        """Window units still in flight at crash point *k* (ascending)."""
        units = self.trace.units
        out: list[int] = []
        for j in range(k - 1, max(-1, k - 1 - self.window), -1):
            if units[j].is_fence:
                break
            if units[j].droppable:
                out.append(j)
        out.reverse()
        return out

    def _consistent(self, drop: frozenset, candidates: list[int]) -> bool:
        """Per-address prefix consistency: a dropped unit forces every
        later window unit touching any of its lines to drop too."""
        units = self.trace.units
        for i in drop:
            for j in candidates:
                if j > i and j not in drop and units[j].addrs & units[i].addrs:
                    return False
        return True

    def _drop_sets(self, k: int, candidates: list[int]) -> list[tuple[int, ...]]:
        """Every per-address-consistent, non-empty subset of *candidates*."""
        if len(candidates) > MAX_ACTIVE_CANDIDATES:
            raise RuntimeError(
                f"crash point {k}: {len(candidates)} active drop candidates "
                f"exceed the {MAX_ACTIVE_CANDIDATES}-candidate expansion "
                "cap; narrow the window"
            )
        out = []
        for r in range(1, len(candidates) + 1):
            for combo in itertools.combinations(candidates, r):
                if self._consistent(frozenset(combo), candidates):
                    out.append(combo)
        return out

    # -- state generation ---------------------------------------------------------

    def states(self, points=None):
        """Yield every reachable crash state, crash point by crash point.

        *points*, when given, is a predicate over the crash point index
        ``k`` (0..len(trace)); only matching points are expanded — the
        orchestrator shards the trace this way, with each worker
        regenerating the identical trace and expanding its own residue
        class.
        """
        trace = self.trace
        units = trace.units
        lines = dict(trace.initial_lines)
        registers = _copy_registers(trace.initial_registers)
        expected: dict[int, bytes] = {}
        #: position -> (lines, registers, expected) after units[0..pos).
        snapshots: dict[int, tuple] = {}

        for k in range(len(units) + 1):
            snapshots[k] = (dict(lines), _copy_registers(registers), dict(expected))
            for stale in list(snapshots):
                if stale < k - self.window:
                    del snapshots[stale]

            if points is None or points(k):
                yield CrashState(
                    k, (), None, dict(lines), _copy_registers(registers), dict(expected)
                )
                candidates = self._droppable(k)
                for drop in self._drop_sets(k, candidates) if candidates else ():
                    base = drop[0]
                    s_lines, s_regs, s_expected = snapshots[base]
                    s_lines = dict(s_lines)
                    s_regs = _copy_registers(s_regs)
                    s_expected = dict(s_expected)
                    dropped = set(drop)
                    for j in range(base, k):
                        if j in dropped:
                            continue
                        for op in units[j].ops:
                            apply_op(s_lines, s_regs, s_expected, op, trace.annotations)
                    yield CrashState(k, drop, None, s_lines, s_regs, s_expected)
                if (
                    self.torn_batches
                    and k >= 1
                    and units[k - 1].kind == "batch"
                    and len(units[k - 1].ops) > 1
                ):
                    for torn in range(1, len(units[k - 1].ops)):
                        s_lines, s_regs, s_expected = snapshots[k - 1]
                        s_lines = dict(s_lines)
                        s_regs = _copy_registers(s_regs)
                        s_expected = dict(s_expected)
                        for op in units[k - 1].ops[:torn]:
                            apply_op(s_lines, s_regs, s_expected, op, trace.annotations)
                        yield CrashState(k, (), torn, s_lines, s_regs, s_expected)

            if k < len(units):
                for op in units[k].ops:
                    apply_op(lines, registers, expected, op, trace.annotations)


def build_state(trace: PersistTrace, ops: list[PersistOp]) -> CrashState:
    """The durable state after applying *ops* to the trace's initial image.

    Used by the minimizer and the reproducer replayer, where the op list
    no longer corresponds to whole trace units.
    """
    lines = dict(trace.initial_lines)
    registers = _copy_registers(trace.initial_registers)
    expected: dict[int, bytes] = {}
    for op in ops:
        apply_op(lines, registers, expected, op, trace.annotations)
    return CrashState(len(trace.units), (), None, lines, registers, expected)


def applied_ops(trace: PersistTrace, state_meta: "CrashState | tuple") -> list[PersistOp]:
    """The flat op sequence a :class:`CrashState` applied, in order."""
    if isinstance(state_meta, CrashState):
        k, dropped, torn = state_meta.k, set(state_meta.dropped), state_meta.torn
    else:
        k, dropped, torn = state_meta[0], set(state_meta[1]), state_meta[2]
    out: list[PersistOp] = []
    for j in range(k):
        unit: TraceUnit = trace.units[j]
        if j in dropped:
            continue
        if torn is not None and j == k - 1:
            out.extend(unit.ops[:torn])
        else:
            out.extend(unit.ops)
    return out
