"""Persist-trace recording: the ordered stream of durable micro-ops.

The recorder plugs into the plain ``trace_hook`` attributes the WPQ and
the TCB expose (the core never imports this package) and rebuilds, op
by op, the exact order in which state became durable under ADR:

* every normal / partial WPQ write, captured as the **post-write full
  line** (peeked from the device right after the store merges), so
  replaying an op is plain assignment;
* atomic-batch boundaries (``begin_atomic`` … ``commit_atomic``), kept
  as one all-or-nothing :class:`TraceUnit`;
* *combined groups* — writes bracketed by
  :meth:`~repro.mem.wpq.WritePendingQueue.begin_combined`, which travel
  to the controller as one transaction (data + HMAC sub-line + the TCB
  ``Nwb`` bump) and therefore share a fate across a power failure;
* persistent TCB register micro-ops, interleaved at their true position
  in the stream and tagged with the name of the TCB method that made
  them.

The resulting :class:`PersistTrace` is the input to the crash-state
enumerator: its units are the atoms ADR semantics permute and truncate.

Recovery persists differently: it writes the image through
``NVMDevice.poke`` and the registers through ``begin_recovery`` /
``set_roots``, each durable the moment it happens.
:class:`RecoveryRecorder` records that stream as a flat op list, whose
prefixes are exactly the states a crash during recovery can leave, and
is the one place a :class:`PowerFailure` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: TCB mutators whose effect on ``root_new`` is absolute (the op records
#: the post-op register value); every other mutator replays as a delta.
_ROOT_MUTATORS = ("update_root_new", "set_root_new", "set_roots")

#: Mutators that order all earlier WPQ traffic before themselves: a
#: batch commit by construction (ADR flushes the whole batch), an epoch
#: commit because the drain protocol blocks until the WPQ is empty
#: before advancing ``root_old``.
_FENCE_MUTATORS = ("commit_root", "set_roots")


@dataclass(frozen=True)
class PersistOp:
    """One durable micro-op: a WPQ line write, a recovery poke or a TCB
    register update."""

    seq: int
    #: ``write`` / ``write_partial`` / ``write_atomic`` / ``poke`` / ``tcb``.
    kind: str
    owner: str
    addr: int | None = None
    #: Post-op full line for WPQ writes; post-op ``root_new`` for the
    #: root-register mutators; ``None`` for delta-replayed TCB ops.
    data: bytes | None = None
    #: Name of the TCB method that made the op (TCB ops only).
    mutator: str | None = None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "owner": self.owner,
            "addr": self.addr,
            "data": self.data.hex() if self.data is not None else None,
            "mutator": self.mutator,
        }

    @staticmethod
    def from_dict(d: dict) -> "PersistOp":
        return PersistOp(
            seq=d["seq"],
            kind=d["kind"],
            owner=d["owner"],
            addr=d["addr"],
            data=bytes.fromhex(d["data"]) if d["data"] is not None else None,
            mutator=d["mutator"],
        )


@dataclass(frozen=True)
class TraceUnit:
    """The atomic grain of crash enumeration.

    * ``group`` — one controller write transaction (a combined group or
      a lone normal write): in flight toward the WPQ, so a crash may
      drop it even after later transactions were accepted — subject to
      the per-address ordering the controller preserves;
    * ``batch`` — one committed atomic batch: all-or-nothing and a
      *fence* (the batch owns the WPQ end to end, so nothing earlier
      can still be in flight once it commits);
    * ``tcb`` — a standalone persistent-register update (on-chip,
      synchronous: never dropped once program order passed it).
    """

    index: int
    kind: str
    ops: tuple[PersistOp, ...]

    @property
    def addrs(self) -> frozenset[int]:
        """NVM lines this unit writes (register-only ops excluded)."""
        return frozenset(
            op.addr for op in self.ops if op.kind != "tcb" and op.addr is not None
        )

    @property
    def is_fence(self) -> bool:
        """True when no earlier write can still be un-durable past here."""
        if self.kind == "batch":
            return True
        return any(op.mutator in _FENCE_MUTATORS for op in self.ops)

    @property
    def droppable(self) -> bool:
        """True when ADR may lose this unit behind later accepted ones."""
        return self.kind == "group"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "ops": [op.to_dict() for op in self.ops],
        }

    @staticmethod
    def from_dict(d: dict) -> "TraceUnit":
        return TraceUnit(
            index=d["index"],
            kind=d["kind"],
            ops=tuple(PersistOp.from_dict(o) for o in d["ops"]),
        )


@dataclass
class PersistTrace:
    """A recorded persist stream plus the pre-workload durable state."""

    scheme: str
    seed: int
    initial_lines: dict[int, bytes] = field(default_factory=dict)
    initial_registers: dict = field(default_factory=dict)
    units: list[TraceUnit] = field(default_factory=list)
    #: op seq -> plaintext the workload intended for that data write.
    annotations: dict[int, bytes] = field(default_factory=dict)
    #: op seq -> (major, minor) encryption counter the write used.  Only
    #: annotated data writes are covered; the equivalence-class reducer
    #: needs the pair to predict recovery's data-HMAC roll-forward
    #: without trying counters against the ciphertext.
    counters: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.units)

    @property
    def op_count(self) -> int:
        return sum(len(u.ops) for u in self.units)


def registers_to_dict(registers: dict) -> dict:
    """JSON-able image of a TCB register snapshot."""
    return {
        "root_new": registers["root_new"].hex(),
        "root_old": registers["root_old"].hex(),
        "nwb": registers["nwb"],
        "counter_log": {str(a): c for a, c in registers["counter_log"].items()},
        "recovery_pending": registers["recovery_pending"],
    }


def registers_from_dict(d: dict) -> dict:
    """Inverse of :func:`registers_to_dict`."""
    return {
        "root_new": bytes.fromhex(d["root_new"]),
        "root_old": bytes.fromhex(d["root_old"]),
        "nwb": int(d["nwb"]),
        "counter_log": {int(a): int(c) for a, c in d["counter_log"].items()},
        "recovery_pending": bool(d["recovery_pending"]),
    }


class PersistTraceRecorder:
    """Attaches to one scheme and records its persist stream.

    Usage::

        recorder = PersistTraceRecorder(scheme)
        recorder.attach()
        ... run a workload, calling recorder.annotate(addr, plaintext)
            after each intended data write ...
        trace = recorder.detach()
    """

    def __init__(self, scheme, seed: int = 0) -> None:
        self.scheme = scheme
        self.seed = seed
        self._seq = 0
        self._units: list[TraceUnit] = []
        self._combined_depth = 0
        self._open_group: list[PersistOp] | None = None
        self._open_batch: list[PersistOp] | None = None
        self._annotations: dict[int, bytes] = {}
        self._counters: dict[int, tuple[int, int]] = {}
        self._attached = False
        self._trace: PersistTrace | None = None

    # -- wiring ---------------------------------------------------------------

    def attach(self) -> None:
        """Install the trace hooks and snapshot the pre-workload state."""
        if self._attached:
            raise RuntimeError("recorder already attached")
        scheme = self.scheme
        self._trace = PersistTrace(
            scheme=scheme.name,
            seed=self.seed,
            initial_lines=scheme.nvm.snapshot(),
            initial_registers=scheme.tcb.registers_snapshot(),
        )
        scheme.wpq.trace_hook = self._on_wpq
        scheme.tcb.trace_hook = self._on_tcb
        self._attached = True

    def detach(self) -> PersistTrace:
        """Remove the hooks and return the finished trace."""
        if not self._attached:
            raise RuntimeError("recorder not attached")
        if self._combined_depth or self._open_group or self._open_batch:
            raise RuntimeError("detach inside an open group/batch")
        self.scheme.wpq.trace_hook = None
        self.scheme.tcb.trace_hook = None
        self._attached = False
        trace = self._trace
        trace.units = self._units
        trace.annotations = self._annotations
        trace.counters = self._counters
        return trace

    # -- workload annotation ----------------------------------------------------

    def annotate(self, addr: int, plaintext: bytes) -> None:
        """Tag the most recent data write to *addr* with its plaintext.

        Called by the recording workload right after each intended
        write-back; the oracle later derives, for any crash state, which
        plaintext the surviving write stream implies for every block.
        """
        for unit in reversed(self._units):
            for op in reversed(unit.ops):
                if op.kind == "write" and op.addr == addr:
                    self._annotations[op.seq] = bytes(plaintext)
                    self._counters[op.seq] = self._counter_pair(addr)
                    return
        raise ValueError(f"no recorded write to {addr:#x} to annotate")

    def _counter_pair(self, addr: int) -> tuple[int, int]:
        """The (major, minor) the write-back to *addr* just encrypted under.

        Right after a write-back the bumped counter line is either still
        resident in the meta cache or — if an eviction pushed it out in
        the same write-back's tree propagation — already drained to NVM
        and therefore in the recorded stream; both copies carry the
        post-bump pair the encryption engine used.
        """
        from repro.metadata.counters import CounterLine

        scheme = self.scheme
        counter_addr = scheme.layout.counter_line_addr(addr)
        slot = scheme.layout.block_slot(addr)
        meta = getattr(scheme, "meta", None)
        if meta is not None:
            line = meta.probe(counter_addr)
            if line is not None and isinstance(line.data, CounterLine):
                return line.data.counter_pair(slot)
        for unit in reversed(self._units):
            for op in reversed(unit.ops):
                if op.kind != "tcb" and op.addr == counter_addr:
                    return CounterLine.decode(op.data).counter_pair(slot)
        return CounterLine.decode(
            scheme.nvm.virgin(counter_addr)
        ).counter_pair(slot)

    # -- hook plumbing -----------------------------------------------------------

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _emit_unit(self, kind: str, ops: list[PersistOp]) -> None:
        self._units.append(TraceUnit(len(self._units), kind, tuple(ops)))

    def _emit_op(self, op: PersistOp) -> None:
        if self._open_group is not None:
            self._open_group.append(op)
        else:
            self._emit_unit("group" if op.kind != "tcb" else "tcb", [op])

    def _on_wpq(self, kind: str, addr: int | None, data: bytes | None) -> None:
        owner = type(self.scheme.wpq).__name__
        if kind == "begin_combined":
            self._combined_depth += 1
            if self._combined_depth == 1:
                self._open_group = []
            return
        if kind == "end_combined":
            if self._combined_depth <= 0:
                raise RuntimeError("end_combined without begin_combined")
            self._combined_depth -= 1
            if self._combined_depth == 0:
                ops, self._open_group = self._open_group, None
                if ops:
                    self._emit_unit("group", ops)
            return
        if kind in ("write", "write_partial"):
            # The store already merged into the device: peek the full
            # post-write line so replay is assignment, never a re-merge.
            line = self.scheme.nvm.peek(addr)
            self._emit_op(PersistOp(self._next_seq(), kind, owner, addr, line))
            return
        if kind == "begin_atomic":
            if self._open_group is not None:
                raise RuntimeError("atomic batch inside a combined group")
            self._open_batch = []
            return
        if kind == "write_atomic":
            self._open_batch.append(
                PersistOp(self._next_seq(), "write_atomic", owner, addr, data)
            )
            return
        if kind == "commit_atomic":
            ops, self._open_batch = self._open_batch, None
            self._emit_unit("batch", ops)
            return
        if kind == "power_failure":
            # An uncommitted batch dies with the power; recording
            # workloads do not crash, but keep the semantics honest.
            self._open_batch = None
            return
        raise ValueError(f"unknown WPQ trace kind {kind!r}")

    def _on_tcb(self, mutator: str, addr: int | None) -> None:
        tcb = self.scheme.tcb
        data = tcb.root_new if mutator in _ROOT_MUTATORS else None
        op = PersistOp(
            self._next_seq(), "tcb", type(tcb).__name__, addr, data, mutator
        )
        self._emit_op(op)


class PowerFailure(Exception):
    """Power lost during recovery, after *persists* of its durable ops.

    Raised by a :class:`RecoveryRecorder` armed with ``crash_after``;
    the caller must ``crash()`` the scheme before touching it again.
    """

    def __init__(self, persists: int) -> None:
        super().__init__(f"power failure after {persists} recovery persist(s)")
        self.persists = persists


class RecoveryRecorder:
    """Records one recovery run's persist stream, optionally crashing it.

    Usage::

        with RecoveryRecorder(scheme) as recorder:
            scheme.recover()
        recorder.ops  # pokes and TCB register ops, in durable order

    With *crash_after* the recorder raises :class:`PowerFailure` the
    moment that many ops are durable, so the live machine is left in
    the image the op list's prefix of that length describes.
    """

    def __init__(self, scheme, crash_after: int | None = None) -> None:
        if crash_after is not None and crash_after < 1:
            raise ValueError("a recovery crash lands after at least one persist")
        self.scheme = scheme
        self.crash_after = crash_after
        self.ops: list[PersistOp] = []

    def __enter__(self) -> "RecoveryRecorder":
        self.scheme.nvm.trace_hook = self._on_poke
        self.scheme.tcb.trace_hook = self._on_tcb
        return self

    def __exit__(self, *exc) -> None:
        self.scheme.nvm.trace_hook = None
        self.scheme.tcb.trace_hook = None

    def _emit(self, op: PersistOp) -> None:
        self.ops.append(op)
        if len(self.ops) == self.crash_after:
            raise PowerFailure(len(self.ops))

    def _on_poke(self, addr: int, data: bytes) -> None:
        owner = type(self.scheme.nvm).__name__
        self._emit(PersistOp(len(self.ops), "poke", owner, addr, data))

    def _on_tcb(self, mutator: str, addr: int | None) -> None:
        tcb = self.scheme.tcb
        data = tcb.root_new if mutator in _ROOT_MUTATORS else None
        self._emit(
            PersistOp(len(self.ops), "tcb", type(tcb).__name__, addr, data, mutator)
        )
