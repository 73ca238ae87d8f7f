"""Record the LLC stream of a trace once; replay it to every design.

The designs differ only below the last-level cache.  The L1 and L2 are
LRU over program order, a trace's stores carry deterministic payloads
(:meth:`MemoryHierarchy._payload`), and a correct design returns on
every fill the plaintext last written back to that line.  So which
references miss, which dirty victims leave the LLC, in what order and
with what bytes, does not depend on the design at all — only the cycles
each design charges for them do.

:func:`record_stream` therefore drives the ordinary
:class:`~repro.sim.system.MemoryHierarchy` once over a plain functional
line store (never-written lines read as zeros) and keeps, per trace
record, the level that served it and the ordered events the scheme
saw: each demand or fetch-on-write read with the plaintext returned,
and each dirty-victim write-back with its bytes.  The shutdown flush's
write-backs are a separate segment, so a run can be measured up to the
end of the trace and the flush kept apart.

:class:`ReplayHierarchy` offers the hierarchy's ``read``/``write``/
``flush``/``stats`` interface to :class:`~repro.sim.cpu.TraceCPU` and
feeds the recorded events to one design with the hierarchy's exact
cycle arithmetic: L1/L2 hit latencies, each event issued at the running
time, the ``writeback_hard_cycles``/``writeback_overlap`` split, and the
flush issued at the scheme's ``busy_until``.  Every read the design
answers is compared with the recorded plaintext, which makes each
replay a functional check of the design against the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CacheConfig, SystemConfig
from repro.common.constants import CACHE_LINE_SIZE
from repro.common.stats import StatGroup
from repro.core.schemes.base import SecureNVMScheme
from repro.sim.system import MemoryHierarchy
from repro.sim.trace import READ, WRITE, Trace

_ZERO_LINE = bytes(CACHE_LINE_SIZE)


class ReplayMismatch(RuntimeError):
    """A design's read returned a plaintext other than the recorded one."""


@dataclass(frozen=True)
class LLCStream:
    """What the LLC sent to memory for one trace under one L1/L2 geometry.

    ``steps`` holds one ``(op, addr, level, data, events)`` tuple per
    trace record: the record's op and address, the serving level, the
    loaded line for a read (``None`` for a store) and a tuple of
    ``(is_read, line address, bytes)`` events in issue order.  ``flush``
    holds the shutdown flush's ``(line address, bytes)`` write-backs.
    """

    l1: CacheConfig
    l2: CacheConfig
    steps: tuple
    flush: tuple


class _LineStore:
    """A functional memory below the LLC that logs what it is asked."""

    busy_until = 0
    writeback_hard_cycles = 0

    def __init__(self) -> None:
        self.lines: dict[int, bytes] = {}
        self.events: list[tuple[bool, int, bytes]] = []

    def read(self, now: int, addr: int) -> tuple[bytes, int]:
        data = self.lines.get(addr, _ZERO_LINE)
        self.events.append((True, addr, data))
        return data, now

    def writeback(self, now: int, addr: int, plaintext: bytes) -> int:
        self.lines[addr] = plaintext
        self.events.append((False, addr, plaintext))
        return 0

    def flush(self) -> None:
        pass


def record_stream(trace: Trace, config: SystemConfig) -> LLCStream:
    """Run *trace* through the L1/L2 of *config* once and record its stream."""
    store = _LineStore()
    hierarchy = MemoryHierarchy(config, store)
    steps = []
    for record in trace:
        if record.op == READ:
            data, _, level = hierarchy.read(0, record.addr)
        else:
            data = None
            _, level = hierarchy.write(0, record.addr)
        steps.append((record.op, record.addr, level, data, tuple(store.events)))
        store.events.clear()
    hierarchy.flush()
    flush = tuple((addr, data) for _, addr, data in store.events)
    return LLCStream(config.l1, config.l2, tuple(steps), flush)


class ReplayHierarchy:
    """The cache hierarchy's CPU-facing interface, served from a stream.

    Its :attr:`stats` carry the hierarchy's own counters
    (``demand_misses``, ``llc_writebacks``); per-cache hit and eviction
    counts belong to the recording.
    """

    def __init__(self, config: SystemConfig, scheme: SecureNVMScheme, stream: LLCStream) -> None:
        if (config.l1, config.l2) != (stream.l1, stream.l2):
            raise ValueError("the stream was recorded under another L1/L2 geometry")
        self.scheme = scheme
        self._stream = stream
        self._cursor = 0
        self._l1_latency = config.l1.hit_latency
        self._l2_latency = config.l2.hit_latency
        self._exposed = 1.0 - config.cpu.writeback_overlap
        self._stats = StatGroup("hierarchy")
        self._demand_misses = self._stats.counter("demand_misses")
        self._writebacks = self._stats.counter("llc_writebacks")

    @property
    def stats(self) -> StatGroup:
        """Hierarchy statistics of this replay."""
        return self._stats

    def _step(self, op: str, addr: int) -> tuple:
        index = self._cursor
        steps = self._stream.steps
        step = steps[index] if index < len(steps) else (None, None)
        if step[0] != op or step[1] != addr:
            raise ValueError(
                f"record {index}: {op} {addr:#x} is not the recorded reference"
            )
        self._cursor = index + 1
        return step

    def _replay(self, t: int, events: tuple, read_sets_time: bool) -> int:
        """Issue *events* to the scheme from time *t*; returns the new time.

        A demand read's completion becomes the running time; a
        fetch-on-write read is hidden by the store buffer and does not
        move it.  Each write-back is charged as the hierarchy charges it.
        """
        scheme = self.scheme
        for is_read, addr, data in events:
            if is_read:
                got, done = scheme.read(t, addr)
                if got != data:
                    raise ReplayMismatch(
                        f"{scheme.name} returned a plaintext other than the "
                        f"recorded one for line {addr:#x}"
                    )
                if read_sets_time:
                    t = done
            else:
                self._writebacks.inc()
                blocking = scheme.writeback(t, addr, data)
                hard = min(blocking, scheme.writeback_hard_cycles)
                t += hard + int((blocking - hard) * self._exposed)
        return t

    def read(self, now: int, addr: int) -> tuple[bytes, int, str]:
        """Load one line; returns (data, latency cycles, serving level)."""
        _, _, level, data, events = self._step(READ, addr)
        t = now + self._l1_latency
        if level == "l1":
            return data, t - now, level
        t += self._l2_latency
        if level == "mem":
            self._demand_misses.inc()
        return data, self._replay(t, events, True) - now, level

    def write(self, now: int, addr: int) -> tuple[int, str]:
        """Store one line's recorded payload; returns (blocking cycles, level)."""
        _, _, level, _, events = self._step(WRITE, addr)
        t = now + self._l1_latency
        if level == "mem":
            self._demand_misses.inc()
        return self._replay(t, events, False) - now, level

    def flush(self) -> None:
        """Write back the recorded dirty lines and commit the scheme's state."""
        if self._cursor != len(self._stream.steps):
            raise ValueError("flush before the recorded run reached its end")
        now = self.scheme.busy_until
        for addr, data in self._stream.flush:
            self._writebacks.inc()
            self.scheme.writeback(now, addr, data)
        self.scheme.flush()
