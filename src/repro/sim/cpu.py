"""Trace-driven CPU timing model.

Replaces the paper's gem5 out-of-order x86 core with the standard
trace-driven abstraction: instructions between memory references retire
at ``peak_ipc``; loads stall the core for their latency minus an
out-of-order overlap credit (``mlp_overlap`` — the fraction a real OoO
window would hide); stores retire through a store buffer and only stall
for the blocking work their cache fills and evictions cause (which is
exactly where the secure-NVM designs differ).

Absolute IPC from a model this simple is not meaningful — which is why
the paper's figures, and this reproduction's, normalize every design to
the w/o-CC baseline run on the *same* trace with the *same* core model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.sim.stream import ReplayHierarchy
from repro.sim.system import MemoryHierarchy
from repro.sim.trace import READ, Trace


@dataclass(frozen=True)
class CpuResult:
    """Outcome of one trace execution."""

    instructions: int
    cycles: int
    reads: int
    writes: int
    read_stall_cycles: int
    write_stall_cycles: int

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


class TraceCPU:
    """Executes a trace against a memory hierarchy."""

    def __init__(
        self,
        config: SystemConfig,
        memory: MemoryHierarchy | ReplayHierarchy,
        stats: StatGroup | None = None,
    ) -> None:
        self.config = config
        self.memory = memory
        self._stats = stats if stats is not None else StatGroup("cpu")
        self._level_hits = self._stats.group("served_by")
        #: Monotonic core clock, persistent across :meth:`run` calls so a
        #: warm-up region and the measured region share one timeline with
        #: the memory system's internal clocks.
        self.clock = 0.0

    @property
    def stats(self) -> StatGroup:
        """Execution statistics."""
        return self._stats

    def run(self, trace: Trace) -> CpuResult:
        """Execute *trace* to completion; returns timing totals."""
        peak_ipc = self.config.cpu.peak_ipc
        overlap = self.config.cpu.mlp_overlap
        start_clock = self.clock
        instructions = 0
        reads = writes = 0
        read_stalls = write_stalls = 0
        level_hits = self._level_hits
        # Each level's counter, created on first use by level_hits.counter.
        level_counters = level_hits.counters

        for record in trace:
            instructions += record.icount + 1
            self.clock += record.icount / peak_ipc
            now = int(self.clock)
            if record.op == READ:
                reads += 1
                _, latency, level = self.memory.read(now, record.addr)
                if level == "l1":
                    stall = latency
                else:
                    # The OoO window hides part of a longer-latency load.
                    stall = int(latency * (1.0 - overlap))
                read_stalls += stall
            else:
                writes += 1
                stall, level = self.memory.write(now, record.addr)
                write_stalls += stall
            counter = level_counters.get(level) or level_hits.counter(level)
            counter.value += 1
            self.clock += stall

        cycles = max(1, int(self.clock - start_clock))
        return CpuResult(
            instructions=instructions,
            cycles=cycles,
            reads=reads,
            writes=writes,
            read_stall_cycles=read_stalls,
            write_stall_cycles=write_stalls,
        )
