"""Memory-reference traces.

A trace is the stream of loads and stores a program issues, with the
amount of non-memory work between them: each :class:`TraceRecord` carries
the operation, the (byte) address, and ``icount`` — how many instructions
retire between the previous memory reference and this one.  This is the
standard trace-driven substitute for the paper's gem5 execution of SPEC
CPU2006 regions: cache hits/misses, write-back streams and security
metadata behaviour all derive from the reference stream, while ``icount``
sets the compute/memory balance that turns stall cycles into IPC deltas.

Traces are plain Python sequences so generators can build them lazily;
:class:`Trace` adds naming, counting and a simple text serialization used
by the example scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

READ = "R"
WRITE = "W"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory reference."""

    op: str
    addr: int
    icount: int

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise ValueError(f"unknown op {self.op!r}")
        if self.addr < 0:
            raise ValueError("negative address")
        if self.icount < 0:
            raise ValueError("negative instruction count")


class Trace:
    """A named sequence of memory references."""

    def __init__(self, name: str, records: Iterable[TraceRecord]) -> None:
        self.name = name
        self.records: list[TraceRecord] = list(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    @property
    def instructions(self) -> int:
        """Total instructions the trace represents (memory ops included)."""
        return sum(r.icount for r in self.records) + len(self.records)

    @property
    def write_fraction(self) -> float:
        """Fraction of references that are stores."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.op == WRITE) / len(self.records)

    def footprint(self) -> int:
        """Number of distinct cache lines touched."""
        return len({r.addr >> 6 for r in self.records})

    # -- text serialization ----------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the trace as ``op addr icount`` lines."""
        with open(path, "w") as f:
            f.write(f"# trace {self.name}\n")
            for r in self.records:
                f.write(f"{r.op} {r.addr:#x} {r.icount}\n")

    @classmethod
    def load(cls, path: str, name: str | None = None) -> "Trace":
        """Parse a trace written by :meth:`dump`."""
        records = []
        trace_name = name or path
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith("# trace ") and name is None:
                        trace_name = line[len("# trace "):]
                    continue
                op, addr, icount = line.split()
                records.append(TraceRecord(op, int(addr, 0), int(icount)))
        return cls(trace_name, records)
