"""Sparse line-addressed NVM device model.

The device stores 64 B lines in a dict keyed by line-aligned address, so a
16 GB address space costs only what the workload touches.  Never-written
lines read through the pluggable *initializer* — the format-time genesis
image (:mod:`repro.metadata.genesis`) — or as zeros without one.

Besides storage the device keeps the write/read traffic statistics that
Figure 5(b) is built from, classified per region (data, counter,
data-HMAC, Merkle) via the :class:`~repro.metadata.layout.MemoryLayout`.
Endurance-oriented per-line write counts are also tracked; they power the
wear-related assertions in the test suite (write amplification directly
attacks NVM lifetime, the motivation of Section 5.2).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.persistence import persistence
from repro.common.stats import Counter, StatGroup
from repro.metadata.layout import REGIONS, MemoryLayout

_ZERO_LINE = bytes(CACHE_LINE_SIZE)
_LINE_OFFSET_MASK = CACHE_LINE_SIZE - 1


class TransientReadFault(Exception):
    """One device read returned an ECC-detected media fault.

    Raised by :meth:`NVMDevice.read_line` when an armed media-fault model
    (:mod:`repro.faults.media`) schedules a fault for this read.  The
    memory controller absorbs these with bounded retry-with-backoff; the
    device itself never retries.
    """

    def __init__(self, addr: int) -> None:
        super().__init__(f"ECC-detected read fault at NVM line {addr:#x}")
        self.addr = addr


class PermanentMediaError(Exception):
    """A line failed every retry the controller's budget allows.

    Carries enough context (address, region, attempts) for callers to
    degrade gracefully with a located report instead of crashing.
    """

    def __init__(self, addr: int, region: str, attempts: int) -> None:
        super().__init__(
            f"NVM line {addr:#x} ({region} region) still faulty after "
            f"{attempts} read attempts: media failure"
        )
        self.addr = addr
        self.region = region
        self.attempts = attempts


@persistence(
    persistent=("_lines", "_write_counts"),
)
class NVMDevice:
    """The persistent, *untrusted* memory device.

    Everything stored here is visible to — and modifiable by — the
    attacker in the threat model; the attack-injection helpers in
    :mod:`repro.core.attacks` operate directly on this object.
    """

    def __init__(
        self,
        layout: MemoryLayout,
        stats: StatGroup | None = None,
        initializer=None,
    ) -> None:
        self.layout = layout
        self._capacity = layout.total_capacity
        self._lines: dict[int, bytes] = {}
        self._write_counts: dict[int, int] = {}
        #: Optional ``addr -> bytes`` callable providing the contents of
        #: never-written lines (the format-time genesis image).  ``None``
        #: falls back to all-zero lines.
        self._initializer = initializer
        #: Optional media-fault model (see :mod:`repro.faults.media`).
        #: Consulted on every :meth:`read_line`; ``None`` means a
        #: fault-free device.
        self._media = None
        #: Optional persist-trace callback (see :mod:`repro.crashsim`):
        #: called with ``(addr, data)`` after every :meth:`poke`, so a
        #: recorder sees recovery's durable writes in order.
        self.trace_hook = None
        self._stats = stats if stats is not None else StatGroup("nvm")
        self._reads = self._stats.group("reads")
        self._writes = self._stats.group("writes")
        # Per-region counters by ``REGIONS`` index, each bound on first
        # use so the stats tree keeps listing regions in first-use order.
        self._region_reads: list[Counter | None] = [None] * len(REGIONS)
        self._region_writes: list[Counter | None] = [None] * len(REGIONS)
        self._read_total = self._stats.counter("read_total", "total line reads")
        self._write_total = self._stats.counter("write_total", "total line writes")

    @property
    def stats(self) -> StatGroup:
        """Traffic statistics for this device."""
        return self._stats

    def _check(self, addr: int) -> None:
        if addr & _LINE_OFFSET_MASK:
            raise ValueError(f"NVM access not line-aligned: {addr:#x}")
        if not 0 <= addr < self._capacity:
            raise ValueError(f"NVM address out of range: {addr:#x}")

    # -- the memory-controller interface -------------------------------------

    def _virgin(self, addr: int) -> bytes:
        return self._initializer(addr) if self._initializer is not None else _ZERO_LINE

    def set_media_model(self, media) -> None:
        """Install (or with ``None`` remove) a media-fault model.

        The model's ``on_read(addr)`` is consulted on every
        :meth:`read_line` and returns ``None`` (healthy), ``"detectable"``
        (ECC catches the fault — the read raises
        :class:`TransientReadFault`) or ``"silent"`` (the corrupted line is
        delivered; only the HMAC layer can notice).
        """
        self._media = media

    def _region_counter(self, bound: list, group: StatGroup, addr: int) -> Counter:
        region = bisect_right(self.layout.region_bounds, addr)
        counter = bound[region]
        if counter is None:
            counter = bound[region] = group.counter(REGIONS[region])
        return counter

    def read_line(self, addr: int) -> bytes:
        """Read one 64 B line (the genesis image if never written).

        Raises :class:`TransientReadFault` when the armed media model
        schedules an ECC-detected fault for this read; silently corrupted
        lines (faults ECC misses) are returned as-is and left for the
        integrity layer to catch.
        """
        self._check(addr)
        self._read_total.inc()
        self._region_counter(self._region_reads, self._reads, addr).inc()
        line = self._lines.get(addr)
        if line is None:
            line = self._virgin(addr)
        if self._media is not None:
            action = self._media.on_read(addr)
            if action == "detectable":
                raise TransientReadFault(addr)
            if action == "silent":
                return self._media.corrupt(addr, line)
        return line

    def write_line(self, addr: int, data: bytes) -> None:
        """Write one 64 B line."""
        self._check(addr)
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError("NVM writes are whole lines")
        self._write_total.inc()
        self._region_counter(self._region_writes, self._writes, addr).inc()
        self._lines[addr] = bytes(data)
        self._write_counts[addr] = self._write_counts.get(addr, 0) + 1

    def write_partial(self, addr: int, offset: int, data: bytes) -> None:
        """Merge *data* into a line at byte *offset* (one line write).

        Models the controller's write-combining of sub-line metadata such
        as 128-bit data HMACs; it costs one device write like any other.
        """
        self._check(addr)
        if offset < 0 or offset + len(data) > CACHE_LINE_SIZE:
            raise ValueError("partial write exceeds the line")
        old = self.peek(addr)
        merged = old[:offset] + bytes(data) + old[offset + len(data):]
        self.write_line(addr, merged)

    # -- attacker / debugging back-door (no traffic accounting) ---------------

    def peek(self, addr: int) -> bytes:
        """Read a line without traffic accounting (attacker / test access)."""
        self._check(addr)
        line = self._lines.get(addr)
        return line if line is not None else self._virgin(addr)

    def virgin(self, addr: int) -> bytes:
        """The line's genesis (format-time) value, regardless of writes."""
        self._check(addr)
        return self._virgin(addr)

    def is_touched(self, addr: int) -> bool:
        """True once the line has been written (departed the genesis image)."""
        self._check(addr)
        return addr in self._lines

    def poke(self, addr: int, data: bytes) -> None:
        """Write a line without traffic accounting (recovery, attacker, tests)."""
        self._check(addr)
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError("NVM lines are 64 B")
        self._lines[addr] = bytes(data)
        if self.trace_hook is not None:
            self.trace_hook(addr, self._lines[addr])

    # -- introspection ---------------------------------------------------------

    def write_count(self, addr: int) -> int:
        """Number of device writes absorbed by the line at *addr*."""
        self._check(addr)
        return self._write_counts.get(addr, 0)

    @property
    def total_writes(self) -> int:
        """Total line writes absorbed by the device."""
        return self._write_total.value

    @property
    def total_reads(self) -> int:
        """Total line reads served by the device."""
        return self._read_total.value

    def writes_by_region(self) -> dict[str, int]:
        """Line writes per region name."""
        return {name: c.value for name, c in self._writes.counters.items()}

    def reads_by_region(self) -> dict[str, int]:
        """Line reads per region name."""
        return {name: c.value for name, c in self._reads.counters.items()}

    def touched_lines(self) -> list[int]:
        """Addresses of every line ever written (sorted)."""
        return sorted(self._lines)

    def snapshot(self) -> dict[int, bytes]:
        """Copy of the stored image (used by crash injection)."""
        return dict(self._lines)

    def restore(self, image: dict[int, bytes]) -> None:
        """Replace the stored image (crash-recovery rewind); stats are kept."""
        self._lines = dict(image)
