"""The on-chip memory hierarchy in front of a secure-NVM scheme.

Wires the private L1 and shared L2 (both write-back, write-allocate, LRU)
to one :class:`~repro.core.schemes.base.SecureNVMScheme`.  The hierarchy
is functional *and* timed:

* every cache line carries real data bytes, so a value stored through the
  hierarchy round-trips through encryption, write-back, NVM residency and
  authenticated decryption — the integration tests check exact bytes;
* every access reports its latency; dirty L2 victims go through the
  scheme's :meth:`writeback`, whose *blocking* portion (the per-design
  cost the paper's Figure 5(a) measures) is charged to the access that
  caused the eviction.

Stores are modeled as non-blocking (a store buffer hides allocation
latency) except for the blocking write-back work their evictions cause —
which is long enough (hundreds of cycles for the chain-to-root designs)
to overflow any real store buffer, exactly the effect the paper reports.
"""

from __future__ import annotations

from repro.common.address import line_align
from repro.common.config import SystemConfig
from repro.common.constants import CACHE_LINE_SIZE
from repro.common.stats import StatGroup
from repro.core.schemes.base import SecureNVMScheme
from repro.mem.cache import Cache


class MemoryHierarchy:
    """L1 + L2 caches over one secure-NVM scheme."""

    def __init__(
        self,
        config: SystemConfig,
        scheme: SecureNVMScheme,
        stats: StatGroup | None = None,
    ) -> None:
        self.config = config
        self.scheme = scheme
        self._stats = stats if stats is not None else StatGroup("hierarchy")
        self.l1 = Cache(config.l1, self._stats.group("l1"))
        self.l2 = Cache(config.l2, self._stats.group("l2"))
        self._store_seq = 0
        self._demand_misses = self._stats.counter("demand_misses")
        self._writebacks = self._stats.counter("llc_writebacks")

    # -- payload fabrication ---------------------------------------------------------

    def _payload(self, addr: int) -> bytes:
        """Deterministic store payload for trace-driven runs.

        Traces carry no data values; fabricating a unique, recognizable
        payload per store keeps the functional pipeline honest (a stale
        or mis-decrypted line can never masquerade as the right one).
        """
        self._store_seq += 1
        return (
            addr.to_bytes(8, "little")
            + self._store_seq.to_bytes(8, "little")
        ).ljust(CACHE_LINE_SIZE, b"\x5c")

    # -- eviction plumbing -------------------------------------------------------------

    def _writeback_victim(self, now: int, addr: int, data: bytes) -> int:
        self._writebacks.value += 1
        blocking = self.scheme.writeback(now, addr, data)
        # The write-back buffer hides part of the eviction's blocking work
        # from the demand access that triggered it — except the portion
        # the scheme marks as unhideable (epoch drains own the WPQ).
        hard = min(blocking, self.scheme.writeback_hard_cycles)
        soft = blocking - hard
        return hard + int(soft * (1.0 - self.config.cpu.writeback_overlap))

    def _fill_l2(self, now: int, addr: int, data: bytes, dirty: bool) -> int:
        """Install a line in L2; returns blocking cycles from evictions."""
        victim = self.l2.fill(addr, data, dirty)
        if victim is not None and victim.dirty:
            return self._writeback_victim(now, victim.addr, bytes(victim.data))
        return 0

    def _fill_l1(self, now: int, addr: int, data: bytes, dirty: bool) -> int:
        """Install a line in L1; dirty victims cascade into L2."""
        victim = self.l1.fill(addr, data, dirty)
        if victim is not None and victim.dirty:
            return self._fill_l2(now, victim.addr, bytes(victim.data), True)
        return 0

    # -- the CPU-facing interface ---------------------------------------------------------

    def read(self, now: int, addr: int) -> tuple[bytes, int, str]:
        """Load one line; returns (data, latency cycles, serving level)."""
        addr = line_align(addr)
        t = now + self.config.l1.hit_latency
        line = self.l1.access(addr)
        if line is not None:
            return bytes(line.data), t - now, "l1"

        t += self.config.l2.hit_latency
        line = self.l2.access(addr)
        if line is not None:
            data = bytes(line.data)
            t += self._fill_l1(t, addr, data, dirty=False)
            return data, t - now, "l2"

        self._demand_misses.value += 1
        data, done = self.scheme.read(t, addr)
        t = done
        t += self._fill_l2(t, addr, data, dirty=False)
        t += self._fill_l1(t, addr, data, dirty=False)
        return data, t - now, "mem"

    def write(self, now: int, addr: int, data: bytes | None = None) -> tuple[int, str]:
        """Store one line; returns (blocking cycles, serving level).

        Write-allocate with fetch-on-write-miss; the fetch itself is
        hidden by the store buffer, so only eviction-induced blocking and
        the L1 access are charged to the core.
        """
        addr = line_align(addr)
        if data is None:
            data = self._payload(addr)
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError("stores write whole cache lines in this model")

        blocking = self.config.l1.hit_latency
        line = self.l1.access(addr)
        if line is not None:
            line.data = data
            line.dirty = True
            return blocking, "l1"

        line = self.l2.access(addr)
        if line is not None:
            blocking += self._fill_l1(now + blocking, addr, data, dirty=True)
            return blocking, "l2"

        self._demand_misses.value += 1
        # Fetch-on-write-miss: consumes memory bandwidth but the store
        # buffer hides its latency from the core.
        self.scheme.read(now + blocking, addr)
        blocking += self._fill_l2(now + blocking, addr, data, dirty=False)
        blocking += self._fill_l1(now + blocking, addr, data, dirty=True)
        return blocking, "mem"

    def persist_line(self, now: int, addr: int) -> int:
        """Write one dirty line back to NVM without evicting it (clwb).

        The line stays cached (clean); returns the blocking cycles.  This
        is the primitive persistent-memory software builds durability
        points from.
        """
        addr = line_align(addr)
        line = self.l1.probe(addr)
        if line is not None and line.dirty:
            data = bytes(line.data)
            line.dirty = False
            l2_line = self.l2.probe(addr)
            if l2_line is not None:
                l2_line.data = data
                l2_line.dirty = False
            return self._writeback_victim(now, addr, data)
        line = self.l2.probe(addr)
        if line is not None and line.dirty:
            data = bytes(line.data)
            line.dirty = False
            return self._writeback_victim(now, addr, data)
        return 0

    # -- lifecycle ----------------------------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty line back and commit the scheme's state."""
        now = self.scheme.busy_until
        for line in list(self.l1.dirty_lines()):
            self._fill_l2(now, line.addr, bytes(line.data), True)
            self.l1.clean(line.addr)
        for line in list(self.l2.dirty_lines()):
            self._writeback_victim(now, line.addr, bytes(line.data))
            self.l2.clean(line.addr)
        self.scheme.flush()

    def crash(self) -> None:
        """Power failure: all cache contents vanish, the scheme crashes."""
        self.l1.drop_all()
        self.l2.drop_all()
        self.scheme.crash()

    @property
    def stats(self) -> StatGroup:
        """Cache-hierarchy statistics."""
        return self._stats
