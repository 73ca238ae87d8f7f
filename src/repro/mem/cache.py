"""Set-associative write-back caches with LRU replacement.

One implementation serves the L1, the L2/LLC and the security meta cache;
per-role concerns (verified bits, per-line update counts for the epoch
trigger) live on :class:`CacheLine` fields the respective owner maintains.

Lines may carry an arbitrary payload — raw bytes in the data caches,
decoded :class:`~repro.metadata.counters.CounterLine` objects or tree-node
byte arrays in the meta cache, or ``None`` for pure timing studies.  Replacement
decisions are the caller's to act on: :meth:`Cache.fill` returns the
evicted victim so the owner can route the write-back through whatever
path the active scheme mandates — this is exactly the hook the secure-NVM
designs differ on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator

from repro.common.config import CacheConfig
from repro.common.constants import CACHE_LINE_BITS, CACHE_LINE_SIZE
from repro.common.stats import StatGroup

_LINE_OFFSET_MASK = CACHE_LINE_SIZE - 1


class CacheLine:
    """One resident cache line and its bookkeeping bits."""

    __slots__ = ("addr", "data", "dirty", "verified", "update_count")

    def __init__(self, addr: int, data: object | None, dirty: bool) -> None:
        self.addr = addr
        self.data = data
        self.dirty = dirty
        #: Meta-cache only: the line's contents were authenticated against
        #: the Merkle tree (or written by the TCB itself) and are trusted.
        self.verified = False
        #: Meta-cache only: updates since the line last became dirty
        #: (drives epoch-trigger condition 3, Section 4.2).
        self.update_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            c for c, on in (("D", self.dirty), ("V", self.verified)) if on
        )
        return f"CacheLine({self.addr:#x}{' ' + flags if flags else ''})"


class Cache:
    """A single-level set-associative cache."""

    def __init__(self, config: CacheConfig, stats: StatGroup | None = None) -> None:
        self.config = config
        self._sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        # Geometry read on every access, fixed at construction (the set
        # count is a power of two, so masking equals the modulo).
        self._set_mask = config.num_sets - 1
        self._hashed_sets = config.hashed_sets
        self._ways = config.associativity
        self._stats = stats if stats is not None else StatGroup(config.name)
        self._hits = self._stats.counter("hits")
        self._misses = self._stats.counter("misses")
        self._evictions = self._stats.counter("evictions")
        self._dirty_evictions = self._stats.counter("dirty_evictions")

    @property
    def stats(self) -> StatGroup:
        """Hit/miss/eviction statistics."""
        return self._stats

    def _set_of(self, addr: int) -> OrderedDict[int, CacheLine]:
        # probe, access and fill inline this: they run on every reference.
        if addr & _LINE_OFFSET_MASK:
            raise ValueError(f"cache access not line-aligned: {addr:#x}")
        index = addr >> CACHE_LINE_BITS
        if self._hashed_sets:
            index ^= (index >> 8) ^ (index >> 16) ^ (index >> 24)
        return self._sets[index & self._set_mask]

    # -- lookups ---------------------------------------------------------------

    def probe(self, addr: int) -> CacheLine | None:
        """Presence check without touching LRU state or statistics."""
        if addr & _LINE_OFFSET_MASK:
            raise ValueError(f"cache access not line-aligned: {addr:#x}")
        index = addr >> CACHE_LINE_BITS
        if self._hashed_sets:
            index ^= (index >> 8) ^ (index >> 16) ^ (index >> 24)
        return self._sets[index & self._set_mask].get(addr)

    def access(self, addr: int) -> CacheLine | None:
        """LRU-updating lookup; counts a hit or a miss."""
        if addr & _LINE_OFFSET_MASK:
            raise ValueError(f"cache access not line-aligned: {addr:#x}")
        index = addr >> CACHE_LINE_BITS
        if self._hashed_sets:
            index ^= (index >> 8) ^ (index >> 16) ^ (index >> 24)
        cache_set = self._sets[index & self._set_mask]
        line = cache_set.get(addr)
        if line is None:
            self._misses.inc()
            return None
        cache_set.move_to_end(addr)
        self._hits.inc()
        return line

    # -- content management ------------------------------------------------------

    def fill(self, addr: int, data: object | None = None, dirty: bool = False) -> CacheLine | None:
        """Install a line, returning the evicted victim (if any).

        If the line is already resident its data/dirty state is updated in
        place and no eviction occurs.
        """
        if addr & _LINE_OFFSET_MASK:
            raise ValueError(f"cache access not line-aligned: {addr:#x}")
        index = addr >> CACHE_LINE_BITS
        if self._hashed_sets:
            index ^= (index >> 8) ^ (index >> 16) ^ (index >> 24)
        cache_set = self._sets[index & self._set_mask]
        line = cache_set.get(addr)
        if line is not None:
            if data is not None:
                line.data = data
            line.dirty = line.dirty or dirty
            cache_set.move_to_end(addr)
            return None
        victim = None
        if len(cache_set) >= self._ways:
            _, victim = cache_set.popitem(last=False)
            self._evictions.inc()
            if victim.dirty:
                self._dirty_evictions.inc()
        cache_set[addr] = CacheLine(addr, data, dirty)
        return victim

    def would_evict(self, addr: int) -> CacheLine | None:
        """The victim a :meth:`fill` of *addr* would evict, without evicting.

        Returns ``None`` when *addr* is already resident or its set has a
        free way.  Schemes use this to act on a dirty victim *before* the
        eviction happens (cc-NVM drains the epoch first — trigger 2).
        """
        cache_set = self._set_of(addr)
        if addr in cache_set or len(cache_set) < self._ways:
            return None
        return next(iter(cache_set.values()))

    def invalidate(self, addr: int) -> CacheLine | None:
        """Drop a line (returned to the caller, dirty or not)."""
        return self._set_of(addr).pop(addr, None)

    def clean(self, addr: int) -> None:
        """Clear the dirty bit of a resident line (post write-back)."""
        line = self.probe(addr)
        if line is not None:
            line.dirty = False
            line.update_count = 0

    def drop_all(self) -> None:
        """Invalidate the whole cache (models power loss of volatile SRAM)."""
        for cache_set in self._sets:
            cache_set.clear()

    # -- iteration ---------------------------------------------------------------

    def lines(self) -> Iterator[CacheLine]:
        """Iterate every resident line (unspecified order)."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def dirty_lines(self) -> Iterator[CacheLine]:
        """Iterate every dirty resident line."""
        for line in self.lines():
            if line.dirty:
                yield line

    def first_dirty(
        self, predicate: Callable[[CacheLine], bool], start_set: int = 0
    ) -> tuple[int, CacheLine] | None:
        """First dirty line matching *predicate*, in :meth:`lines` order.

        The scan starts at set *start_set*; the result carries the set
        index of the line found, so a caller can resume a scan there.
        """
        for index in range(start_set, len(self._sets)):
            for line in self._sets[index].values():
                if line.dirty and predicate(line):
                    return index, line
        return None

    @property
    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when no accesses yet)."""
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0
