"""The drainer's dirty address queue and epoch bookkeeping.

The drainer (Figure 2/3) tracks the NVM addresses of every metadata
cache line dirtied — or, with deferred spreading, *reserved* — during the
current epoch.  The queue holds at most M entries (bounded by the WPQ
depth, since the whole epoch must fit one atomic WPQ batch) and
deduplicates addresses: "we skip those dirty cachelines if their addresses
have already been put in the dirty address queue" (Section 4.2).

A drain (epoch commit) is triggered when (Section 4.2):

1. the queue is full, or cannot hold the metadata address set of the next
   evicted data block;
2. a dirty line of the meta cache is about to be evicted;
3. a metadata line has been updated more than N times since turning dirty
   (bounding the data-HMAC retries recovery needs — Section 4.4).

The model adds a fourth, ``overflow``, raised when a minor-counter
overflow re-keys a whole page: committing immediately keeps the recovery
retry sequence within a single major-counter generation.  ``flush`` marks
explicit software/shutdown commits.

The queue structure and trigger statistics live here; the drain *protocol*
(recompute, atomic WPQ batch, root commit) is orchestrated by the cc-NVM
scheme that owns this object.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import Enum

from repro.common.persistence import persistence
from repro.common.stats import StatGroup


class DrainTrigger(Enum):
    """Why an epoch was committed."""

    QUEUE_FULL = "queue_full"
    META_EVICTION = "meta_eviction"
    UPDATE_LIMIT = "update_limit"
    OVERFLOW = "overflow"
    FLUSH = "flush"


@persistence(
    volatile=("_queue", "_writebacks_this_epoch"),
)
class DirtyAddressQueue:
    """The drainer's bounded, deduplicating address queue."""

    def __init__(self, entries: int, stats: StatGroup | None = None) -> None:
        if entries <= 0:
            raise ValueError("dirty address queue needs at least one entry")
        self.entries = entries
        self._queue: OrderedDict[int, None] = OrderedDict()
        self._stats = stats if stats is not None else StatGroup("drainer")
        self._writebacks_this_epoch = 0
        self._drains = {
            trigger: self._stats.counter(f"drains_{trigger.value}")
            for trigger in DrainTrigger
        }
        self._epoch_writebacks = self._stats.distribution(
            "epoch_writebacks", "write-back events per committed epoch"
        )
        self._epoch_lines = self._stats.distribution(
            "epoch_lines", "metadata lines flushed per committed epoch"
        )
        self._reservations = self._stats.counter("reservations")

    @property
    def stats(self) -> StatGroup:
        """Trigger and epoch-length statistics."""
        return self._stats

    def __contains__(self, addr: int) -> bool:
        return addr in self._queue

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def free_entries(self) -> int:
        """Entries still available this epoch."""
        return self.entries - len(self._queue)

    def fits(self, addrs: list[int]) -> bool:
        """Can every address in *addrs* be reserved without overflowing?

        This is trigger condition 1's look-ahead: the queue "doesn't have
        enough entries to store the corresponding metadata addresses of
        the next evicted data block".
        """
        new = sum(1 for a in set(addrs) if a not in self._queue)
        return new <= self.free_entries

    def reserve(self, addrs: list[int]) -> None:
        """Append the new addresses among *addrs* (FIFO order kept)."""
        for addr in addrs:
            if addr not in self._queue:
                if len(self._queue) >= self.entries:
                    raise OverflowError("dirty address queue overflow")
                self._queue[addr] = None
                self._reservations.inc()

    def addresses(self) -> list[int]:
        """Queued addresses in reservation order."""
        return list(self._queue)

    # -- epoch accounting ----------------------------------------------------------

    def count_writeback(self) -> None:
        """Record one write-back event inside the current epoch."""
        self._writebacks_this_epoch += 1

    def commit(self, trigger: DrainTrigger) -> list[int]:
        """Close the epoch: record statistics, empty the queue.

        Returns the addresses that made up the epoch, in order.  The
        caller (the cc-NVM scheme) performs the actual recompute/flush
        around this call.
        """
        addrs = self.addresses()
        self._drains[trigger].inc()
        self._epoch_writebacks.sample(self._writebacks_this_epoch)
        self._epoch_lines.sample(len(addrs))
        self._queue.clear()
        self._writebacks_this_epoch = 0
        return addrs

    def drop(self) -> None:
        """Lose the queue contents without committing (power failure).

        The dirty address queue is SRAM; a crash empties it.  No drain is
        recorded — the epoch it tracked simply never committed.
        """
        self._queue.clear()
        self._writebacks_this_epoch = 0

    @property
    def total_drains(self) -> int:
        """Committed epochs so far."""
        return sum(c.value for c in self._drains.values())

    def drains_by_trigger(self) -> dict[str, int]:
        """Commit counts per trigger condition."""
        return {t.value: c.value for t, c in self._drains.items()}
