"""Write pending queue (WPQ) with ADR persistence semantics.

The WPQ is the memory controller's persistence domain: the Asynchronous
DRAM Refresh (ADR) mechanism guarantees that, on power failure, everything
already accepted into the WPQ reaches NVM on backup power (Section 4.2).
cc-NVM builds its atomic draining protocol on exactly this property:

* *Normal* writes pass through the WPQ and are durable the moment they are
  accepted — modeled here as immediate write-through to the device.
* During an *atomic batch* (between the drainer's ``start`` and ``end``
  signals), metadata lines are blocked inside the WPQ.  Only when the
  ``end`` signal arrives are they released to NVM.  If the system crashes
  before ``end``, the residual batch is dropped wholesale, keeping the
  in-NVM Merkle tree in its previous consistent state; if it crashes after
  ``end``, ADR completes the flush, so the new consistent state lands in
  full.  Either way the tree is never half-updated — the all-or-nothing
  property Section 4.2's protocol needs.
"""

from __future__ import annotations

from repro.common.address import is_line_aligned
from repro.common.constants import CACHE_LINE_SIZE
from repro.common.persistence import persistence
from repro.common.stats import StatGroup
from repro.mem.nvm import NVMDevice


class AtomicBatchError(RuntimeError):
    """Raised on WPQ protocol violations (nesting, overflow, stray signals)."""


@persistence(
    volatile=("_batch",),
)
class WritePendingQueue:
    """The ADR-protected write queue in front of the NVM device."""

    def __init__(self, nvm: NVMDevice, entries: int, stats: StatGroup | None = None) -> None:
        if entries <= 0:
            raise ValueError("WPQ needs at least one entry")
        self.nvm = nvm
        self.entries = entries
        self._batch: list[tuple[int, bytes]] | None = None
        #: Optional persist-trace callback (see :mod:`repro.crashsim`):
        #: called with ``(kind, addr, data)`` after every persist
        #: micro-op so a recorder can rebuild the exact order in which
        #: lines became durable under ADR.
        self.trace_hook = None
        self._stats = stats if stats is not None else StatGroup("wpq")
        self._normal_writes = self._stats.counter("normal_writes")
        self._batched_writes = self._stats.counter("batched_writes")
        self._batches_committed = self._stats.counter("batches_committed")
        self._batches_dropped = self._stats.counter("batches_dropped")
        self._batch_size_dist = self._stats.distribution("batch_size")

    @property
    def stats(self) -> StatGroup:
        """WPQ statistics (batch sizes, commit/drop counts)."""
        return self._stats

    def _trace(self, kind: str, addr: int | None = None, data: bytes | None = None) -> None:
        if self.trace_hook is not None:
            self.trace_hook(kind, addr, data)

    # -- combined-group markers ---------------------------------------------------

    def begin_combined(self) -> None:
        """Mark the start of one controller write transaction.

        A *combined group* is a set of WPQ writes that travel to the
        controller as one transaction (e.g. a data line plus its HMAC
        sub-line plus the Nwb bump) and therefore either all reach the
        WPQ before a power failure or none do.  The markers are no-ops
        for the device; they only scope the persist trace.
        """
        self._trace("begin_combined")

    def end_combined(self) -> None:
        """Mark the end of the current combined write transaction."""
        self._trace("end_combined")

    @property
    def in_atomic_batch(self) -> bool:
        """True between a ``start`` signal and its ``end``/crash resolution."""
        return self._batch is not None

    @property
    def batch_size(self) -> int:
        """Entries buffered in the current atomic batch (0 outside one)."""
        return len(self._batch) if self._batch is not None else 0

    # -- normal traffic ---------------------------------------------------------

    def _validate_addr(self, addr: int) -> None:
        """Reject misaligned/out-of-range targets before any side effect.

        Validation happens *in the WPQ*, not only in the device: a bad
        address must fail before statistics are bumped (or, for atomic
        writes, before the line joins a batch that would then explode
        half-flushed at commit time).
        """
        if not is_line_aligned(addr):
            raise ValueError(f"WPQ write not line-aligned: {addr:#x}")
        if not 0 <= addr < self.nvm.layout.total_capacity:
            raise ValueError(f"WPQ write out of range: {addr:#x}")

    def _check_batch_conflict(self, addr: int) -> None:
        if self._batch is not None and any(a == addr for a, _ in self._batch):
            raise AtomicBatchError(
                f"normal write to {addr:#x} while the line is blocked in the "
                "atomic batch: the store would be ordered before the batch, "
                "breaking the all-or-nothing property"
            )

    def write(self, addr: int, data: bytes) -> None:
        """Accept a normal (immediately durable) line write."""
        self._validate_addr(addr)
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError("WPQ line writes are whole 64 B lines")
        self._check_batch_conflict(addr)
        self._normal_writes.inc()
        self.nvm.write_line(addr, data)
        self._trace("write", addr)

    def write_partial(self, addr: int, offset: int, data: bytes) -> None:
        """Accept a normal sub-line write (e.g. a 128-bit data HMAC)."""
        self._validate_addr(addr)
        if offset < 0 or offset + len(data) > CACHE_LINE_SIZE:
            raise ValueError(
                f"partial write [{offset}, {offset + len(data)}) exceeds the "
                f"{CACHE_LINE_SIZE} B line"
            )
        self._check_batch_conflict(addr)
        self._normal_writes.inc()
        self.nvm.write_partial(addr, offset, data)
        self._trace("write_partial", addr)

    # -- atomic draining protocol -------------------------------------------------

    def begin_atomic(self) -> None:
        """The drainer's ``start`` signal: begin blocking metadata lines."""
        if self._batch is not None:
            raise AtomicBatchError("atomic batches cannot nest")
        self._batch = []
        self._trace("begin_atomic")

    def write_atomic(self, addr: int, data: bytes) -> None:
        """Block one metadata line inside the WPQ until the ``end`` signal."""
        if self._batch is None:
            raise AtomicBatchError("no atomic batch in progress")
        self._validate_addr(addr)
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError("WPQ line writes are whole 64 B lines")
        if len(self._batch) >= self.entries:
            raise AtomicBatchError(
                f"atomic batch exceeds the {self.entries}-entry WPQ"
            )
        self._batch.append((addr, bytes(data)))
        self._trace("write_atomic", addr, bytes(data))

    def commit_atomic(self) -> int:
        """The drainer's ``end`` signal: release the batch to NVM.

        Returns the number of lines flushed.  After this point the batch is
        durable even across an immediate power failure (ADR semantics).
        """
        if self._batch is None:
            raise AtomicBatchError("no atomic batch in progress")
        batch, self._batch = self._batch, None
        for addr, data in batch:
            self.nvm.write_line(addr, data)
        self._trace("commit_atomic")
        self._batched_writes.inc(len(batch))
        self._batches_committed.inc()
        self._batch_size_dist.sample(len(batch))
        return len(batch)

    def power_failure(self) -> int:
        """Resolve a crash: drop any uncommitted batch (residual cachelines).

        Normal writes were already durable; an in-flight atomic batch that
        never saw its ``end`` signal is discarded, exactly as the protocol
        prescribes.  Returns the number of dropped entries.
        """
        if self._batch is None:
            self._trace("power_failure")
            return 0
        dropped, self._batch = self._batch, None
        self._batches_dropped.inc()
        self._trace("power_failure")
        return len(dropped)
