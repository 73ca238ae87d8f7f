"""cc-NVM — epoch-based consistent BMT with optional deferred spreading.

The paper's contribution (Section 4).  Security metadata is aggressively
cached and mutated in the meta cache; the drainer records every metadata
address the epoch touches, and a drain event atomically commits the whole
epoch to NVM through the WPQ (start signal → blocked metadata lines →
end signal → ``root_old`` catch-up).  The in-NVM Merkle tree therefore
only ever transitions between consistent states, so replay attacks remain
locatable even across a crash.

Three designs share :class:`CcNVM`'s machinery:

* **cc-NVM w/o DS** (:class:`CcNVMWithoutDeferredSpreading`) recomputes
  the HMAC chain up to the TCB ``root_new`` on every write-back —
  consistent at all times, but paying the serial chain like SC and
  Osiris Plus.
* **cc-NVM** (:class:`CcNVM`, deferred spreading) stops at the meta cache: the
  write-back only reserves the path's addresses in the dirty address
  queue (32-cycle lookup) and is forwarded immediately; every recorded
  node is recomputed exactly once at drain time, and ``root_new`` is
  updated only then.  The replay window this opens between drains is
  covered by the persistent ``Nwb`` register (Section 4.3).
* **cc-NVM + locate registers** (:class:`CcNVMWithLocateRegisters`)
  adds Section 4.4's extension registers to cc-NVM.

Drain triggers (Section 4.2): queue full / can't fit the next write-back's
path; a dirty metadata line about to be evicted; a line updated more than
N times since turning dirty.  The model adds page re-keys (split-counter
major bumps) as an immediate commit, keeping recovery retries within one
major generation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import SystemConfig
from repro.common.persistence import persistence
from repro.common.stats import StatGroup
from repro.core.drainer import DirtyAddressQueue, DrainTrigger
from repro.core.recovery import RecoveryPolicy
from repro.core.schemes.base import SecureNVMScheme
from repro.mem.cache import CacheLine
from repro.metadata.merkle import write_slot


@persistence(
    volatile=(
        "queue",
        "_draining",
        "_in_writeback",
        "_insert_cycles",
        "_pending_trigger",
        "_writeback_path",
    ),
)
class CcNVM(SecureNVMScheme):
    """The paper's ``cc-NVM``."""

    name = "ccnvm"
    #: Deferred spreading (Section 4.3); off in the ``cc-NVM w/o DS`` ablation.
    deferred_spreading = True

    # The four-step recovery of Section 4.4.  Every variant, w/o DS
    # included, checks freshness with Nwb: even w/o DS a crash can land
    # between the (durable) data write and the chain recompute, so
    # comparing the rebuilt root against root_new would false-alarm on
    # the one in-flight write-back.  Nwb is bumped atomically with the
    # data write, so retry totals stay commensurable with it at every
    # crash point, while an in-epoch replay still shows as Nretry != Nwb.
    recovery_policy = RecoveryPolicy(
        check_tree_against=("old", "new"),
        retry_limit=None,
        freshness_check="nwb",
    )

    def __init__(
        self,
        config: SystemConfig,
        data_capacity: int | None = None,
        seed: int | str = 0,
        stats: StatGroup | None = None,
    ) -> None:
        super().__init__(config, data_capacity, seed, stats)
        self.queue = DirtyAddressQueue(
            config.epoch.dirty_queue_entries, self.stats.group("drainer")
        )
        self.meta.pre_evict = self._pre_evict_drain
        self._draining = False
        self._in_writeback = False
        self._insert_cycles = 0
        self._pending_trigger: DrainTrigger | None = None
        #: ``layout.tree_path`` of the in-flight write-back's counter line,
        #: computed once by :meth:`_pre_accept` for the reservation and
        #: walked again by :meth:`_update_tree`.
        self._writeback_path: list[tuple[int | None, int]] = []
        self._drain_cycles = self.stats.distribution(
            "drain_cycles", "blocking cycles per epoch commit"
        )

    # ------------------------------------------------------------------
    # write-back path hooks
    # ------------------------------------------------------------------

    def _pre_accept(self, now: int, counter_addr: int) -> int:
        """Reserve the write-back's metadata addresses in the dirty queue.

        Reservation covers the counter line *and* every NVM-resident
        ancestor even under deferred spreading ("we still need to reserve
        entries ... despite the fact they have not been dirtied yet",
        Section 4.3).  Trigger 1 fires first when the queue cannot take
        the set.
        """
        self._in_writeback = True
        self._writeback_path = self.layout.tree_path(counter_addr)
        addrs = self.layout.metadata_addresses_on_path(counter_addr, self._writeback_path)
        cycles = 0
        if self._pending_trigger is not None:
            # A read-path eviction deferred its commit; this write-back
            # entry is the next quiescent point.
            trigger, self._pending_trigger = self._pending_trigger, None
            cycles += self._drain(now, trigger)
        if not self.queue.fits(addrs):
            cycles += self._drain(now, DrainTrigger.QUEUE_FULL)
        # One 32-cycle look-up/insert per path address through the CAM's
        # single port.  Steps (2) and (3) execute in parallel
        # (Section 4.2), so _update_tree later charges
        # max(insert time, tree-update time) — without deferred spreading
        # the serial HMAC chain completely hides these inserts.
        self._insert_cycles = self.config.epoch.dirty_queue_lookup_cycles * len(addrs)
        self.queue.reserve(addrs)
        self.queue.count_writeback()
        return cycles

    def _update_tree(self, now: int, counter_addr: int) -> int:
        if self.deferred_spreading:
            update = self._spread_until_cached(counter_addr, self._writeback_path)
        else:
            update = self._spread_to_root(counter_addr, self._writeback_path)[0]
        # Metadata update and dirty-address-queue insertion proceed in
        # parallel; the write-back waits for whichever finishes last.
        return max(update, self._insert_cycles)

    def _spread_until_cached(
        self, counter_addr: int, path: list[tuple[int | None, int]]
    ) -> int:
        """Deferred spreading's write-back-time walk (Section 4.3).

        Climb from the counter line, folding the child's HMAC into its
        parent, and *stop as soon as the parent is already resident in
        the meta cache* — a verified, trusted node absorbs the update
        implicitly and the spread to the root is deferred to the drain.
        Uncached parents must be fetched (and verified) before they can
        be updated, which is where cc-NVM's residual write-back cost
        comes from on metadata-cache-unfriendly workloads.

        *path* is ``layout.tree_path(counter_addr)``.
        """
        cache = self.meta.cache
        cycles = 0
        counter_line = self.meta.probe(counter_addr)
        child = None  # the image of the line whose HMAC moves up next
        for parent_addr, slot in path:
            if parent_addr is None:
                break
            if cache.probe(parent_addr) is not None:
                # Cached (trusted) ancestor: stop — the drain finishes the
                # spread once per epoch.
                return cycles
            parent_line, load_cycles, _ = self.meta.load_line(parent_addr)
            cycles += load_cycles
            if child is None:
                child = counter_line.data.encode()
            child_hmac = self.hmac.counter_hmac(child)
            cycles += self._hmac_cycles
            child = write_slot(bytes(parent_line.data), slot, child_hmac)
            parent_line.data = child
            parent_line.dirty = True
        # Nothing cached all the way up: the walk reaches the TCB.
        if child is None:
            child = counter_line.data.encode()
        child_hmac = self.hmac.counter_hmac(child)
        cycles += self._hmac_cycles
        self.tcb.update_root_new(slot, child_hmac)
        return cycles

    def _post_writeback(
        self, now: int, counter_addr: int, line: CacheLine, overflowed: bool
    ) -> int:
        cycles = 0
        if overflowed:
            # Commit immediately so the stored counter never trails a page
            # re-key (keeps recovery retries within one major generation).
            cycles += self._drain(now, DrainTrigger.OVERFLOW)
        elif line.update_count >= self.config.epoch.update_limit:
            # Trigger 3, at (not past) the Nth update: a crash during
            # this very drain then leaves at most N stale updates, which
            # is exactly recovery's per-block retry budget.
            cycles += self._drain(now, DrainTrigger.UPDATE_LIMIT)
        if self._pending_trigger is not None:
            # A dirty line was evicted mid-write-back (trigger 2); the
            # commit was deferred to this boundary so the epoch is never
            # flushed with a half-spread tree path.
            trigger, self._pending_trigger = self._pending_trigger, None
            cycles += self._drain(now + cycles, trigger)
        self._in_writeback = False
        return cycles

    # ------------------------------------------------------------------
    # eviction hooks (trigger 2)
    # ------------------------------------------------------------------

    def _pre_evict_drain(self, victim: CacheLine) -> None:
        """A dirty metadata line is about to be evicted: commit the epoch.

        If a write-back is in flight, the tree path may be mid-update in
        the cache, so committing now could flush an internally
        inconsistent epoch; the drain is deferred to the write-back
        boundary and the victim's value is carried in the orphan buffer
        meanwhile.
        """
        if self._draining:
            return
        if self._in_writeback or self.meta.walk_depth > 0:
            # Mid-write-back: the tree path may be half-updated in the
            # cache.  Mid-walk: a drain would rewrite NVM lines whose
            # snapshots the walk is still verifying.  Either way the
            # victim's value stays safe in the overlay and the commit
            # moves to the next quiescent point.
            self._pending_trigger = DrainTrigger.META_EVICTION
            return
        self._drain(self.busy_until, DrainTrigger.META_EVICTION)

    def _on_dirty_meta_evict(self, victim: CacheLine) -> None:
        if not (self._draining or self._in_writeback or self.meta.walk_depth):
            raise RuntimeError(
                "dirty metadata escaped the cache outside a drain — the "
                "pre-eviction drain should have cleaned it"
            )
        # Park the newest value in the overlay: loads keep seeing it and
        # the (current or deferred) drain's flush loop commits it.
        self.meta.overlay[victim.addr] = self.meta.encoded(victim)

    # ------------------------------------------------------------------
    # the atomic draining protocol (Section 4.2)
    # ------------------------------------------------------------------

    def _drain(self, now: int, trigger: DrainTrigger) -> int:
        """Commit the current epoch; returns blocking cycles.

        Subsequent write-backs are blocked until the drain finishes
        (enforced through ``busy_until``).
        """
        addrs = self.queue.commit(trigger)
        if not addrs:
            self.tcb.commit_root()
            return 0
        self._draining = True
        cycles = 0

        if self.deferred_spreading:
            cycles += self._spread_recorded(addrs)

        # start signal: metadata cachelines are blocked inside the WPQ.
        self.wpq.begin_atomic()
        flushed = 0
        for addr in addrs:
            line = self.meta.probe(addr)
            if line is not None:
                value = self.meta.encoded(line)
            elif addr in self.meta.overlay:
                value = self.meta.overlay.pop(addr)
            else:
                # Reserved but never loaded nor dirtied (w/o DS path only
                # reserves what it touches, so this is DS bookkeeping of a
                # clean line whose NVM copy is already current).
                continue
            self.wpq.write_atomic(addr, value)
            flushed += 1
        # end signal: the batch is released (durable even across a crash).
        self.wpq.commit_atomic()
        # Anything evicted dirty that was somehow not reserved would be
        # lost; persist it non-atomically as a last resort.
        for addr, value in list(self.meta.overlay.items()):
            self.wpq.write(addr, value)
            del self.meta.overlay[addr]
        cycles += flushed  # one cycle per line transfer into the WPQ
        cycles += self.controller.post_writes(now + cycles, flushed)
        # The atomic batch owns the WPQ (it can fill all 64 entries), so
        # normal write-backs cannot enter the persistence domain until the
        # batch has fully reached NVM; the drain blocks until then.
        cycles += max(0, self.controller.drain_time(now + cycles) - (now + cycles))

        for addr in addrs:
            self.meta.cache.clean(addr)
        self.tcb.commit_root()  # root_old catches up; Nwb resets

        self._draining = False
        self._drain_cycles.sample(cycles)
        self.busy_until = max(self.busy_until, now + cycles)
        # The batch owns the WPQ end to end: nothing overlaps a drain.
        self.writeback_hard_cycles += cycles
        return cycles

    def _spread_recorded(self, addrs: list[int]) -> int:
        """Deferred spreading's drain-time recompute.

        Every recorded node is hashed exactly once, bottom-up by level;
        each hash lands in the node's parent (or in ``root_new`` for the
        top internal level).  Nodes that were reserved but never brought
        on-chip are fetched (with verification) on the way.
        """
        meta = self.meta
        cycles = 0
        for addr in sorted(addrs, key=self.layout.level_of_addr):
            # A resident line is probed (uncounted, LRU-neutral); only a
            # miss takes the counted, verifying load.
            line = meta.probe(addr)
            if line is None:
                line, load_cycles, _ = meta.load_line(addr)
                cycles += load_cycles
            parent_addr, slot = self.layout.tree_parent(addr)
            child_hmac = self.hmac.counter_hmac(meta.encoded(line))
            cycles += self._hmac_cycles
            if parent_addr is None:
                self.tcb.update_root_new(slot, child_hmac)
                continue
            parent_line = meta.probe(parent_addr)
            if parent_line is None:
                parent_line, load_cycles, _ = meta.load_line(parent_addr)
                cycles += load_cycles
            parent_line.data = write_slot(bytes(parent_line.data), slot, child_hmac)
            parent_line.dirty = True
        return cycles

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Graceful shutdown: commit the open epoch."""
        self._pending_trigger = None
        self._drain(self.busy_until, DrainTrigger.FLUSH)

    def _clear_volatile(self) -> None:
        """The SRAM dirty address queue is lost too."""
        super()._clear_volatile()
        self.queue.drop()
        self._draining = False
        self._in_writeback = False
        self._pending_trigger = None


class CcNVMWithLocateRegisters(CcNVM):
    """cc-NVM plus Section 4.4's extension: persistent registers counting
    each dirty counter line's updates, which *locate* in-epoch replays at
    page granularity at the cost of M extra TCB registers."""

    name = "ccnvm_locate"
    recovery_policy = replace(CcNVM.recovery_policy, use_counter_log=True)

    def _count_writeback_extras(self, counter_addr: int) -> None:
        # The extension-register bump must land atomically with the data
        # write it describes: recovery replays counter_log against the
        # stored counters, so a crash separating the two would make the
        # register file over- or under-count and false-alarm the check.
        self.tcb.log_counter_update(counter_addr)


class CcNVMWithoutDeferredSpreading(CcNVM):
    """The ``cc-NVM w/o DS`` ablation: the HMAC chain is recomputed up to
    ``root_new`` on every write-back."""

    name = "ccnvm_no_ds"
    deferred_spreading = False
