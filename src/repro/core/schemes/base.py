"""Common machinery of every evaluated secure-NVM design.

:class:`SecureNVMScheme` wires the full controller stack — NVM device with
its genesis image, WPQ, timing front-end, meta cache, encryption engine
and TCB — and implements the parts all five designs share:

* the functional write-back path (counter increment, split-counter
  overflow with page re-encryption, encrypt + data-HMAC + durable write);
* the functional read path (verified counter load, decrypt, data-HMAC
  check, OTP-latency overlap);
* crash modeling (volatile state loss + WPQ/ADR resolution).

Subclasses specialize three seams:

* :meth:`_pre_accept` — work required before a write-back may be accepted
  (cc-NVM: dirty-address-queue reservation, draining when full);
* :meth:`_update_tree` — how the Merkle tree absorbs the counter update
  (immediate spread to the root vs deferred spreading vs nothing);
* :meth:`_post_writeback` — per-design persistence actions (SC's atomic
  flush, Osiris's periodic counter write, cc-NVM's trigger-3 drain);

plus the eviction hooks on the metadata store, :meth:`flush` (graceful
shutdown) and :meth:`recover` (post-crash behaviour).

The timing contract: :meth:`writeback` returns the cycles the evicting
agent is blocked before the data block is accepted into the write path;
:meth:`read` returns the demand-fill completion cycle.  Both honour
``busy_until`` so epoch drains stall subsequent traffic, as Section 4.2
prescribes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.common.address import page_align
from repro.common.config import SystemConfig
from repro.common.constants import MINOR_COUNTER_MAX
from repro.common.persistence import persistence
from repro.common.stats import StatGroup
from repro.core.tcb import TCB
from repro.crypto.cme import CounterModeCipher
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey
from repro.core.engine import EncryptionEngine
from repro.mem.cache import Cache, CacheLine
from repro.mem.controller import MemoryController
from repro.mem.nvm import NVMDevice
from repro.metadata.counters import CounterLine
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout
from repro.metadata.merkle import MerkleTree, write_slot
from repro.metadata.metacache import MetadataStore


@persistence(
    volatile=(
        "meta",
        "busy_until",
        "writeback_hard_cycles",
        "_propagation_queue",
        "_propagating",
    ),
    aka=("scheme",),
    # Ordering obligation (lint rule P6): persistent stores issued by the
    # write-back seams uphold a recovery bound (SC's path flush, Osiris
    # Plus's stop-loss counter, cc-NVM's epoch commit), so every droppable
    # store must be fenced before the seam returns — an unfenced store can
    # be lost behind the very write-backs whose staleness it bounds.  The
    # lazy paths (_on_dirty_meta_evict, w/o CC's flush) are deliberately
    # NOT listed: their writes are best-effort by design.
    ordered=("_pre_accept", "_update_tree", "_post_writeback"),
)
class SecureNVMScheme(ABC):
    """Base of the five designs: w/o CC, SC, Osiris Plus, cc-NVM (±DS)."""

    #: Short identifier used in reports and figures.
    name = "base"

    def __init__(
        self,
        config: SystemConfig,
        data_capacity: int | None = None,
        seed: int | str = 0,
        stats: StatGroup | None = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatGroup(self.name)
        self.layout = MemoryLayout(data_capacity or config.nvm.capacity_bytes)

        encryption_key = SecretKey.from_seed(("enc", seed))
        hmac_key = SecretKey.from_seed(("mac", seed))
        self.genesis = GenesisImage.for_keys(self.layout, encryption_key, hmac_key)
        self.nvm = NVMDevice(
            self.layout, self.stats.group("nvm"), initializer=self.genesis.line
        )
        self.controller = MemoryController(
            config, self.nvm, self.stats.group("controller")
        )
        self.wpq = self.controller.wpq
        self.tcb = TCB(encryption_key, hmac_key, self.genesis.root_register())
        self.hmac = HmacEngine(hmac_key, self.stats.group("hmac"))
        self.cipher = CounterModeCipher(encryption_key)
        self.engine = EncryptionEngine(
            self.cipher,
            self.hmac,
            self.nvm,
            self.wpq,
            self.stats.group("engine"),
            reader=self.controller.read_line,
        )
        self.meta = MetadataStore(
            config,
            Cache(config.security.meta_cache, self.stats.group("metacache")),
            self.nvm,
            self.hmac,
            self.tcb,
            self.genesis,
            self.stats.group("metastore"),
            reader=self.controller.read_line,
        )
        self.meta.on_dirty_evict = self._on_dirty_meta_evict
        self.merkle = MerkleTree(self.nvm, self.hmac, self.genesis)

        #: Optional fault-injection callback (see :mod:`repro.faults`):
        #: called with a dotted site name at instrumented micro-steps of
        #: the write-back / drain / recovery paths.
        self.fault_hook = None
        #: Optional observability bus (see :mod:`repro.obs`); like
        #: ``fault_hook``, components check it against ``None`` so the
        #: disabled path stays zero-cost.
        self.obs = None
        #: Cycle before which the scheme cannot accept new traffic
        #: (drains block subsequent evictions until finished).
        self.busy_until = 0
        #: Unhideable portion of the last write-back's blocking cycles.
        self.writeback_hard_cycles = 0
        #: Flat work queue for lazy dirty-eviction propagation.
        self._propagation_queue: list[int] = []
        self._propagating = False
        self._hmac_cycles = config.security.hmac_latency_cycles
        self._wb_blocking = self.stats.distribution(
            "writeback_blocking_cycles", "cycles the evictor waited per write-back"
        )
        self._read_latency = self.stats.distribution(
            "read_latency_cycles", "demand-fill latency"
        )
        self._crashes = self.stats.counter("crashes")

    def _fault(self, site: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(site)

    # ------------------------------------------------------------------
    # subclass seams
    # ------------------------------------------------------------------

    def _pre_accept(self, now: int, addr: int) -> int:
        """Work before a write-back to *addr* is accepted; returns cycles."""
        return 0

    @abstractmethod
    def _update_tree(self, now: int, counter_addr: int) -> int:
        """Absorb the counter update into the Merkle tree; returns cycles."""

    def _count_writeback_extras(self, counter_addr: int) -> None:
        """Extra persistent-register bumps inside the write transaction.

        Runs between :meth:`TCB.count_writeback` and the combined-group
        close, i.e. atomically with the data/HMAC write under ADR.  A
        design whose recovery cross-checks a per-line register against
        the written data (cc-NVM's extension registers) must bump it
        here, not in :meth:`_post_writeback` — otherwise a crash could
        separate the data from its register and false-alarm recovery.
        """
        return None

    def _post_writeback(
        self, now: int, counter_addr: int, line: CacheLine, overflowed: bool
    ) -> int:
        """Per-design persistence actions after the data is durable."""
        return 0

    @abstractmethod
    def _on_dirty_meta_evict(self, victim: CacheLine) -> None:
        """Make a dirty metadata victim durable as it leaves the cache."""

    @abstractmethod
    def flush(self) -> None:
        """Graceful shutdown: leave NVM consistent with the TCB roots."""

    @abstractmethod
    def recover(self):
        """Post-crash recovery; returns a RecoveryReport."""

    # ------------------------------------------------------------------
    # shared write-back path
    # ------------------------------------------------------------------

    def writeback(self, now: int, addr: int, plaintext: bytes) -> int:
        """Handle one LLC dirty eviction; returns evictor blocking cycles.

        ``writeback_hard_cycles`` is additionally set to the portion of
        the blocking that no write-back buffer can hide (cc-NVM's epoch
        drains seize the whole WPQ); the hierarchy charges that part of
        the stall in full.
        """
        start = max(now, self.busy_until)
        self.writeback_hard_cycles = 0
        cycles = start - now

        cycles += self._pre_accept(now + cycles, addr)

        result = self.meta.load_counter(addr)
        cycles += result.cycles
        counters: CounterLine = result.value
        counter_addr = self.layout.counter_line_addr(addr)
        line = self.meta.probe(counter_addr)

        block = self.layout.block_slot(addr)
        will_overflow = counters.minors[block] == MINOR_COUNTER_MAX
        old_counters = counters.copy() if will_overflow else None

        overflowed = counters.increment(block)
        line.dirty = True
        line.update_count += 1

        if overflowed:
            # Give the triggering block a minor distinct from the (major+1, 0)
            # pairs the re-encrypted blocks use, avoiding one-time-pad reuse.
            counters.increment(block)
            rewritten = self.engine.reencrypt_page(
                page_align(addr), old_counters, counters, block
            )
            # Data + HMAC line writes of the re-encrypted blocks.
            cycles += self.controller.post_writes(now + cycles, rewritten * 2)

        # CME encryption and data-HMAC generation must complete before the
        # block enters the WPQ; every design pays this (including the
        # baseline), so it compresses *relative* gaps exactly as a real
        # pipeline would.
        cycles += self.config.aes_cycles + self._hmac_cycles
        self._fault("writeback.before_data")
        # The data/HMAC write and the persistent Nwb bump form one atomic
        # micro-op: the write's WPQ acceptance (durable under ADR) and the
        # TCB register update happen in the same controller transaction,
        # so no crash point separates them — otherwise recovery's
        # retries-vs-Nwb freshness comparison would false-alarm in either
        # direction.
        self.wpq.begin_combined()
        self.engine.write_data_block(addr, plaintext, counters)
        self.tcb.count_writeback()
        self._count_writeback_extras(counter_addr)
        self.wpq.end_combined()
        self._fault("writeback.after_data")
        cycles += self.controller.post_writes(now + cycles, 2)

        cycles += self._update_tree(now + cycles, counter_addr)
        cycles += self._post_writeback(now + cycles, counter_addr, line, overflowed)

        self.busy_until = now + cycles
        self._wb_blocking.sample(cycles)
        return cycles

    # ------------------------------------------------------------------
    # shared read path
    # ------------------------------------------------------------------

    def read(self, now: int, addr: int) -> tuple[bytes, int]:
        """Handle one demand fill; returns (plaintext, completion cycle).

        The one-time pad is generated while the data line is in flight:
        with a counter-cache hit the AES latency overlaps the PCM read
        ("the OTP generation and the read access can be executed in
        parallel", Section 2.2); on a miss the verified counter walk
        serializes in front of it.
        """
        start = max(now, self.busy_until)
        result = self.meta.load_counter(addr)
        counter_ready = start + result.cycles
        data_done = self.controller.read_completion(start)
        completion = max(data_done, counter_ready + self.config.aes_cycles)
        plaintext = self.engine.read_data_block(addr, result.value)
        self._read_latency.sample(completion - now)
        return plaintext, completion

    # ------------------------------------------------------------------
    # shared tree-update helpers for subclasses
    # ------------------------------------------------------------------

    def _spread_to_root(self, counter_addr: int) -> int:
        """Recompute the HMAC chain from a counter line up to ``root_new``.

        The computations are inherently serial ("the calculation of each
        HMAC in the tree nodes must be executed one after another",
        Section 2.3); uncached ancestors are fetched and verified on the
        way.  Every updated node is left dirty in the meta cache.  This is
        the per-write-back work of SC, Osiris Plus and cc-NVM w/o DS.
        """
        layout = self.layout
        cycles = 0
        node = layout.node_of_addr(counter_addr)
        child_line = self.meta.probe(counter_addr)
        while True:
            child_hmac = self.hmac.counter_hmac(self.meta.encoded(child_line))
            cycles += self._hmac_cycles
            slot = layout.slot_in_parent(node)
            parent = layout.parent_of(node)
            if parent.level == layout.root_level:
                self.tcb.update_root_new(slot, child_hmac)
                return cycles
            result = self.meta.load_node(parent)
            cycles += result.cycles
            parent_addr = layout.merkle_node_addr(parent)
            parent_line = self.meta.probe(parent_addr)
            parent_line.data = write_slot(bytes(parent_line.data), slot, child_hmac)
            parent_line.dirty = True
            parent_line.update_count += 1
            node = parent
            child_line = parent_line

    def _lazy_propagate_and_write(self, victim: CacheLine) -> None:
        """Conventional dirty-eviction handling (w/o CC's lazy BMT).

        The victim's HMAC is folded into its parent *in the cache* (the
        parent turns dirty and propagates the same way when it is itself
        evicted) and the victim is written to NVM as a normal durable
        write.  This is the classic DRAM-style lazy Merkle maintenance of
        Gassend et al. — consistent at every instant in the cache+TCB
        view, but never atomically in NVM, which is exactly why these
        designs cannot recover the tree after a crash.

        Propagations are processed through a flat work queue: loading a
        parent can evict further dirty lines, and handling those
        re-entrantly would let verification walks observe half-applied
        parent/child updates.  Until a victim's parent slot is updated,
        its newest value stays published in the trusted overlay, so no
        load ever compares a new child against a stale parent.
        """
        self.meta.overlay[victim.addr] = self.meta.encoded(victim)
        self._propagation_queue.append(victim.addr)
        if self._propagating:
            return
        self._propagating = True
        try:
            while self._propagation_queue:
                addr = self._propagation_queue.pop(0)
                encoded = self.meta.overlay.get(addr)
                if encoded is None:
                    # A load consumed the overlay entry: the line is back
                    # in the cache (dirty) and will propagate when it is
                    # evicted again.
                    continue
                self._propagate_one(addr, encoded)
        finally:
            self._propagating = False

    def _propagate_one(self, addr: int, encoded: bytes) -> None:
        """Persist one evicted line and fold its HMAC into its parent."""
        layout = self.layout
        node = layout.node_of_addr(addr)
        self.wpq.write(addr, encoded)
        child_hmac = self.hmac.counter_hmac(encoded)
        slot = layout.slot_in_parent(node)
        parent = layout.parent_of(node)
        if parent.level == layout.root_level:
            self.tcb.update_root_new(slot, child_hmac)
        else:
            parent_addr = layout.merkle_node_addr(parent)
            while True:
                self.meta.load_node(parent)
                parent_line = self.meta.probe(parent_addr)
                if parent_line is not None:
                    break
                # The install's eviction handling queued the parent out
                # again; its value is safe in the overlay — retry.
            parent_line.data = write_slot(
                bytes(parent_line.data), slot, child_hmac
            )
            parent_line.dirty = True
        # Retire the overlay entry only if no load replaced it meanwhile.
        if self.meta.overlay.get(addr) == encoded:
            self.meta.overlay.pop(addr, None)

    def _flush_all_dirty_lazily(self) -> None:
        """Graceful shutdown for the conventional designs.

        Writes every dirty metadata line bottom-up, propagating HMACs so
        the final NVM image is consistent with the TCB root.  Each victim
        is the first dirty line of the lowest dirty tree level, in cache
        iteration order.  Writing a victim dirties only ancestors, and a
        nested eviction propagates into ancestors too, so the lowest dirty
        level never falls and no line of it turns dirty behind the scan:
        one resumable scan per level, bottom-up, finds the same victims as
        re-sorting the dirty lines after every write.
        """
        cache = self.meta.cache
        level_of = self.layout.level_of_addr
        for level in range(self.layout.num_levels):

            def at_level(line: CacheLine) -> bool:
                return level_of(line.addr) == level

            start = 0
            while (found := cache.first_dirty(at_level, start)) is not None:
                start, victim = found
                self._lazy_propagate_and_write(victim)
                cache.clean(victim.addr)

    # ------------------------------------------------------------------
    # crash modeling
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power failure: resolve the WPQ per ADR, lose all volatile state.

        Persistent TCB registers (roots, Nwb) survive.  Subclasses extend
        this to drop their own volatile structures (the dirty address
        queue is SRAM and is lost too).
        """
        self._crashes.inc()
        if self.obs is not None:
            self.obs.instant("scheme.crash", "scheme")
        self.wpq.power_failure()
        self.meta.crash()
        self.tcb.crash()
        self.busy_until = 0
        self._propagation_queue.clear()
        self._propagating = False
