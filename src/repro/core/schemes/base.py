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

plus the eviction hooks on the metadata store and :meth:`flush` (graceful
shutdown).  Post-crash behaviour is declared, not coded: each design
states its recovery contract once, as the class attributes
:attr:`~SecureNVMScheme.recovery_policy` and
:attr:`~SecureNVMScheme.crash_outcomes`, and :meth:`_recover` runs it.

The timing contract: :meth:`writeback` returns the cycles the evicting
agent is blocked before the data block is accepted into the write path;
:meth:`read` returns the demand-fill completion cycle.  Both honour
``busy_until`` so epoch drains stall subsequent traffic, as Section 4.2
prescribes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace

from repro.common.address import block_in_page, page_align
from repro.common.config import SystemConfig
from repro.common.constants import MINOR_COUNTER_MAX
from repro.common.persistence import persistence, poison_volatile, restore_volatile
from repro.common.stats import StatGroup
from repro.core.recovery import RecoveryManager, RecoveryPolicy, RecoveryReport
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
)
class SecureNVMScheme(ABC):
    """Base of the five designs: w/o CC, SC, Osiris Plus, cc-NVM (±DS)."""

    #: Short identifier used in reports and figures.
    name = "base"

    #: What the design's recovery checks (Section 4.4); ``retry_limit=None``
    #: is the epoch's update limit N, resolved by :meth:`resolved_policy`.
    recovery_policy: RecoveryPolicy
    #: Outcomes (:func:`repro.crashsim.oracle.classify`) recovery may
    #: report after a pure crash, with no attacker present.
    crash_outcomes: frozenset[str] = frozenset({"RECOVERED"})

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
        self.hmac = HmacEngine(
            hmac_key, self.stats.group("hmac"), pristine=self.genesis
        )
        self.cipher = CounterModeCipher(encryption_key, pristine=self.genesis.line)
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

        #: Cycle before which the scheme cannot accept new traffic
        #: (drains block subsequent evictions until finished).
        self.busy_until = 0
        #: Unhideable portion of the last write-back's blocking cycles.
        self.writeback_hard_cycles = 0
        #: Flat work queue for lazy dirty-eviction propagation.
        self._propagation_queue: list[int] = []
        self._propagating = False
        self._hmac_cycles = config.security.hmac_latency_cycles
        self._aes_cycles = config.aes_cycles
        self._wb_blocking = self.stats.distribution(
            "writeback_blocking_cycles", "cycles the evictor waited per write-back"
        )
        self._read_latency = self.stats.distribution(
            "read_latency_cycles", "demand-fill latency"
        )
        self._crashes = self.stats.counter("crashes")
        #: What :meth:`crash` poisoned, for :meth:`recover` to put back;
        #: ``None`` while the machine is up.
        self._lost: list[tuple[object, str, object]] | None = None

    # ------------------------------------------------------------------
    # subclass seams
    # ------------------------------------------------------------------

    def _pre_accept(self, now: int, counter_addr: int) -> int:
        """Work before a write-back is accepted; returns cycles.

        *counter_addr* is the counter line of the written data block.
        """
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

    def _annotate_recovery(self, report: RecoveryReport) -> None:
        """Append the design's own notes to a completed recovery report."""

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
        counter_addr = self.layout.counter_line_addr(addr)
        start = max(now, self.busy_until)
        self.writeback_hard_cycles = 0
        cycles = start - now

        cycles += self._pre_accept(now + cycles, counter_addr)

        # meta.load_counter, keeping the line.
        line, load_cycles, _ = self.meta.load_line(counter_addr)
        cycles += load_cycles
        counters: CounterLine = line.data

        block = block_in_page(addr)  # addr checked by counter_line_addr
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
        cycles += self._aes_cycles + self._hmac_cycles
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
        completion = max(data_done, counter_ready + self._aes_cycles)
        plaintext = self.engine.read_data_block(addr, result.value)
        self._read_latency.sample(completion - now)
        return plaintext, completion

    # ------------------------------------------------------------------
    # shared tree-update helpers for subclasses
    # ------------------------------------------------------------------

    def _spread_to_root(
        self, counter_addr: int, path: list[tuple[int | None, int]]
    ) -> tuple[int, list[tuple[CacheLine, bytes]]]:
        """Recompute the HMAC chain from a counter line up to ``root_new``.

        The computations are inherently serial ("the calculation of each
        HMAC in the tree nodes must be executed one after another",
        Section 2.3); uncached ancestors are fetched and verified on the
        way.  Every updated node is left dirty in the meta cache.  This is
        the per-write-back work of SC, Osiris Plus and cc-NVM w/o DS.

        *path* is ``layout.tree_path(counter_addr)``.  Returns the cycles
        and, bottom-up, each line of the chain with the 64 B image it
        holds now: the counter line, then every NVM-resident ancestor.
        """
        load_line = self.meta.load_line
        counter_hmac = self.hmac.counter_hmac
        line = self.meta.probe(counter_addr)
        child = line.data.encode()
        chain = [(line, child)]
        cycles = 0
        for parent_addr, slot in path:
            child_hmac = counter_hmac(child)
            cycles += self._hmac_cycles
            if parent_addr is None:
                break
            line, load_cycles, _ = load_line(parent_addr)
            cycles += load_cycles
            child = write_slot(bytes(line.data), slot, child_hmac)
            line.data = child
            line.dirty = True
            line.update_count += 1
            chain.append((line, child))
        self.tcb.update_root_new(slot, child_hmac)
        return cycles, chain

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
        parent_addr, slot = self.layout.tree_parent(addr)
        self.wpq.write(addr, encoded)
        child_hmac = self.hmac.counter_hmac(encoded)
        if parent_addr is None:
            self.tcb.update_root_new(slot, child_hmac)
        else:
            while True:
                parent_line, _, hit = self.meta.load_line(parent_addr)
                if hit or self.meta.probe(parent_addr) is not None:
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

        The NVM image and the persistent TCB registers (roots, Nwb)
        survive.  Every attribute a ``volatile=`` declaration names, on
        the scheme and on the components it holds (meta cache, dirty
        address queue, WPQ batch), is cleared and then poisoned until a
        recovery completes: reading one in between raises
        :class:`~repro.common.persistence.VolatileStateLost`.  A crash
        while already down (power lost during recovery) loses nothing
        more.
        """
        self._crashes.inc()
        if self._lost is not None:
            return
        self.wpq.power_failure()
        self._clear_volatile()
        self.tcb.crash()
        # The WPQ survives (ADR) but its open batch does not.
        self._lost = poison_volatile(self, self.wpq)

    def _clear_volatile(self) -> None:
        """Reset the volatile state a completed recovery hands back.

        Subclasses extend this for their own structures (the dirty
        address queue is SRAM and is lost too).
        """
        self.meta.crash()
        self.busy_until = 0
        self._propagation_queue.clear()
        self._propagating = False

    def resolved_policy(self) -> RecoveryPolicy:
        """:attr:`recovery_policy` with its retry bound taken from the config.

        Resolved on every recovery, never cached at construction: the
        recovery path may read only persistent state, and the poison
        checks what this reads too.
        """
        policy = self.recovery_policy
        if policy.retry_limit is None:
            policy = replace(policy, retry_limit=self.config.epoch.update_limit)
        return policy

    def _recover(self) -> RecoveryReport:
        """Run the design's recovery contract on the NVM image and the
        persistent TCB registers; every volatile attribute is poisoned
        while it runs."""
        report = RecoveryManager(
            self.nvm, self.tcb, self.merkle, self.resolved_policy(), self.name
        ).run()
        self._annotate_recovery(report)
        return report

    def recover(self) -> RecoveryReport:
        """Post-crash recovery; returns a RecoveryReport.

        Once the design's recovery completes, the volatile state
        :meth:`crash` cleared is back and the machine runs again.  A
        :class:`~repro.crashsim.trace.PowerFailure` raised during it
        leaves the poison in place.
        """
        report = self._recover()
        if self._lost is not None:
            restore_volatile(self._lost)
            self._lost = None
        return report
