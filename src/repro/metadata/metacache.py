"""The meta cache: verified on-chip caching of counters and tree nodes.

The paper places a shared 128 KB, 8-way cache at the L2 level that holds
both encryption counter lines and Merkle-tree nodes (Section 5).  A line
resident here has been authenticated on the way in (or was produced by the
TCB itself) and is therefore *trusted*: integrity verification of a child
can stop as soon as an ancestor is found in this cache — "the cached tree
nodes have already been verified and their security is guaranteed being
on-chip" (Section 2.2).  Exactly this property also powers cc-NVM's
deferred spreading.

:class:`MetadataStore` wraps the cache with:

* **verified loads** — a miss walks the Merkle path upward, reading
  uncached ancestors from NVM until it reaches a cached (trusted) node or
  the TCB root register, then verifies downward and installs every node as
  clean+verified.  A mismatch raises :class:`IntegrityError` — runtime
  attack detection;
* **scheme-pluggable eviction policy** — cc-NVM must drain the epoch
  *before* a dirty metadata line leaves the cache (trigger 2), while
  conventional designs lazily propagate the victim's HMAC to its parent
  and write the victim back.  Both hooks are injected by the owning
  scheme;
* **timing accounting** — every load reports the cycles it cost (meta-
  cache hit latency, NVM reads, HMAC checks) so schemes can charge it to
  the write-back or read path.

Counter lines are cached *decoded* (as :class:`CounterLine`), tree nodes
as raw 64 B values; :meth:`MetadataStore.encoded` renders either for NVM.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.common.config import SystemConfig
from repro.common.persistence import persistence
from repro.common.stats import StatGroup
from repro.crypto.hmac_engine import HmacEngine
from repro.core.tcb import TCB
from repro.mem.cache import Cache, CacheLine
from repro.mem.nvm import NVMDevice
from repro.metadata.counters import CounterLine
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout, MerkleNodeId
from repro.metadata.merkle import read_slot


class IntegrityError(Exception):
    """An integrity check failed — an attack was detected at runtime."""

    def __init__(self, message: str, node: MerkleNodeId | None = None) -> None:
        super().__init__(message)
        #: The tree node whose verification failed, when known.
        self.node = node


class AccessResult(NamedTuple):
    """Outcome of one metadata load: the value, its cost, hit/miss."""

    value: object
    cycles: int
    hit: bool


@persistence(
    volatile=("cache", "overlay", "walk_depth"),
)
class MetadataStore:
    """Verified meta cache over the counter and Merkle regions."""

    def __init__(
        self,
        config: SystemConfig,
        cache: Cache,
        nvm: NVMDevice,
        engine: HmacEngine,
        tcb: TCB,
        genesis: GenesisImage,
        stats: StatGroup | None = None,
        reader=None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.nvm = nvm
        #: ``addr -> bytes`` used for device reads during verification
        #: walks.  Defaults to the raw device; schemes pass the memory
        #: controller's retrying ``read_line`` so transient media faults
        #: are absorbed before a line is HMAC-checked.
        self._read_line = reader if reader is not None else nvm.read_line
        self.layout: MemoryLayout = nvm.layout
        self.engine = engine
        self.tcb = tcb
        self.genesis = genesis
        self._hit_latency = config.security.meta_cache.hit_latency
        self._read_cycles = config.nvm_read_cycles
        self._hmac_cycles = config.security.hmac_latency_cycles
        self._stats = stats if stats is not None else StatGroup("metastore")
        self._verify_walks = self._stats.distribution(
            "verify_walk_levels", "uncached levels walked per verified miss"
        )
        self._integrity_failures = self._stats.counter("integrity_failures")
        #: Called with a dirty victim *before* it would be evicted; the
        #: scheme may clean it (cc-NVM: drain the epoch).
        self.pre_evict: Callable[[CacheLine], None] | None = None
        #: Called with a victim that left the cache still dirty; the
        #: scheme must make it durable (lazy propagate + NVM write).
        self.on_dirty_evict: Callable[[CacheLine], None] | None = None
        #: Depth of in-flight verification walks.  Schemes consult this
        #: to defer epoch drains: a drain rewrites NVM lines, which would
        #: invalidate the walk's point-in-time snapshots.
        self.walk_depth = 0
        #: Write-back overlay: newest encoded values of dirty lines that
        #: were evicted but whose NVM copy is *not yet* current (they are
        #: waiting for an epoch commit or an atomic batch).  Loads consult
        #: this before NVM so a stale image is never re-verified against
        #: an already-updated parent.  Values here originated on-chip and
        #: are therefore trusted without a verification walk.
        self.overlay: dict[int, bytes] = {}

    @property
    def stats(self) -> StatGroup:
        """Verification statistics."""
        return self._stats

    # -- encode/decode ---------------------------------------------------------------

    def encoded(self, line: CacheLine) -> bytes:
        """64 B NVM image of a cached metadata line."""
        if isinstance(line.data, CounterLine):
            return line.data.encode()
        if isinstance(line.data, (bytes, bytearray)):
            return bytes(line.data)
        raise TypeError(f"unexpected meta cache payload: {type(line.data)!r}")

    # -- installation with eviction policy ----------------------------------------------

    def install(self, addr: int, value: object, dirty: bool, verified: bool) -> CacheLine:
        """Insert *value* at *addr*, honouring the scheme's eviction hooks."""
        victim = self.cache.would_evict(addr)
        if victim is not None and victim.dirty and self.pre_evict is not None:
            self.pre_evict(victim)
        victim = self.cache.fill(addr, value, dirty)
        if victim is not None and victim.dirty:
            if self.on_dirty_evict is None:
                raise RuntimeError(
                    "dirty metadata evicted with no write-back policy installed"
                )
            self.on_dirty_evict(victim)
        line = self.cache.probe(addr)
        line.verified = line.verified or verified
        return line

    # -- raw NVM decode ---------------------------------------------------------------

    def _decode(self, addr: int, raw: bytes) -> object:
        # Tree addresses only: the counter region lies below the others.
        return CounterLine.decode(raw) if addr < self.layout.hmac_base else raw

    def _adopt_overlay(self, addr: int) -> CacheLine | None:
        """Install *addr*'s overlay value, if any, as a trusted dirty line:
        it originated on-chip, and its NVM copy stays stale until the commit."""
        pending = self.overlay.pop(addr, None)
        if pending is None:
            return None
        return self.install(addr, self._decode(addr, pending), dirty=True, verified=True)

    # -- verified loads ----------------------------------------------------------------

    def load_verified(self, addr: int) -> AccessResult:
        """Load the metadata line at *addr*, authenticating it if uncached.

        On a miss, reads the line and every uncached ancestor from NVM,
        verifies the chain top-down starting from the first trusted
        ancestor (a cached node, or the TCB ``root_new`` register), and
        installs all of it as clean+verified.  Raises
        :class:`IntegrityError` on any mismatch, naming the offending
        node — runtime detection *and location* of integrity attacks.
        """
        line, cycles, hit = self.load_line(addr)
        return AccessResult(line.data, cycles, hit)

    def load_line(self, addr: int) -> tuple[CacheLine, int, bool]:
        """:meth:`load_verified`, returning the resident line itself.

        One counted lookup of *addr*: a hit costs the hit latency; a miss
        adopts *addr*'s overlay value or fetches and verifies it.  Returns
        the line, the cycles of the whole load and whether the lookup hit.
        Tree walks update the line they get, so a level costs one lookup.
        """
        line = self.cache.access(addr)
        if line is not None:
            return line, self._hit_latency, True
        installed = self._adopt_overlay(addr)
        if installed is not None:
            return installed, self._hit_latency, False

        self.walk_depth += 1
        try:
            line, cycles = self._walk_and_verify(addr)
        finally:
            self.walk_depth -= 1
        return line, cycles, False

    def _walk_and_verify(self, addr: int) -> tuple[CacheLine, int]:
        # Collect the uncached suffix of the path, target first, upward:
        # (address, NVM bytes, slot in the parent) per fetched node.
        chain: list[tuple[int, bytes, int]] = []
        node_addr = addr
        trusted = None  # the topmost fetched node verifies against root_new
        cycles = self._hit_latency  # the lookup that missed
        for parent_addr, slot in self.layout.tree_path(addr):
            raw = self._read_line(node_addr)
            cycles += self._read_cycles
            chain.append((node_addr, raw, slot))
            if parent_addr is None:
                break
            parent_line = self.cache.access(parent_addr)
            if parent_line is not None:
                cycles += self._hit_latency
                trusted = parent_line.data
                break
            installed = self._adopt_overlay(parent_addr)
            if installed is not None:
                cycles += self._hit_latency
                trusted = installed.data
                break
            node_addr = parent_addr
        self._verify_walks.sample(len(chain))

        # Verify top-down: the topmost fetched node against the trusted
        # source, then each fetched node against the one above it.
        above = self.tcb.root_new if trusted is None else bytes(trusted)
        for node_addr, raw, slot in reversed(chain):
            computed = self.engine.counter_hmac(raw)
            cycles += self._hmac_cycles
            if not self.engine.verify(read_slot(above, slot), computed):
                self._integrity_failures.inc()
                node = self.layout.node_of_addr(node_addr)
                raise IntegrityError(
                    f"counter HMAC mismatch at level {node.level}, "
                    f"index {node.index} (addr {node_addr:#x})",
                    node=node,
                )
            above = raw
            line = self.cache.probe(node_addr)
            if line is not None:
                # A nested eviction's lazy propagation (re)installed —
                # and possibly updated — this node while the walk was in
                # flight; the on-chip copy is newer than our NVM
                # snapshot and must not be clobbered.
                line.verified = True
                continue
            line = self.install(node_addr, self._decode(node_addr, raw), dirty=False, verified=True)

        # *addr* is the chain's first entry, so the last one installed.
        return line, cycles

    def load_counter(self, data_addr: int) -> AccessResult:
        """Verified load of the counter line covering *data_addr*'s page."""
        # load_verified, inline: this runs on every demand fill.
        line, cycles, hit = self.load_line(self.layout.counter_line_addr(data_addr))
        return AccessResult(line.data, cycles, hit)

    def load_node(self, node: MerkleNodeId) -> AccessResult:
        """Verified load of one tree node (leaf or internal)."""
        return self.load_verified(self.layout.merkle_node_addr(node))

    # -- unverified state inspection ----------------------------------------------------

    def probe(self, addr: int) -> CacheLine | None:
        """Presence check without LRU/statistics effects."""
        return self.cache.probe(addr)

    def dirty_addresses(self) -> list[int]:
        """Addresses of every dirty line currently resident (sorted)."""
        return sorted(line.addr for line in self.cache.dirty_lines())

    def crash(self) -> None:
        """Power failure: all volatile meta-cache contents are lost."""
        self.cache.drop_all()
        self.overlay.clear()
