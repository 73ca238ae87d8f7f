"""Physical address map of the secure NVM.

The device holds four regions.  The *data* region is what software sees;
the three metadata regions are managed by the memory controller:

::

    +-------------------+ 0
    |  data             |  user-visible capacity C
    +-------------------+ C
    |  counters         |  one 64 B split-counter line per 4 KB data page
    +-------------------+
    |  data HMACs       |  one 128-bit HMAC per 64 B data block
    +-------------------+
    |  Merkle nodes     |  internal levels of the 4-ary Bonsai MT
    +-------------------+

The Merkle tree's leaf level *is* the counter region (Bonsai MT
authenticates counters, not data — data is covered by the data HMACs,
which take the tree-protected counter as an input).  The root lives in an
on-chip TCB register and is never stored in NVM.  For the paper's 16 GB
device this yields 4 Mi counter lines and a 12-level tree: level 0 (the
counter leaves) through level 11 (the root), with levels 1..10 — the "10
internal path nodes" of Section 5.2 — resident in NVM.

All mappings are pure arithmetic; nothing is materialized, so a full
16 GB map costs a few integers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.common.address import block_in_page, line_align, page_index
from repro.common.constants import (
    CACHE_LINE_SIZE,
    HMAC_SIZE,
    MERKLE_ARITY,
    PAGE_SIZE,
)


@dataclass(frozen=True)
class MerkleNodeId:
    """Identity of one Merkle-tree node: (level, index within level).

    Level 0 is the counter-line leaf level; the highest level has a single
    node, the root.
    """

    level: int
    index: int


class MemoryLayout:
    """Computes every address mapping of the secure-NVM address space."""

    def __init__(self, data_capacity: int) -> None:
        if data_capacity <= 0 or data_capacity % PAGE_SIZE:
            raise ValueError("data capacity must be a positive multiple of the page size")
        self.data_capacity = data_capacity
        self.num_pages = data_capacity // PAGE_SIZE
        self.num_data_lines = data_capacity // CACHE_LINE_SIZE

        # Region bases.
        self.counter_base = data_capacity
        counter_bytes = self.num_pages * CACHE_LINE_SIZE
        self.hmac_base = self.counter_base + counter_bytes
        hmac_bytes = self.num_data_lines * HMAC_SIZE
        # Round the HMAC region up to a whole line.
        hmac_bytes = (hmac_bytes + CACHE_LINE_SIZE - 1) & ~(CACHE_LINE_SIZE - 1)
        self.merkle_base = self.hmac_base + hmac_bytes

        # Tree geometry: level_counts[k] = number of nodes at level k.
        counts = [self.num_pages]
        while counts[-1] > 1:
            counts.append((counts[-1] + MERKLE_ARITY - 1) // MERKLE_ARITY)
        self.level_counts: tuple[int, ...] = tuple(counts)
        #: Total tree levels including the counter leaves and the root.
        self.num_levels = len(counts)
        #: Level number of the root node (``num_levels - 1``).
        self.root_level = len(counts) - 1

        # NVM offsets for internal levels 1 .. root_level-1 (leaves live in
        # the counter region; the root lives in the TCB).
        offsets: dict[int, int] = {}
        cursor = self.merkle_base
        for level in range(1, self.root_level):
            offsets[level] = cursor
            cursor += self.level_counts[level] * CACHE_LINE_SIZE
        self._level_offsets = offsets
        # First address of each NVM-resident tree level, level 0 first.
        self._level_starts = (self.counter_base, *offsets.values())
        self.total_capacity = cursor

    # -- tree geometry -----------------------------------------------------

    @property
    def root(self) -> MerkleNodeId:
        """The root node id."""
        return MerkleNodeId(self.root_level, 0)

    def parent_of(self, node: MerkleNodeId) -> MerkleNodeId:
        """Parent node of *node* (undefined for the root)."""
        if node.level >= self.root_level:
            raise ValueError("the root has no parent")
        return MerkleNodeId(node.level + 1, node.index // MERKLE_ARITY)

    def children_of(self, node: MerkleNodeId) -> list[MerkleNodeId]:
        """Children of an internal *node* (empty for leaves)."""
        if node.level == 0:
            return []
        child_level = node.level - 1
        first = node.index * MERKLE_ARITY
        last = min(first + MERKLE_ARITY, self.level_counts[child_level])
        return [MerkleNodeId(child_level, i) for i in range(first, last)]

    def slot_in_parent(self, node: MerkleNodeId) -> int:
        """Which of the parent's HMAC slots (0..3) covers *node*."""
        if node.level >= self.root_level:
            raise ValueError("the root has no parent slot")
        return node.index % MERKLE_ARITY

    def ancestors_of_leaf(self, leaf_index: int) -> list[MerkleNodeId]:
        """All ancestors of counter leaf *leaf_index*, bottom-up, root last."""
        if not 0 <= leaf_index < self.num_pages:
            raise ValueError(f"leaf index {leaf_index} out of range")
        nodes = []
        node = MerkleNodeId(0, leaf_index)
        while node.level < self.root_level:
            node = self.parent_of(node)
            nodes.append(node)
        return nodes

    # -- address mappings ----------------------------------------------------

    def check_data_address(self, addr: int) -> None:
        """Raise if *addr* is not a valid data-region address."""
        if not 0 <= addr < self.data_capacity:
            raise ValueError(f"address {addr:#x} outside the data region")

    def counter_line_addr(self, data_addr: int) -> int:
        """NVM address of the counter line covering *data_addr*'s page."""
        self.check_data_address(data_addr)
        return self.counter_base + page_index(data_addr) * CACHE_LINE_SIZE

    def counter_leaf_index(self, data_addr: int) -> int:
        """Merkle leaf index (= page index) covering *data_addr*."""
        self.check_data_address(data_addr)
        return page_index(data_addr)

    def leaf_index_of_counter_addr(self, counter_addr: int) -> int:
        """Inverse of :meth:`counter_line_addr` for counter-region lines."""
        if not self.counter_base <= counter_addr < self.hmac_base:
            raise ValueError(f"address {counter_addr:#x} not in the counter region")
        return (counter_addr - self.counter_base) // CACHE_LINE_SIZE

    def block_slot(self, data_addr: int) -> int:
        """Index (0..63) of *data_addr*'s block inside its counter line."""
        self.check_data_address(data_addr)
        return block_in_page(data_addr)

    def data_hmac_location(self, data_addr: int) -> tuple[int, int]:
        """(line address, byte offset) of the data HMAC for *data_addr*'s block.

        Four 128-bit data HMACs share one 64 B metadata line.
        """
        self.check_data_address(data_addr)
        block = line_align(data_addr) // CACHE_LINE_SIZE
        byte_pos = self.hmac_base + block * HMAC_SIZE
        return line_align(byte_pos), byte_pos & (CACHE_LINE_SIZE - 1)

    def merkle_node_addr(self, node: MerkleNodeId) -> int:
        """NVM address of a tree node.

        Valid for leaves (counter region) and internal levels; the root has
        no NVM address (it lives in the TCB) and raises.
        """
        if node.level == 0:
            if not 0 <= node.index < self.num_pages:
                raise ValueError(f"leaf index {node.index} out of range")
            return self.counter_base + node.index * CACHE_LINE_SIZE
        if node.level == self.root_level:
            raise ValueError("the root is stored in the TCB, not in NVM")
        if not 0 < node.level < self.root_level:
            raise ValueError(f"no such tree level: {node.level}")
        if not 0 <= node.index < self.level_counts[node.level]:
            raise ValueError(f"node index {node.index} out of range at level {node.level}")
        return self._level_offsets[node.level] + node.index * CACHE_LINE_SIZE

    def node_of_addr(self, addr: int) -> MerkleNodeId:
        """Inverse of :meth:`merkle_node_addr` for counter/Merkle addresses."""
        level = self.level_of_addr(addr)
        if level >= 0:
            index = (addr - self._level_starts[level]) // CACHE_LINE_SIZE
            if index < self.level_counts[level]:
                return MerkleNodeId(level, index)
        raise ValueError(f"address {addr:#x} is not a tree-node address")

    def level_of_addr(self, addr: int) -> int:
        """``node_of_addr(addr).level`` for a counter or Merkle-node address.

        A bisection over the level bounds, without validating *addr*
        (``-1`` below the counter region; a data-HMAC address reads as
        level 0): for hot loops over addresses already known to be tree
        nodes, such as meta-cache contents.
        """
        return bisect_right(self._level_starts, addr) - 1

    def region_of(self, addr: int) -> str:
        """Region name ('data' | 'counter' | 'data_hmac' | 'merkle') of *addr*."""
        if addr < 0 or addr >= self.total_capacity:
            raise ValueError(f"address {addr:#x} outside the device")
        if addr < self.counter_base:
            return "data"
        if addr < self.hmac_base:
            return "counter"
        if addr < self.merkle_base:
            return "data_hmac"
        return "merkle"

    def metadata_addresses_for_writeback(self, data_addr: int) -> list[int]:
        """Every metadata line a write-back to *data_addr* can dirty.

        This is the deterministic address set Section 4.2 relies on ("for a
        specific data block, the related metadata addresses are
        deterministic"): the counter line plus the NVM-resident ancestors
        on its Merkle path (the root is in the TCB).  The data HMAC line is
        excluded — data HMACs bypass the meta cache.
        """
        leaf = self.counter_leaf_index(data_addr)
        addrs = [self.counter_line_addr(data_addr)]
        for node in self.ancestors_of_leaf(leaf):
            if node.level < self.root_level:
                addrs.append(self.merkle_node_addr(node))
        return addrs
