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
    CACHE_LINE_BITS,
    CACHE_LINE_SIZE,
    HMAC_SIZE,
    MERKLE_ARITY,
    PAGE_SIZE,
)

#: A node's parent index is ``index >> _ARITY_BITS``, its slot there
#: ``index & _SLOT_MASK``.
_ARITY_BITS = MERKLE_ARITY.bit_length() - 1
_SLOT_MASK = MERKLE_ARITY - 1
#: Region names in address order (see :meth:`MemoryLayout.region_of`).
REGIONS = ("data", "counter", "data_hmac", "merkle")


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
        #: First address of every region but the data region.
        self.region_bounds = (self.counter_base, self.hmac_base, self.merkle_base)

        # Tree geometry: level_counts[k] = number of nodes at level k.
        counts = [self.num_pages]
        while counts[-1] > 1:
            counts.append((counts[-1] + MERKLE_ARITY - 1) // MERKLE_ARITY)
        self.level_counts: tuple[int, ...] = tuple(counts)
        #: Total tree levels including the counter leaves and the root.
        self.num_levels = len(counts)
        #: Level number of the root node (``num_levels - 1``).
        self.root_level = len(counts) - 1

        # First address of each NVM-resident tree level: the counter leaves,
        # then internal levels 1 .. root_level-1 (the root lives in the TCB).
        starts = [self.counter_base]
        cursor = self.merkle_base
        for level in range(1, self.root_level):
            starts.append(cursor)
            cursor += self.level_counts[level] * CACHE_LINE_SIZE
        self._level_starts = tuple(starts)
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
        return [
            MerkleNodeId(level, leaf_index >> (_ARITY_BITS * level))
            for level in range(1, self.num_levels)
        ]

    def tree_path(self, addr: int) -> list[tuple[int | None, int]]:
        """The Merkle path above tree node *addr*, bottom-up, as integers.

        One ``(parent address, slot in that parent)`` pair per level; the
        last pair's address is ``None``: the root lives in the TCB.  The
        same walk as :meth:`parent_of`, :meth:`slot_in_parent` and
        :meth:`merkle_node_addr` from ``node_of_addr(addr)``, without a
        node id per level, for the runtime tree walks.
        """
        starts = self._level_starts
        level = bisect_right(starts, addr) - 1
        index = (addr - starts[level]) >> CACHE_LINE_BITS
        if level < 0 or index >= self.level_counts[level]:
            raise ValueError(f"address {addr:#x} is not a tree-node address")
        if level == self.root_level:
            raise ValueError("the root has no parent")
        path: list[tuple[int | None, int]] = []
        for start in starts[level + 1:]:
            path.append((start + (index >> _ARITY_BITS << CACHE_LINE_BITS), index & _SLOT_MASK))
            index >>= _ARITY_BITS
        path.append((None, index & _SLOT_MASK))
        return path

    def tree_parent(self, addr: int) -> tuple[int | None, int]:
        """``tree_path(addr)[0]`` without the rest of the path.

        Tree node *addr*'s parent address (``None`` when the parent is
        the root, in the TCB) and its slot there: for the walks that
        fold one node into its parent, cc-NVM's drain-time spread and
        w/o CC's lazy propagation.
        """
        starts = self._level_starts
        level = bisect_right(starts, addr) - 1
        index = (addr - starts[level]) >> CACHE_LINE_BITS
        if level < 0 or index >= self.level_counts[level]:
            raise ValueError(f"address {addr:#x} is not a tree-node address")
        slot = index & _SLOT_MASK
        if level + 1 == len(starts):
            return None, slot
        return starts[level + 1] + (index >> _ARITY_BITS << CACHE_LINE_BITS), slot

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
        if 0 < node.level == self.root_level:
            raise ValueError("the root is stored in the TCB, not in NVM")
        if not 0 <= node.level < len(self._level_starts):
            raise ValueError(f"no such tree level: {node.level}")
        if not 0 <= node.index < self.level_counts[node.level]:
            raise ValueError(f"node index {node.index} out of range at level {node.level}")
        return self._level_starts[node.level] + node.index * CACHE_LINE_SIZE

    def node_of_addr(self, addr: int) -> MerkleNodeId:
        """Inverse of :meth:`merkle_node_addr` for counter/Merkle addresses."""
        position = self.node_position(addr)
        if position is None:
            raise ValueError(f"address {addr:#x} is not a tree-node address")
        return MerkleNodeId(*position)

    def level_of_addr(self, addr: int) -> int:
        """``node_of_addr(addr).level`` for a counter or Merkle-node address.

        A bisection over the level bounds, without validating *addr*
        (``-1`` below the counter region; a data-HMAC address reads as
        level 0): for hot loops over addresses already known to be tree
        nodes, such as meta-cache contents.
        """
        return bisect_right(self._level_starts, addr) - 1

    def node_position(self, addr: int) -> tuple[int, int] | None:
        """``(level, index)`` of the tree node stored at line *addr*, or None.

        :meth:`node_of_addr` as integers, for the whole-image scans that
        map every touched line: ``None`` for a data or data-HMAC line (or
        past the tree) instead of raising, and no :class:`MerkleNodeId`.
        """
        starts = self._level_starts
        level = bisect_right(starts, addr) - 1
        if level < 0:
            return None
        index = (addr - starts[level]) >> CACHE_LINE_BITS
        if index >= self.level_counts[level]:
            return None
        return level, index

    def node_line_addr(self, level: int, index: int) -> int:
        """:meth:`merkle_node_addr` of ``MerkleNodeId(level, index)``,
        unvalidated: for indices a scan already knows to be in range."""
        return self._level_starts[level] + (index << CACHE_LINE_BITS)

    def region_of(self, addr: int) -> str:
        """Region name ('data' | 'counter' | 'data_hmac' | 'merkle') of *addr*."""
        if addr < 0 or addr >= self.total_capacity:
            raise ValueError(f"address {addr:#x} outside the device")
        return REGIONS[bisect_right(self.region_bounds, addr)]

    def metadata_addresses_for_writeback(self, data_addr: int) -> list[int]:
        """Every metadata line a write-back to *data_addr* can dirty.

        This is the deterministic address set Section 4.2 relies on ("for a
        specific data block, the related metadata addresses are
        deterministic"): the counter line plus the NVM-resident ancestors
        on its Merkle path (the root is in the TCB).  The data HMAC line is
        excluded — data HMACs bypass the meta cache.
        """
        counter_addr = self.counter_line_addr(data_addr)
        return self.metadata_addresses_on_path(counter_addr, self.tree_path(counter_addr))

    @staticmethod
    def metadata_addresses_on_path(
        counter_addr: int, path: list[tuple[int | None, int]]
    ) -> list[int]:
        """:meth:`metadata_addresses_for_writeback` of a block whose counter
        line is *counter_addr*, given ``tree_path(counter_addr)`` as *path*
        (the write-back walks that follow reuse the same path)."""
        return [counter_addr, *(a for a, _ in path[:-1])]
