"""Bonsai Merkle Tree operations over the NVM image.

The tree authenticates the counter region (Figure 1): its leaves are the
64 B counter lines, each internal node packs the four 128-bit counter
HMACs of its children, and the root node lives in a TCB register.  This
module provides the *whole-image* operations — computing the root implied
by the counter region, checking the stored tree's internal consistency,
locating the first mismatching edges (how replay attacks are pinpointed
during recovery, Section 4.4 step 1), and rebuilding after counters have
been recovered.

All operations are **sparse**: untouched subtrees equal the genesis image
by construction, so only lines actually written (plus their ancestor
paths) are ever visited.  That is what makes the paper's full 16 GB
device — with its 12-level tree — directly simulable.

The *runtime* incremental path (cached verification, deferred spreading)
lives with the meta cache in :mod:`repro.metadata.metacache`; both share
the slot-manipulation helpers defined here.  Only recovery and the crash
checks run the whole-image operations, and they rehash the same stored
nodes state after state, so their node HMACs go through the engine's
recovery memo (:meth:`~repro.crypto.hmac_engine.HmacEngine.recovery_counter_hmac`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE, MERKLE_ARITY
from repro.crypto.hmac_engine import HmacEngine
from repro.mem.nvm import NVMDevice
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout, MerkleNodeId


def read_slot(node: bytes, slot: int) -> bytes:
    """Extract the *slot*-th (0..3) child HMAC from a 64 B tree node."""
    if not 0 <= slot < MERKLE_ARITY:
        raise ValueError(f"slot {slot} out of range")
    return bytes(node[slot * HMAC_SIZE:(slot + 1) * HMAC_SIZE])


def write_slot(node: bytes, slot: int, hmac: bytes) -> bytes:
    """Return *node* with its *slot*-th child HMAC replaced."""
    if not 0 <= slot < MERKLE_ARITY:
        raise ValueError(f"slot {slot} out of range")
    if len(hmac) != HMAC_SIZE:
        raise ValueError("HMAC codewords are 128-bit")
    if len(node) != CACHE_LINE_SIZE:
        raise ValueError("tree nodes are one cache line")
    return node[:slot * HMAC_SIZE] + bytes(hmac) + node[(slot + 1) * HMAC_SIZE:]


@dataclass(frozen=True)
class MismatchedEdge:
    """A parent/child pair whose stored HMAC disagrees with the child.

    ``parent`` is ``None`` when the mismatch is against the TCB root
    register itself.
    """

    parent: MerkleNodeId | None
    child: MerkleNodeId


class MerkleTree:
    """Sparse whole-image Bonsai MT over an NVM device's counter region."""

    def __init__(self, nvm: NVMDevice, engine: HmacEngine, genesis: GenesisImage) -> None:
        self.nvm = nvm
        self.layout: MemoryLayout = nvm.layout
        self.engine = engine
        self.genesis = genesis

    # -- sparse touched-node bookkeeping ------------------------------------------

    def _touched_nodes(self) -> dict[int, set[int]]:
        """Touched counter/Merkle lines grouped as {level: {index, ...}}."""
        per_level: dict[int, set[int]] = {}
        position = self.layout.node_position
        for addr in self.nvm.touched_lines():
            pos = position(addr)
            if pos is not None:
                per_level.setdefault(pos[0], set()).add(pos[1])
        return per_level

    # -- bulk operations ----------------------------------------------------------

    def _propagate(self, poke: bool) -> bytes:
        """Recompute the tree bottom-up over the affected sparse node set.

        Affected nodes are the touched counter leaves, every touched
        internal node, and all their ancestors; everything else is genesis
        and needs no work.  With *poke* the recomputed internal nodes are
        written back to the image (recovery's rebuild); without it the
        image is left untouched (a pure what-root-should-be query).
        Returns the implied 64 B root-node value.
        """
        layout = self.layout
        peek = self.nvm.peek
        node_addr = layout.node_line_addr
        node_hmac = self.engine.recovery_counter_hmac
        touched = self._touched_nodes()
        # Leaf inputs: the stored counter lines.
        current: dict[int, bytes] = {
            idx: peek(node_addr(0, idx)) for idx in touched.get(0, set())
        }
        for level in range(1, layout.num_levels):
            affected = {idx // MERKLE_ARITY for idx in current}
            affected |= touched.get(level, set())
            child_count = layout.level_counts[level - 1]
            parents: dict[int, bytes] = {}
            for parent_idx in affected:
                node = self.genesis.node(level)
                for slot in range(MERKLE_ARITY):
                    child_idx = parent_idx * MERKLE_ARITY + slot
                    if child_idx >= child_count:
                        break
                    child_val = current.get(child_idx)
                    if child_val is not None:
                        node = write_slot(node, slot, node_hmac(child_val))
                parents[parent_idx] = node
                if poke and level < layout.root_level:
                    self.nvm.poke(node_addr(level, parent_idx), node)
            current = parents
        return current.get(0, self.genesis.root_register())

    def compute_root(self) -> bytes:
        """Root-node value implied by the current counter region.

        Performs no NVM writes; this is the check recovery uses to ask
        "does the reconstructed tree match a TCB root?".
        """
        return self._propagate(poke=False)

    def build(self) -> bytes:
        """Rebuild every affected internal node in NVM from the counters.

        Used at recovery step 4 ("rebuild the Merkle Tree based on the
        recovered counters") and by tests that want a consistent image.
        Returns the 64 B root-node value for the TCB registers.
        """
        return self._propagate(poke=True)

    def find_mismatches(self, root_register: bytes) -> list[MismatchedEdge]:
        """Every stored parent/child edge whose HMAC check fails.

        Compares each relevant node against the HMAC its parent (or the
        TCB *root_register* for the top internal level) stores for it.
        Only edges adjacent to a touched node can mismatch — untouched
        edges are genesis-consistent — so the scan is sparse.  An
        internally consistent, untampered image returns ``[]``; a
        replayed node shows up as a mismatch on an adjacent edge, which
        is precisely how recovery *locates* normal replay attacks.
        Results are ordered bottom-up, leaf edges first.
        """
        layout = self.layout
        root_level = layout.root_level
        touched = self._touched_nodes()
        edges: set[tuple[int, int]] = set()  # child (level, index)
        for level, indices in touched.items():
            for index in indices:
                if level < root_level:
                    edges.add((level, index))  # the edge above this node
                if level:  # the edges below
                    first = index * MERKLE_ARITY
                    last = min(first + MERKLE_ARITY, layout.level_counts[level - 1])
                    edges.update((level - 1, child) for child in range(first, last))
        nvm = self.nvm
        node_addr = layout.node_line_addr
        mismatches = []
        for level, index in sorted(edges):
            parent_idx, slot = divmod(index, MERKLE_ARITY)
            if level + 1 == root_level:
                stored = read_slot(root_register, slot)
            else:
                stored = read_slot(nvm.peek(node_addr(level + 1, parent_idx)), slot)
            addr = node_addr(level, index)
            if nvm.is_touched(addr):
                actual = self.engine.recovery_counter_hmac(nvm.peek(addr))
            else:
                actual = self.genesis.node_hmac(level)
            if stored != actual:
                parent = (
                    None
                    if level + 1 == root_level
                    else MerkleNodeId(level + 1, parent_idx)
                )
                mismatches.append(MismatchedEdge(parent, MerkleNodeId(level, index)))
        return mismatches

    def verify_consistent(self, root_register: bytes) -> bool:
        """True when the stored tree matches itself and *root_register*."""
        return not self.find_mismatches(root_register)
