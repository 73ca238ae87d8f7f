"""Data-HMAC and counter-HMAC computation.

Two kinds of authentication codes exist in the Bonsai Merkle Tree
architecture (Section 2.2, Figure 1):

* **Data HMACs** — one 128-bit code per data block, computed over the
  *encrypted* data, the block address and the block's encryption counter:
  ``DH = HMAC(encrypted_data || address || counter)``.  They defeat spoofing
  and splicing, and — because the counter is an input — inherit replay
  protection from the counter tree.  Data HMACs are stored alongside the
  data in NVM and are *not* cached in the meta cache; they are generated in
  the memory controller and written back atomically with the data (the
  property Section 4.4's counter recovery relies on).
* **Counter HMACs** — the internal nodes of the Merkle tree: each parent
  stores the 128-bit HMAC of each of its four children
  (``CH = HMAC(child_node)``), keyed with the TCB HMAC key.

The engine also counts every HMAC computation so the deferred-spreading
ablation can report calculation savings, and exposes the paper's 80-cycle
latency for the timing layer.

Recovery recomputes the same codes over and over: the counter roll-forward
retries a block's data HMAC at ``minor+1 … minor+N`` on every crash state,
and the whole-image Merkle operations rehash the same stored nodes.  The
``recovery_*`` variants consult one bounded memo keyed on every input, so a
repeat costs a dictionary lookup.  A hit still counts as a computation —
the statistics describe the modeled hardware, which keeps no such memo.
The runtime read/write path never consults it (see DESIGN.md).

A runtime engine may also take a *pristine* source, the device's genesis
image: a data HMAC of the memoized genesis data line under counter
(0, 0) is sliced from the memoized genesis HMAC line, and a pristine
tree node's code is read from one entry per level.  Both equal the
computed code, count as a computation, and are still compared against
the stored code by the caller.
"""

from __future__ import annotations

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE
from repro.common.stats import StatGroup
from repro.crypto.prf import SecretKey, constant_time_equal

#: Codes remembered per engine by the ``recovery_*`` variants; the memo is
#: emptied when full.  The bound holds every distinct code of a hot-set
#: campaign shard (a whole 24-shard pass computes about 1,200).
RECOVERY_MEMO_ENTRIES = 4096

# ``keyed_hash``'s length prefixes for the fixed-width HMAC inputs, so the
# message is built in one concatenation with the same bytes.
_LEN_LINE = CACHE_LINE_SIZE.to_bytes(4, "little")
_LEN_8 = (8).to_bytes(4, "little")
_LEN_2 = (2).to_bytes(4, "little")


class HmacEngine:
    """Computes data HMACs and counter HMACs with one TCB key."""

    def __init__(
        self, key: SecretKey, stats: StatGroup | None = None, pristine=None
    ) -> None:
        self._stats = stats if stats is not None else StatGroup("hmac")
        self._data_hmacs = self._stats.counter(
            "data_hmacs", "data HMAC computations"
        )
        self._counter_hmacs = self._stats.counter(
            "counter_hmacs", "counter HMAC (Merkle node) computations"
        )
        #: The key's RFC 2104 states; every computed code continues from
        #: copies of them (``keyed_hash`` over the length-prefixed message).
        self._inner, self._outer = key.hmac_states("sha1")
        #: Recovery-side codes: ``(ciphertext, address, major, minor)`` for
        #: data HMACs, the node bytes for counter HMACs.
        self.recovery_memo: dict[object, bytes] = {}
        #: The optional genesis image's code sources (see module docstring).
        self._pristine_data = None
        self._pristine_nodes: dict[bytes, bytes] = {}
        if pristine is not None:
            self._pristine_data = pristine.memoized_data_hmac
            self._pristine_nodes = pristine.node_hmacs()

    @property
    def stats(self) -> StatGroup:
        """Statistics group with computation counts."""
        return self._stats

    @property
    def data_hmac_count(self) -> int:
        """Total data-HMAC computations performed so far."""
        return self._data_hmacs.value

    @property
    def counter_hmac_count(self) -> int:
        """Total counter-HMAC (tree-node) computations performed so far."""
        return self._counter_hmacs.value

    def data_hmac(
        self, encrypted_data: bytes, address: int, major: int, minor: int
    ) -> bytes:
        """128-bit data HMAC of one encrypted block.

        Inputs follow Figure 1: encrypted data, address, and the block's
        (split) encryption counter.  The code equals ``keyed_hash(key,
        encrypted_data, address, major, minor)`` with the integers as 8-,
        8- and 2-byte little-endian fields.
        """
        if len(encrypted_data) != CACHE_LINE_SIZE:
            raise ValueError("data HMAC covers exactly one cache line")
        self._data_hmacs.value += 1
        if major == minor == 0 and self._pristine_data is not None:
            code = self._pristine_data(encrypted_data, address)
            if code is not None:
                return code
        inner = self._inner.copy()
        inner.update(
            _LEN_LINE
            + encrypted_data
            + _LEN_8
            + address.to_bytes(8, "little")
            + _LEN_8
            + major.to_bytes(8, "little")
            + _LEN_2
            + minor.to_bytes(2, "little")
        )
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:HMAC_SIZE]

    def counter_hmac(self, child_node: bytes) -> bytes:
        """128-bit HMAC of one child tree node (counter line or inner node).

        A node's position is authenticated *positionally*: the code is
        stored in the slot of the parent that the tree structure assigns
        to this child, so relocating a node to any other tree position
        lands it under a slot holding some other child's HMAC.  (Data-level
        splicing is separately caught by the address-keyed data HMACs.)
        Content-only keying also gives every tree level a uniform
        "genesis" value for untouched subtrees, which is what lets a full
        16 GB device be modeled lazily.
        """
        if len(child_node) != CACHE_LINE_SIZE:
            raise ValueError("counter HMAC covers exactly one tree node")
        self._counter_hmacs.value += 1
        if self._pristine_nodes:
            code = self._pristine_nodes.get(child_node)
            if code is not None:
                return code
        inner = self._inner.copy()
        inner.update(_LEN_LINE + child_node)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:HMAC_SIZE]

    # -- recovery-side memoized variants ---------------------------------------

    def _remember(self, key: object, code: bytes) -> bytes:
        memo = self.recovery_memo
        if len(memo) >= RECOVERY_MEMO_ENTRIES:
            memo.clear()
        memo[key] = code
        return code

    def recovery_data_hmac(
        self, encrypted_data: bytes, address: int, major: int, minor: int
    ) -> bytes:
        """:meth:`data_hmac` through the recovery memo (same code, same count)."""
        key = (bytes(encrypted_data), address, major, minor)
        code = self.recovery_memo.get(key)
        if code is None:
            return self._remember(key, self.data_hmac(*key))
        self._data_hmacs.value += 1
        return code

    def recovery_counter_hmac(self, child_node: bytes) -> bytes:
        """:meth:`counter_hmac` through the recovery memo (same code, same count)."""
        key = bytes(child_node)
        code = self.recovery_memo.get(key)
        if code is None:
            return self._remember(key, self.counter_hmac(key))
        self._counter_hmacs.value += 1
        return code

    def verify(self, expected: bytes, actual: bytes) -> bool:
        """Constant-time comparison of two HMAC codewords."""
        if len(expected) != HMAC_SIZE or len(actual) != HMAC_SIZE:
            raise ValueError("HMAC codewords are 128-bit")
        return constant_time_equal(expected, actual)
