"""The genesis (format-time) image of a secure NVM device.

When a secure-NVM DIMM is provisioned, the memory controller initializes
every region to a well-defined state: all encryption counters are zero,
every data block holds the counter-mode encryption of all-zero plaintext
under counter (0, 0), the data-HMAC region holds matching codes, and the
Merkle tree is built over the all-zero counter region.

Materializing that image for a 16 GB device is out of the question, but it
does not need to be: with content-keyed counter HMACs every untouched
subtree of a given level has the *same* node value, and untouched data and
HMAC lines are pure functions of their address.  :class:`GenesisImage`
computes any line of the pristine image on demand; plugged into the NVM
device as its line initializer, it makes the lazy sparse image
indistinguishable from a fully initialized DIMM.

The image is a pure function of the two keys and the data capacity, so
:meth:`GenesisImage.for_keys` hands every scheme built with the same keys
and capacity the same image, and the lines it computes are remembered
once per process instead of once per scheme.
"""

from __future__ import annotations

import weakref

from repro.common.constants import (
    CACHE_LINE_BITS,
    CACHE_LINE_SIZE,
    HMAC_SIZE,
    MERKLE_ARITY,
)
from repro.crypto.cme import CounterModeCipher
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey
from repro.metadata.counters import zero_counter_line
from repro.metadata.layout import MemoryLayout

#: Pristine data and data-HMAC lines remembered per process, over every
#: image; all memos are emptied when they hold this many.  Never-written
#: lines are not stored in the device, so every read of one asks the image
#: again — above all the data-HMAC line, which is read once per
#: first-touch block and covers four neighbours — and every scheme built
#: with the same keys reads the same lines.  32 Ki lines hold one
#: Figure-5 workload's footprint at 12,000 references (at most about 5.6 MB).
LINE_MEMO_ENTRIES = 32768

#: Images :meth:`GenesisImage.for_keys` keeps, oldest dropped first.
SHARED_IMAGES = 4


class _LineMemo:
    """Bounds the line memos of every live image together."""

    def __init__(self) -> None:
        self.images: weakref.WeakSet[GenesisImage] = weakref.WeakSet()
        #: Lines stored since the last emptying, dead images' included.
        self.size = 0

    def store(self, lines: dict[int, bytes], addr: int, value: bytes) -> None:
        if self.size >= LINE_MEMO_ENTRIES:
            self.clear()
        lines[addr] = value
        self.size += 1

    def clear(self) -> None:
        for image in self.images:
            image._lines.clear()
        self.size = 0


_memo = _LineMemo()
#: ``(encryption key, HMAC key, data capacity) -> image``.
_images: dict[tuple[SecretKey, SecretKey, int], "GenesisImage"] = {}


class GenesisImage:
    """Lazily computes the pristine contents of any NVM line."""

    def __init__(
        self,
        layout: MemoryLayout,
        encryption_key: SecretKey,
        hmac_key: SecretKey,
    ) -> None:
        self.layout = layout
        self._cipher = CounterModeCipher(encryption_key)
        # A private engine so format-time work never pollutes runtime
        # HMAC-computation statistics.
        self._engine = HmacEngine(hmac_key)
        self._level_nodes: dict[int, bytes] = {}
        self._level_hmacs: dict[int, bytes] = {}
        self._lines: dict[int, bytes] = {}
        _memo.images.add(self)

    @classmethod
    def for_keys(
        cls,
        layout: MemoryLayout,
        encryption_key: SecretKey,
        hmac_key: SecretKey,
    ) -> "GenesisImage":
        """The process's image for these keys and *layout*'s capacity.

        Keys compare by key material, so schemes derived from the same
        seed share one image and its memoized lines.
        """
        key = (encryption_key, hmac_key, layout.data_capacity)
        image = _images.get(key)
        if image is None:
            if len(_images) >= SHARED_IMAGES:
                del _images[next(iter(_images))]
            image = _images[key] = cls(layout, encryption_key, hmac_key)
        return image

    # -- per-region values --------------------------------------------------------

    def data_line(self, addr: int) -> bytes:
        """Pristine data block: all-zero plaintext under counter (0, 0)."""
        return self._cipher.encrypt(bytes(CACHE_LINE_SIZE), addr, 0, 0)

    def data_hmac(self, addr: int) -> bytes:
        """Pristine data HMAC matching :meth:`data_line`."""
        return self._engine.data_hmac(self.data_line(addr), addr, 0, 0)

    def hmac_line(self, line_addr: int) -> bytes:
        """Pristine 64 B line of the data-HMAC region (4 packed codes)."""
        first_block = (line_addr - self.layout.hmac_base) // HMAC_SIZE
        parts = []
        for i in range(CACHE_LINE_SIZE // HMAC_SIZE):
            data_addr = (first_block + i) * CACHE_LINE_SIZE
            if data_addr < self.layout.data_capacity:
                parts.append(self.data_hmac(data_addr))
            else:
                parts.append(bytes(HMAC_SIZE))
        return b"".join(parts)

    def node(self, level: int) -> bytes:
        """The uniform pristine tree-node value at *level*.

        Level 0 is the all-zero counter line; each higher level packs
        four copies of the previous level's HMAC.  For layouts whose page
        count is not a power of four, partial nodes carry the uniform
        value in their dangling slots too — harmless, since verification
        only ever consults slots of children that exist (covered by the
        odd-geometry integration tests).
        """
        if level == 0:
            return zero_counter_line()
        cached = self._level_nodes.get(level)
        if cached is None:
            cached = self.node_hmac(level - 1) * MERKLE_ARITY
            self._level_nodes[level] = cached
        return cached

    def node_hmac(self, level: int) -> bytes:
        """HMAC of the pristine node value at *level*."""
        cached = self._level_hmacs.get(level)
        if cached is None:
            cached = self._engine.counter_hmac(self.node(level))
            self._level_hmacs[level] = cached
        return cached

    def root_register(self) -> bytes:
        """Pristine value of the TCB root registers (the genesis root node)."""
        return self.node(self.layout.root_level)

    # -- pristine codes for a runtime engine ----------------------------------------

    def memoized_data_hmac(self, ciphertext: bytes, addr: int) -> bytes | None:
        """Block *addr*'s pristine data HMAC, if the line memo holds it and
        *ciphertext* is the memoized pristine data line; else ``None``.

        Both lines are in the memo right after a first-touch fill read
        them, so the code under counter (0, 0) is a slice, not a hash.
        Computes nothing: a miss leaves the caller to hash as usual.
        """
        lines = self._lines
        if lines.get(addr) != ciphertext:
            return None
        layout = self.layout
        code_addr = layout.hmac_base + (addr >> CACHE_LINE_BITS) * HMAC_SIZE
        codes = lines.get(code_addr & ~(CACHE_LINE_SIZE - 1))
        if codes is None:
            return None
        offset = code_addr & (CACHE_LINE_SIZE - 1)
        return codes[offset:offset + HMAC_SIZE]

    def node_hmacs(self) -> dict[bytes, bytes]:
        """Pristine node value -> its HMAC, one entry per NVM-resident level."""
        return {
            self.node(level): self.node_hmac(level)
            for level in range(self.layout.root_level)
        }

    # -- the NVM initializer hook -------------------------------------------------

    def line(self, addr: int) -> bytes:
        """Pristine contents of any line — the NVM device's initializer."""
        cached = self._lines.get(addr)
        if cached is not None:
            return cached
        region = self.layout.region_of(addr)
        if region == "data":
            value = self.data_line(addr)
        elif region == "data_hmac":
            value = self.hmac_line(addr)
        else:  # a tree node: the counter leaves are level 0
            return self.node(self.layout.level_of_addr(addr))
        _memo.store(self._lines, addr, value)
        return value
