"""The encryption engine: the functional data path of the controller.

Every data block crossing the chip boundary passes through here
(Figure 2, step 2): write-backs are counter-mode encrypted and
authenticated with a fresh data HMAC; fills are decrypted and their HMAC
checked.  Data HMACs are "generated directly in the memory controller"
and written back atomically with their data block through the ADR-covered
WPQ (Section 4.4) — the property that makes post-crash counter recovery
possible.

The engine also handles the split-counter corner case: when a block's
7-bit minor counter overflows, the page's major counter advances and
every *other* block of the page is re-encrypted under its new (major, 0)
pair (the triggering block is written fresh by the caller and is skipped
to avoid one-time-pad reuse).
"""

from __future__ import annotations

from repro.common.address import page_align
from repro.common.constants import BLOCKS_PER_PAGE, CACHE_LINE_BITS, CACHE_LINE_SIZE, HMAC_SIZE
from repro.common.stats import StatGroup
from repro.crypto.cme import CounterModeCipher
from repro.crypto.hmac_engine import HmacEngine
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.metadata.counters import CounterLine
from repro.metadata.layout import MemoryLayout
from repro.metadata.metacache import IntegrityError

#: ``block_in_page(addr)`` is ``(addr >> CACHE_LINE_BITS) & _BLOCK_MASK``.
_BLOCK_MASK = BLOCKS_PER_PAGE - 1


class EncryptionEngine:
    """Encrypts, decrypts and authenticates data blocks at the controller."""

    def __init__(
        self,
        cipher: CounterModeCipher,
        hmac: HmacEngine,
        nvm: NVMDevice,
        wpq: WritePendingQueue,
        stats: StatGroup | None = None,
        reader=None,
    ) -> None:
        self.cipher = cipher
        self.hmac = hmac
        self.nvm = nvm
        self.wpq = wpq
        #: ``addr -> bytes`` used for device reads.  Defaults to the raw
        #: device; schemes pass the memory controller's retrying
        #: ``read_line`` so transient media faults are absorbed before the
        #: ciphertext reaches the decrypt/verify pipeline.
        self._read_line = reader if reader is not None else nvm.read_line
        self.layout: MemoryLayout = nvm.layout
        self._stats = stats if stats is not None else StatGroup("engine")
        self._writebacks = self._stats.counter("data_writebacks")
        self._fills = self._stats.counter("data_fills")
        self._reencryptions = self._stats.counter("page_reencryptions")

    @property
    def stats(self) -> StatGroup:
        """Data-path event counts."""
        return self._stats

    # -- write-back path -----------------------------------------------------------

    def write_data_block(
        self, addr: int, plaintext: bytes, counters: CounterLine
    ) -> None:
        """Encrypt and persist one write-back (data + data HMAC).

        *counters* must already hold the block's fresh (incremented)
        counter.  Both lines go through the WPQ as normal writes — durable
        on acceptance, which is what keeps data and data HMAC atomic
        across a crash.
        """
        if len(plaintext) != CACHE_LINE_SIZE:
            raise ValueError("write-backs are whole cache lines")
        # The one data-region check of *addr*; the WPQ checks alignment.
        hmac_line, offset = self.layout.data_hmac_location(addr)
        major = counters.major
        minor = counters.minors[(addr >> CACHE_LINE_BITS) & _BLOCK_MASK]
        ciphertext = self.cipher.encrypt(plaintext, addr, major, minor)
        code = self.hmac.data_hmac(ciphertext, addr, major, minor)
        self.wpq.begin_combined()
        self.wpq.write(addr, ciphertext)
        self.wpq.write_partial(hmac_line, offset, code)
        self.wpq.end_combined()
        self._writebacks.value += 1

    # -- fill path ----------------------------------------------------------------------

    def read_data_block(
        self, addr: int, counters: CounterLine, verify: bool = True
    ) -> bytes:
        """Fetch, decrypt and (optionally) authenticate one data block.

        Raises :class:`IntegrityError` when the stored data HMAC does not
        match the (data, address, counter) triple — runtime detection of
        spoofing and splicing.
        """
        # The one data-region check of *addr*; the device checks alignment.
        hmac_line, offset = self.layout.data_hmac_location(addr)
        major = counters.major
        minor = counters.minors[(addr >> CACHE_LINE_BITS) & _BLOCK_MASK]
        ciphertext = self._read_line(addr)
        if verify:
            stored = self._read_line(hmac_line)[offset:offset + HMAC_SIZE]
            computed = self.hmac.data_hmac(ciphertext, addr, major, minor)
            if not self.hmac.verify(bytes(stored), computed):
                raise IntegrityError(
                    f"data HMAC mismatch for block {addr:#x} "
                    f"(counter {major}.{minor})"
                )
        self._fills.value += 1
        return self.cipher.decrypt(ciphertext, addr, major, minor)

    # -- split-counter overflow ------------------------------------------------------------

    def reencrypt_page(
        self,
        page_addr: int,
        old_counters: CounterLine,
        new_counters: CounterLine,
        skip_block: int,
    ) -> int:
        """Re-encrypt a page after a minor-counter overflow.

        Every block except *skip_block* (the write-back that triggered the
        overflow — its fresh data is written by the caller under the new
        counter) is read, decrypted under its old (major, minor) pair,
        re-encrypted under the new pair, and written back with a fresh
        data HMAC.  Returns the number of blocks rewritten.
        """
        page_addr = page_align(page_addr)
        rewritten = 0
        for block in range(BLOCKS_PER_PAGE):
            if block == skip_block:
                continue
            addr = page_addr + block * CACHE_LINE_SIZE
            old_major, old_minor = old_counters.counter_pair(block)
            plaintext = self.cipher.decrypt(
                self._read_line(addr), addr, old_major, old_minor
            )
            new_major, new_minor = new_counters.counter_pair(block)
            ciphertext = self.cipher.encrypt(plaintext, addr, new_major, new_minor)
            code = self.hmac.data_hmac(ciphertext, addr, new_major, new_minor)
            self.wpq.begin_combined()
            self.wpq.write(addr, ciphertext)
            hmac_line, offset = self.layout.data_hmac_location(addr)
            self.wpq.write_partial(hmac_line, offset, code)
            self.wpq.end_combined()
            rewritten += 1
        self._reencryptions.inc()
        return rewritten
