"""Counter-mode encryption (CME) of memory lines.

Every 64 B block evicted from the LLC is XORed with a one-time pad (OTP)
derived from a secret key and a *seed*; the seed is the block's physical
address concatenated with its encryption counter (Section 2.2).  Seed
uniqueness — and therefore pad uniqueness — is guaranteed by (1) mapping
different blocks to different (address, counter) pairs and (2) bumping the
counter on every write-back.

The model uses the split-counter convention: the effective counter of a
block is the pair ``(major, minor)`` where ``major`` is shared by the whole
page and ``minor`` is per-block (see :mod:`repro.metadata.counters`).  Both
are folded into the seed, so a minor-counter overflow that bumps the major
counter re-keys every block of the page.
"""

from __future__ import annotations

from repro.common.constants import CACHE_LINE_SIZE
from repro.crypto.prf import SecretKey, prf


def make_seed(address: int, major: int, minor: int) -> bytes:
    """Serialize the CME seed for one block.

    The encoding is fixed-width so distinct (address, major, minor) triples
    can never alias.  Each component must fit its field: 64 bits for the
    address and the major counter, 16 bits for the minor counter.
    """
    if address < 0 or major < 0 or minor < 0:
        raise ValueError("seed components must be non-negative")
    if address >= 1 << 64:
        raise ValueError(f"address {address:#x} exceeds the 64-bit seed field")
    if major >= 1 << 64:
        raise ValueError(f"major counter {major} exceeds the 64-bit seed field")
    if minor >= 1 << 16:
        raise ValueError(f"minor counter {minor} exceeds the 16-bit seed field")
    return (
        address.to_bytes(8, "little")
        + major.to_bytes(8, "little")
        + minor.to_bytes(2, "little")
    )


#: Pads remembered per key (``SecretKey.pad_memo``); the memo is emptied
#: when full.  A first-touch read derives the pad of ``(addr, 0, 0)`` twice
#: (genesis data line, genesis HMAC line) within a few accesses, so a small
#: memo catches the repeat.
PAD_MEMO_ENTRIES = 256


def generate_otp(key: SecretKey, address: int, major: int, minor: int) -> bytes:
    """Generate the 64 B one-time pad for a block (models the AES engine)."""
    memo = key.pad_memo
    pad = memo.get((address, major, minor))
    if pad is None:
        pad = prf(key, make_seed(address, major, minor), out_len=CACHE_LINE_SIZE)
        if len(memo) >= PAD_MEMO_ENTRIES:
            memo.clear()
        memo[address, major, minor] = pad
    return pad


def xor_bytes(data: bytes, pad: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(data) != len(pad):
        raise ValueError(f"length mismatch: {len(data)} vs {len(pad)}")
    return (int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")).to_bytes(
        len(data), "little"
    )


class CounterModeCipher:
    """Stateless encrypt/decrypt helper bound to one encryption key.

    Counter management is *not* handled here — callers (the encryption
    engine) own the counter store; the cipher only turns (plaintext,
    address, counter) into ciphertext and back.  Encryption and decryption
    are the same XOR operation, which is exactly what makes CME's
    read-latency hiding work: the pad can be computed while the data line
    is still in flight from memory.
    """

    def __init__(self, key: SecretKey, pristine=None) -> None:
        self._key = key
        #: Optional ``address -> bytes`` pristine data line (see decrypt).
        self._pristine = pristine

    @property
    def key(self) -> SecretKey:
        """The encryption key (TCB-internal)."""
        return self._key

    def encrypt(self, plaintext: bytes, address: int, major: int, minor: int) -> bytes:
        """Encrypt one 64 B block with its (major, minor) counter pair."""
        if len(plaintext) != CACHE_LINE_SIZE:
            raise ValueError("CME operates on whole cache lines")
        return xor_bytes(plaintext, generate_otp(self._key, address, major, minor))

    def decrypt(self, ciphertext: bytes, address: int, major: int, minor: int) -> bytes:
        """Decrypt one 64 B block; inverse of :meth:`encrypt`.

        The pristine data line encrypts zero plaintext under counter
        (0, 0), so it *is* that pair's pad: with a *pristine* source
        that pair reads its pad there instead of deriving it.
        """
        if len(ciphertext) != CACHE_LINE_SIZE:
            raise ValueError("CME operates on whole cache lines")
        if major == minor == 0 and self._pristine is not None:
            return xor_bytes(ciphertext, self._pristine(address))
        return xor_bytes(ciphertext, generate_otp(self._key, address, major, minor))
