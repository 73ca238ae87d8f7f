"""Keyed pseudo-random functions used by the encryption and HMAC engines.

The hardware in the paper uses AES for one-time-pad generation and SHA-1
for HMACs.  This model substitutes software constructions with the same
*interface contracts* (deterministic keyed functions, fixed-width outputs,
avalanche on any input change) so that the functional layer — encryption,
authentication, attack detection, crash recovery — behaves exactly like the
hardware would, while the timing layer charges the paper's fixed hardware
latencies instead of Python's crypto cost.

Both constructions are RFC 2104 HMAC.  The keyed inner and outer hash
states depend only on the key, so each :class:`SecretKey` hashes them once
and every call continues from copies — the same bytes as
``hmac.new(key, message, digest)`` for a fraction of the host time.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE

_INNER_PAD = bytes(x ^ 0x36 for x in range(256))
_OUTER_PAD = bytes(x ^ 0x5C for x in range(256))


class SecretKey:
    """An opaque secret key living in the TCB.

    Keys never leave the trusted computing base in the modeled design; the
    class exists mostly to make key handling explicit in signatures and to
    prevent accidental reuse of raw byte strings.
    """

    __slots__ = ("_material", "_hmac_states", "pad_memo")

    def __init__(self, material: bytes) -> None:
        if len(material) < 16:
            raise ValueError("key material must be at least 128 bits")
        self._material = bytes(material)
        #: digest name -> keyed (inner, outer) hash states, filled on first use.
        self._hmac_states: dict[str, tuple] = {}
        #: Bounded memo of one-time pads under this key, shared by every
        #: cipher holding it (see :func:`repro.crypto.cme.generate_otp`).
        self.pad_memo: dict[tuple[int, int, int], bytes] = {}

    @classmethod
    def from_seed(cls, seed: int | str) -> "SecretKey":
        """Derive a key deterministically from a test/simulation seed."""
        digest = hashlib.sha256(repr(seed).encode()).digest()
        return cls(digest)

    @property
    def material(self) -> bytes:
        """Raw key bytes (TCB-internal use only)."""
        return self._material

    def hmac_states(self, digest: str) -> tuple:
        """RFC 2104 ``(inner, outer)`` hash states keyed with this key.

        The states have absorbed the padded key; callers ``copy()`` them
        and never update the originals.  A key longer than the digest's
        block is hashed first, as the RFC requires.
        """
        states = self._hmac_states.get(digest)
        if states is None:
            inner = hashlib.new(digest)
            key = self._material
            if len(key) > inner.block_size:
                key = hashlib.new(digest, key).digest()
            key = key.ljust(inner.block_size, b"\0")
            inner.update(key.translate(_INNER_PAD))
            states = (inner, hashlib.new(digest, key.translate(_OUTER_PAD)))
            self._hmac_states[digest] = states
        return states

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SecretKey):
            return NotImplemented
        return _hmac.compare_digest(self._material, other._material)

    def __hash__(self) -> int:
        return hash(self._material)

    def __repr__(self) -> str:  # never leak the key
        return "SecretKey(<hidden>)"


def _hmac_digest(key: SecretKey, digest: str, message: bytes) -> bytes:
    """``hmac.new(key.material, message, digest).digest()``."""
    inner, outer = key.hmac_states(digest)
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def prf(key: SecretKey, *parts: bytes, out_len: int = CACHE_LINE_SIZE) -> bytes:
    """Keyed PRF with arbitrary-length output.

    Implements a simple counter-mode expansion of HMAC-SHA256 over the
    concatenated, length-prefixed *parts*.  Length prefixes make the input
    encoding injective, so ``prf(k, a, b) != prf(k, ab, b'')`` — the model
    equivalent of AES's block structure preventing seed collisions.
    """
    message = b"".join([len(p).to_bytes(4, "little") + p for p in parts])
    blocks = []
    produced = 0
    counter = 0
    while produced < out_len:
        block = _hmac_digest(key, "sha256", counter.to_bytes(4, "little") + message)
        blocks.append(block)
        produced += len(block)
        counter += 1
    return b"".join(blocks)[:out_len]


def keyed_hash(key: SecretKey, *parts: bytes) -> bytes:
    """A 128-bit keyed MAC over the length-prefixed *parts*.

    Models the paper's HMAC-SHA1 truncated to the 128-bit codeword width.
    """
    message = b"".join([len(p).to_bytes(4, "little") + p for p in parts])
    return _hmac_digest(key, "sha1", message)[:HMAC_SIZE]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (as the hardware comparator would be)."""
    return _hmac.compare_digest(a, b)
