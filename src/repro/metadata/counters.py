"""Split-counter line codec.

One 64 B counter line serves one 4 KB data page (Section 2.2: "those
counters of different data blocks in the same data page are organized into
the same cache line").  Following the split-counter organization the line
packs one 64-bit *major* counter shared by the page plus sixty-four 7-bit
*minor* counters, one per data block:

::

    bytes 0..7   : major counter (little-endian)
    bytes 8..63  : 64 x 7-bit minor counters, LSB-first bit packing

The effective encryption counter of block *i* is the pair
``(major, minor[i])``.  A write-back increments ``minor[i]``; on overflow
the major counter is incremented, every minor resets to zero, and the whole
page must be re-encrypted under the new major (handled by the encryption
engine).
"""

from __future__ import annotations

from repro.common.constants import (
    BLOCKS_PER_PAGE,
    CACHE_LINE_SIZE,
    MAJOR_COUNTER_BYTES,
    MINOR_COUNTER_BITS,
    MINOR_COUNTER_MAX,
)

_MINOR_FIELD_BYTES = CACHE_LINE_SIZE - MAJOR_COUNTER_BYTES
_MAJOR_MAX = (1 << (8 * MAJOR_COUNTER_BYTES)) - 1
#: Bit offset of each block's minor counter in the packed field.
_SHIFTS = tuple(i * MINOR_COUNTER_BITS for i in range(BLOCKS_PER_PAGE))


class CounterLine:
    """In-TCB decoded view of one split-counter line."""

    __slots__ = ("major", "minors")

    def __init__(self, major: int = 0, minors: list[int] | None = None) -> None:
        if not 0 <= major <= _MAJOR_MAX:
            raise ValueError("major counter out of range")
        if minors is None:
            minors = [0] * BLOCKS_PER_PAGE
        if len(minors) != BLOCKS_PER_PAGE:
            raise ValueError(f"expected {BLOCKS_PER_PAGE} minor counters")
        if min(minors) < 0 or max(minors) > MINOR_COUNTER_MAX:
            raise ValueError("minor counter out of range")
        self.major = major
        self.minors = list(minors)

    # -- codec ---------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to the 64 B NVM line format."""
        packed = 0
        for shift, minor in zip(_SHIFTS, self.minors):
            if minor:
                packed |= minor << shift
        return self.major.to_bytes(MAJOR_COUNTER_BYTES, "little") + packed.to_bytes(
            _MINOR_FIELD_BYTES, "little"
        )

    @classmethod
    def decode(cls, raw: bytes) -> "CounterLine":
        """Parse a 64 B NVM line back into a :class:`CounterLine`."""
        if len(raw) != CACHE_LINE_SIZE:
            raise ValueError("counter lines are exactly one cache line")
        packed = int.from_bytes(raw[MAJOR_COUNTER_BYTES:], "little")
        # Both fields are in range by construction: skip __init__'s checks.
        line = cls.__new__(cls)
        line.major = int.from_bytes(raw[:MAJOR_COUNTER_BYTES], "little")
        line.minors = [(packed >> shift) & MINOR_COUNTER_MAX for shift in _SHIFTS]
        return line

    # -- counter semantics ----------------------------------------------------

    def counter_pair(self, block: int) -> tuple[int, int]:
        """The (major, minor) encryption counter of page block *block*."""
        return self.major, self.minors[block]

    def increment(self, block: int) -> bool:
        """Bump block *block*'s counter for a write-back.

        Returns ``True`` when the minor counter overflowed, in which case
        the line has already been rolled to ``major + 1`` with all minors
        zeroed and the caller must re-encrypt the whole page.
        """
        if not 0 <= block < BLOCKS_PER_PAGE:
            raise ValueError(f"block index {block} out of range")
        if self.minors[block] < MINOR_COUNTER_MAX:
            self.minors[block] += 1
            return False
        if self.major == _MAJOR_MAX:
            raise OverflowError("major counter exhausted; page must be re-keyed")
        self.major += 1
        self.minors = [0] * BLOCKS_PER_PAGE
        return True

    def copy(self) -> "CounterLine":
        """Deep copy (used by crash snapshots and recovery trials)."""
        return CounterLine(self.major, list(self.minors))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterLine):
            return NotImplemented
        return self.major == other.major and self.minors == other.minors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hot = {i: m for i, m in enumerate(self.minors) if m}
        return f"CounterLine(major={self.major}, minors={hot or 0})"


def zero_counter_line() -> bytes:
    """Encoded form of an all-zero counter line (the NVM reset state)."""
    return bytes(CACHE_LINE_SIZE)
