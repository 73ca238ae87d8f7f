"""Property-based tests for the split-counter codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import (
    BLOCKS_PER_PAGE,
    MINOR_COUNTER_MAX,
)
from repro.metadata.counters import CounterLine


majors = st.integers(min_value=0, max_value=(1 << 64) - 1)
minors = st.lists(
    st.integers(min_value=0, max_value=MINOR_COUNTER_MAX),
    min_size=BLOCKS_PER_PAGE,
    max_size=BLOCKS_PER_PAGE,
)
blocks = st.integers(min_value=0, max_value=BLOCKS_PER_PAGE - 1)


@given(majors, minors)
def test_encode_decode_roundtrip(major, ms):
    line = CounterLine(major, ms)
    assert CounterLine.decode(line.encode()) == line


@given(majors, minors)
def test_encoding_is_injective_on_distinct_lines(major, ms):
    line = CounterLine(major, ms)
    other = line.copy()
    other.increment(0)
    assert line.encode() != other.encode()


@given(minors, blocks)
def test_increment_touches_only_target_minor(ms, block):
    line = CounterLine(0, ms)
    before = list(line.minors)
    overflowed = line.increment(block)
    if overflowed:
        assert line.minors == [0] * BLOCKS_PER_PAGE
        assert line.major == 1
    else:
        for i in range(BLOCKS_PER_PAGE):
            expected = before[i] + 1 if i == block else before[i]
            assert line.minors[i] == expected


@given(blocks, st.integers(min_value=1, max_value=300))
def test_increment_sequence_matches_arithmetic(block, count):
    """k increments of one block == (k mod 128 advances, k//128... ) —
    verified by replaying the arithmetic independently."""
    line = CounterLine()
    majors_seen = 0
    for _ in range(count):
        if line.increment(block):
            majors_seen += 1
    total = count
    assert line.major == majors_seen
    expected_minor = total - majors_seen * (MINOR_COUNTER_MAX + 1)
    assert line.minors[block] == expected_minor


@given(majors, minors, blocks)
def test_counter_pair_consistency(major, ms, block):
    line = CounterLine(major, ms)
    assert line.counter_pair(block) == (major, ms[block])


@given(minors)
@settings(max_examples=30)
def test_copy_independence(ms):
    line = CounterLine(3, ms)
    clone = line.copy()
    clone.increment(5)
    assert line.minors == ms
    assert line.major == 3


@given(st.binary(min_size=64, max_size=64))
def test_decode_never_crashes_on_arbitrary_lines(raw):
    """Any 64 B image decodes (an attacker can write anything)."""
    line = CounterLine.decode(raw)
    assert 0 <= line.major < 1 << 64
    assert all(0 <= m <= MINOR_COUNTER_MAX for m in line.minors)
    # Canonical re-encode reproduces the same decoded state.
    assert CounterLine.decode(line.encode()) == line


@pytest.mark.parametrize("value", [0, MINOR_COUNTER_MAX])
@pytest.mark.parametrize("block", range(BLOCKS_PER_PAGE))
def test_every_slot_round_trips_at_the_field_bounds(block, value):
    ms = [0] * BLOCKS_PER_PAGE
    ms[block] = value
    line = CounterLine(5, ms)
    decoded = CounterLine.decode(line.encode())
    assert decoded == line
    assert decoded.counter_pair(block) == (5, value)


@pytest.mark.parametrize("value", [-1, MINOR_COUNTER_MAX + 1])
@pytest.mark.parametrize("block", [0, BLOCKS_PER_PAGE - 1])
def test_out_of_range_minors_still_raise(block, value):
    ms = [0] * BLOCKS_PER_PAGE
    ms[block] = value
    with pytest.raises(ValueError, match="minor counter out of range"):
        CounterLine(0, ms)
