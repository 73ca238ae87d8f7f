"""Per-access fast paths against their defining formulas and checks.

`Cache` fixes its set mask and hashing flag at construction,
`MemoryLayout` stores its level counts as attributes and `NVMDevice`
checks addresses against a cached capacity.  These properties hold
them to the formulas they replace and to the checks they must keep.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.mem.cache import Cache
from repro.mem.nvm import NVMDevice
from repro.metadata.layout import MemoryLayout

aligned = st.integers(min_value=0, max_value=(1 << 40) - 1).map(lambda a: a & ~63)
offsets = st.integers(min_value=1, max_value=CACHE_LINE_SIZE - 1)
set_counts = st.sampled_from([1, 2, 8, 64, 512])


def reference_set(addr: int, num_sets: int, hashed: bool) -> int:
    index = addr >> 6
    if hashed:
        index ^= (index >> 8) ^ (index >> 16) ^ (index >> 24)
    return index % num_sets


@given(st.lists(aligned, min_size=1, max_size=20), set_counts, st.booleans())
@settings(max_examples=200, deadline=None)
def test_set_selection_matches_the_index_formula(addrs, sets, hashed):
    config = CacheConfig(
        size_bytes=sets * 2 * CACHE_LINE_SIZE, associativity=2, hit_latency=1,
        hashed_sets=hashed,
    )
    for addr in addrs:
        cache = Cache(config)
        cache.fill(addr, dirty=True)
        index, line = cache.first_dirty(lambda line: True)
        assert line.addr == addr
        assert index == reference_set(addr, config.num_sets, hashed)


@given(aligned, offsets, st.booleans())
def test_cache_rejects_misaligned_addresses(addr, offset, hashed):
    cache = Cache(CacheConfig(
        size_bytes=8 * CACHE_LINE_SIZE, associativity=2, hit_latency=1, hashed_sets=hashed,
    ))
    for op in (cache.access, cache.fill, cache.probe, cache.would_evict):
        with pytest.raises(ValueError):
            op(addr + offset)


DEVICE = NVMDevice(MemoryLayout(1 << 20))


@given(st.integers(min_value=0, max_value=DEVICE.layout.total_capacity - 1), offsets)
def test_nvm_rejects_misaligned_addresses(addr, offset):
    addr = (addr & ~63) + offset
    with pytest.raises(ValueError, match="line-aligned"):
        DEVICE.read_line(addr)
    with pytest.raises(ValueError, match="line-aligned"):
        DEVICE.write_line(addr, bytes(CACHE_LINE_SIZE))


@given(st.one_of(
    st.integers(min_value=DEVICE.layout.total_capacity, max_value=1 << 50),
    st.integers(min_value=-(1 << 50), max_value=-1),
))
def test_nvm_rejects_out_of_range_addresses(addr):
    addr &= ~63
    with pytest.raises(ValueError, match="out of range"):
        DEVICE.read_line(addr)
    with pytest.raises(ValueError, match="out of range"):
        DEVICE.write_line(addr, bytes(CACHE_LINE_SIZE))


@given(st.integers(min_value=1, max_value=20_000))
def test_level_attributes_match_level_counts_on_any_geometry(pages):
    layout = MemoryLayout(pages * PAGE_SIZE)
    assert layout.num_levels == len(layout.level_counts)
    assert layout.root_level == len(layout.level_counts) - 1
    assert layout.level_counts[layout.root_level] == 1
