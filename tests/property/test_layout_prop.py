"""Property-based tests for the address map and tree geometry."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, MERKLE_ARITY, PAGE_SIZE
from repro.metadata.layout import MemoryLayout, MerkleNodeId


LAYOUTS = {
    64 * 1024: MemoryLayout(64 * 1024),
    1 << 20: MemoryLayout(1 << 20),
    16 << 30: MemoryLayout(16 << 30),
}
capacities = st.sampled_from(sorted(LAYOUTS))


@st.composite
def layout_and_addr(draw):
    layout = LAYOUTS[draw(capacities)]
    addr = draw(st.integers(min_value=0, max_value=layout.data_capacity - 1))
    return layout, addr


@given(layout_and_addr())
def test_regions_partition_the_device(args):
    layout, addr = args
    assert layout.region_of(addr) == "data"
    assert layout.region_of(layout.counter_line_addr(addr)) == "counter"
    hmac_line, _ = layout.data_hmac_location(addr)
    assert layout.region_of(hmac_line) == "data_hmac"


@given(layout_and_addr())
def test_counter_line_shared_exactly_by_page(args):
    layout, addr = args
    page_start = (addr // PAGE_SIZE) * PAGE_SIZE
    counter = layout.counter_line_addr(addr)
    assert layout.counter_line_addr(page_start) == counter
    assert layout.counter_line_addr(page_start + PAGE_SIZE - 1) == counter
    if page_start + PAGE_SIZE < layout.data_capacity:
        assert layout.counter_line_addr(page_start + PAGE_SIZE) != counter


@given(layout_and_addr())
def test_data_hmac_slots_never_collide_within_a_line(args):
    layout, addr = args
    line = (addr // CACHE_LINE_SIZE) * CACHE_LINE_SIZE
    seen = set()
    for i in range(4):
        neighbour = line - (line // CACHE_LINE_SIZE % 4) * CACHE_LINE_SIZE + i * CACHE_LINE_SIZE
        if 0 <= neighbour < layout.data_capacity:
            seen.add(layout.data_hmac_location(neighbour))
    assert len(seen) == len({s for s in seen})  # all distinct (line, offset)


@given(layout_and_addr())
def test_ancestor_chain_reaches_root_with_consistent_slots(args):
    layout, addr = args
    leaf = layout.counter_leaf_index(addr)
    node = MerkleNodeId(0, leaf)
    chain = layout.ancestors_of_leaf(leaf)
    assert chain[-1] == layout.root
    for parent in chain:
        assert layout.parent_of(node) == parent
        kids = layout.children_of(parent)
        assert node in kids
        assert kids[layout.slot_in_parent(node)] == node
        node = parent


@given(layout_and_addr())
def test_node_addr_roundtrip_along_path(args):
    layout, addr = args
    leaf = layout.counter_leaf_index(addr)
    for node in [MerkleNodeId(0, leaf)] + layout.ancestors_of_leaf(leaf):
        if node.level == layout.root_level:
            continue
        node_addr = layout.merkle_node_addr(node)
        assert layout.node_of_addr(node_addr) == node
        assert layout.level_of_addr(node_addr) == node.level


@given(layout_and_addr())
def test_writeback_metadata_set_is_path(args):
    layout, addr = args
    addrs = layout.metadata_addresses_for_writeback(addr)
    # Exactly one address per NVM-resident tree level, no duplicates.
    assert len(addrs) == len(set(addrs)) == layout.root_level
    levels = sorted(layout.node_of_addr(a).level for a in addrs)
    assert levels == list(range(layout.root_level))


@given(capacities)
def test_level_counts_shrink_by_arity(capacity):
    layout = LAYOUTS[capacity]
    for level in range(1, layout.num_levels):
        lower, upper = layout.level_counts[level - 1], layout.level_counts[level]
        assert upper == (lower + MERKLE_ARITY - 1) // MERKLE_ARITY
    assert layout.level_counts[-1] == 1


@given(capacities, st.data())
def test_distinct_metadata_addresses_for_distinct_pages(capacity, data):
    layout = LAYOUTS[capacity]
    a = data.draw(st.integers(min_value=0, max_value=layout.num_pages - 1))
    b = data.draw(st.integers(min_value=0, max_value=layout.num_pages - 1))
    if a != b:
        assert layout.counter_line_addr(a * PAGE_SIZE) != layout.counter_line_addr(
            b * PAGE_SIZE
        )
