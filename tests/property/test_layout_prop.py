"""Property-based tests for the address map and tree geometry."""

import pytest
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
        assert layout.node_line_addr(node.level, node.index) == node_addr
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


# -- integer Merkle paths ------------------------------------------------------


def node_id_path(layout, addr):
    """``tree_path`` spelled with the node-id API it replaces."""
    node = layout.node_of_addr(addr)
    path = []
    while True:
        parent = layout.parent_of(node)
        slot = layout.slot_in_parent(node)
        if parent.level == layout.root_level:
            path.append((None, slot))
            return path
        path.append((layout.merkle_node_addr(parent), slot))
        node = parent


def node_id_writeback_set(layout, data_addr):
    """``metadata_addresses_for_writeback`` as the node-id walk computed it."""
    leaf = layout.counter_leaf_index(data_addr)
    addrs = [layout.counter_line_addr(data_addr)]
    for node in layout.ancestors_of_leaf(leaf):
        if node.level < layout.root_level:
            addrs.append(layout.merkle_node_addr(node))
    return addrs


def tree_nodes(layout):
    for level in range(layout.root_level):
        for index in range(layout.level_counts[level]):
            yield MerkleNodeId(level, index)


#: Two pages up to a few hundred: powers of four and the odd geometries
#: between them, whose partial nodes leave dangling slots.
small_page_counts = st.one_of(
    st.sampled_from([2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255, 256, 257]),
    st.integers(min_value=2, max_value=400),
)


@given(small_page_counts)
def test_tree_path_equals_node_id_walk_for_every_node(pages):
    layout = MemoryLayout(pages * PAGE_SIZE)
    for node in tree_nodes(layout):
        addr = layout.merkle_node_addr(node)
        assert layout.tree_path(addr) == node_id_path(layout, addr)


@given(small_page_counts)
def test_tree_parent_is_the_first_step_of_the_path(pages):
    layout = MemoryLayout(pages * PAGE_SIZE)
    for node in tree_nodes(layout):
        addr = layout.merkle_node_addr(node)
        assert layout.tree_parent(addr) == layout.tree_path(addr)[0]


@given(small_page_counts)
def test_writeback_set_unchanged_on_small_layouts(pages):
    layout = MemoryLayout(pages * PAGE_SIZE)
    for page in range(pages):
        for offset in (0, PAGE_SIZE - CACHE_LINE_SIZE):
            addr = page * PAGE_SIZE + offset
            assert layout.metadata_addresses_for_writeback(addr) == (
                node_id_writeback_set(layout, addr)
            )


@given(capacities, st.data())
def test_tree_path_equals_node_id_walk_on_sampled_nodes(capacity, data):
    layout = LAYOUTS[capacity]
    level = data.draw(st.integers(min_value=0, max_value=layout.root_level - 1))
    index = data.draw(
        st.one_of(
            st.sampled_from([0, layout.level_counts[level] - 1]),
            st.integers(min_value=0, max_value=layout.level_counts[level] - 1),
        )
    )
    addr = layout.merkle_node_addr(MerkleNodeId(level, index))
    path = layout.tree_path(addr)
    assert path == node_id_path(layout, addr)
    assert len(path) == layout.root_level - level
    assert layout.tree_parent(addr) == path[0]


@given(layout_and_addr())
def test_writeback_set_unchanged_on_sampled_addresses(args):
    layout, addr = args
    assert layout.metadata_addresses_for_writeback(addr) == (
        node_id_writeback_set(layout, addr)
    )


def test_sixteen_gb_extremes():
    layout = LAYOUTS[16 << 30]
    for addr in (0, layout.data_capacity - CACHE_LINE_SIZE):
        assert layout.metadata_addresses_for_writeback(addr) == (
            node_id_writeback_set(layout, addr)
        )
        counter = layout.counter_line_addr(addr)
        assert layout.tree_path(counter) == node_id_path(layout, counter)
        # 10 internal path nodes, then the TCB root (Section 5.2).
        assert len(layout.tree_path(counter)) == 11


@given(capacities, st.data())
def test_tree_path_rejects_what_node_of_addr_rejects(capacity, data):
    layout = LAYOUTS[capacity]
    addr = data.draw(
        st.one_of(
            st.integers(min_value=0, max_value=layout.counter_base - 1),
            st.integers(min_value=layout.hmac_base, max_value=layout.merkle_base - 1),
            st.integers(min_value=layout.total_capacity, max_value=layout.total_capacity * 2),
        )
    )
    assert layout.node_position(addr) is None
    with pytest.raises(ValueError):
        layout.node_of_addr(addr)
    with pytest.raises(ValueError):
        layout.tree_path(addr)
    with pytest.raises(ValueError):
        layout.tree_parent(addr)
