"""Unit tests for the verified meta cache (MetadataStore)."""

import pytest

from repro.common.config import CacheConfig, NVMConfig, SecurityConfig, SystemConfig
from repro.core.tcb import TCB
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey
from repro.mem.cache import Cache
from repro.mem.nvm import NVMDevice
from repro.metadata.counters import CounterLine
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout, MerkleNodeId
from repro.metadata.merkle import MerkleTree
from repro.metadata.metacache import IntegrityError, MetadataStore


ENC = SecretKey.from_seed("mc-enc")
MAC = SecretKey.from_seed("mc-mac")
CAPACITY = 1 << 20  # 256 pages, 5 levels


def make_store(meta_bytes=16 * 1024, ways=4):
    config = SystemConfig(
        nvm=NVMConfig(capacity_bytes=CAPACITY),
        security=SecurityConfig(
            meta_cache=CacheConfig(
                size_bytes=meta_bytes,
                associativity=ways,
                hit_latency=32,
                name="meta",
                hashed_sets=True,
            )
        ),
    )
    layout = MemoryLayout(CAPACITY)
    genesis = GenesisImage(layout, ENC, MAC)
    nvm = NVMDevice(layout, initializer=genesis.line)
    tcb = TCB(ENC, MAC, genesis.root_register())
    engine = HmacEngine(MAC)
    store = MetadataStore(
        config, Cache(config.security.meta_cache), nvm, engine, tcb, genesis
    )
    store.on_dirty_evict = lambda victim: nvm.poke(victim.addr, store.encoded(victim))
    return store


def commit_counter(store, leaf, major=1):
    """Write a counter into NVM and rebuild tree + TCB roots around it."""
    addr = store.layout.merkle_node_addr(MerkleNodeId(0, leaf))
    store.nvm.poke(addr, CounterLine(major=major).encode())
    tree = MerkleTree(store.nvm, HmacEngine(MAC), store.genesis)
    store.tcb.set_roots(tree.build())
    return addr


class TestLoads:
    def test_miss_then_hit(self):
        store = make_store()
        first = store.load_counter(0)
        assert not first.hit
        assert isinstance(first.value, CounterLine)
        second = store.load_counter(0)
        assert second.hit
        assert second.value is first.value
        assert second.cycles == 32  # pure meta-cache hit

    def test_miss_cost_includes_reads_and_hmacs(self):
        store = make_store()
        result = store.load_counter(0)
        # Cold walk: 4 NVM reads (counter + 3 internal levels) and 4 HMAC
        # checks on top of the lookup.
        assert result.cycles == 32 + 4 * 180 + 4 * 80

    def test_walk_stops_at_cached_ancestor(self):
        store = make_store()
        store.load_counter(0)  # caches the whole path of page 0
        # Page 1 shares every ancestor with page 0.
        result = store.load_counter(4096)
        assert result.cycles == 32 + 1 * 180 + 1 * 80 + 32

    def test_load_node_internal(self):
        store = make_store()
        result = store.load_node(MerkleNodeId(2, 0))
        assert not result.hit
        assert len(result.value) == 64

    def test_genesis_counters_decode_to_zero(self):
        store = make_store()
        line = store.load_counter(12345 * 64).value
        assert line == CounterLine()

    def test_committed_counter_value_loads(self):
        store = make_store()
        commit_counter(store, leaf=3, major=7)
        line = store.load_counter(3 * 4096).value
        assert line.major == 7


class TestVerification:
    def test_tampered_counter_raises(self):
        store = make_store()
        addr = commit_counter(store, leaf=3)
        raw = store.nvm.peek(addr)
        store.nvm.poke(addr, bytes([raw[0] ^ 1]) + raw[1:])
        with pytest.raises(IntegrityError) as exc:
            store.load_counter(3 * 4096)
        assert exc.value.node == MerkleNodeId(0, 3)

    def test_tampered_internal_node_raises_and_locates(self):
        store = make_store()
        commit_counter(store, leaf=3)
        node = MerkleNodeId(1, 0)
        addr = store.layout.merkle_node_addr(node)
        raw = store.nvm.peek(addr)
        store.nvm.poke(addr, bytes([raw[0] ^ 1]) + raw[1:])
        with pytest.raises(IntegrityError) as exc:
            store.load_counter(0)
        assert exc.value.node == node
        assert store.stats.counter("integrity_failures").value == 1

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_tampered_node_at_each_level_is_located(self, level):
        # Leaf 201's ancestors sit at non-zero indices and slots on every
        # level, so a wrong parent address or slot on the integer path
        # would verify the wrong bytes or blame the wrong node.
        store = make_store()
        leaf = 201
        commit_counter(store, leaf=leaf)
        node = MerkleNodeId(level, leaf >> (2 * level))
        assert node.index != 0
        addr = store.layout.merkle_node_addr(node)
        raw = store.nvm.peek(addr)
        store.nvm.poke(addr, raw[:-1] + bytes([raw[-1] ^ 0x80]))
        with pytest.raises(IntegrityError) as exc:
            store.load_counter(leaf * 4096)
        assert exc.value.node == node
        assert f"level {level}, index {node.index}" in str(exc.value)

    def test_cached_lines_bypass_verification(self):
        store = make_store()
        addr = commit_counter(store, leaf=3)
        store.load_counter(3 * 4096)  # cached + verified
        raw = store.nvm.peek(addr)
        store.nvm.poke(addr, bytes([raw[0] ^ 1]) + raw[1:])
        # Hit: the on-chip copy is trusted, NVM tampering invisible.
        assert store.load_counter(3 * 4096).hit

    def test_verified_flag_set(self):
        store = make_store()
        store.load_counter(0)
        line = store.probe(store.layout.counter_line_addr(0))
        assert line.verified


class TestEvictionHooks:
    def test_pre_evict_called_for_dirty_victim(self):
        store = make_store(meta_bytes=512, ways=2)  # 8 lines, tiny
        seen = []
        store.pre_evict = lambda victim: seen.append(victim.addr)
        # Dirty a line, then flood the cache to evict it.
        first = store.load_counter(0)
        store.probe(store.layout.counter_line_addr(0)).dirty = True
        for page in range(1, 40):
            store.load_counter(page * 4096)
        assert store.layout.counter_line_addr(0) in seen

    def test_on_dirty_evict_required(self):
        store = make_store(meta_bytes=512, ways=2)
        store.on_dirty_evict = None
        store.load_counter(0)
        store.probe(store.layout.counter_line_addr(0)).dirty = True
        with pytest.raises(RuntimeError):
            for page in range(1, 40):
                store.load_counter(page * 4096)

    def test_clean_victims_dropped_silently(self):
        store = make_store(meta_bytes=512, ways=2)
        called = []
        store.on_dirty_evict = lambda victim: called.append(victim.addr)
        for page in range(40):
            store.load_counter(page * 4096)
        assert called == []


class TestOverlay:
    def test_overlay_served_before_nvm(self):
        store = make_store()
        counter_addr = store.layout.counter_line_addr(0)
        newest = CounterLine(major=9)
        store.overlay[counter_addr] = newest.encode()
        result = store.load_verified(counter_addr)
        assert result.value.major == 9
        assert counter_addr not in store.overlay  # consumed
        line = store.probe(counter_addr)
        assert line.dirty
        assert line.verified

    def test_overlay_miss_falls_through_to_nvm(self):
        store = make_store()
        result = store.load_counter(0)
        assert result.value == CounterLine()


class TestStateManagement:
    def test_dirty_addresses_sorted(self):
        store = make_store()
        store.load_counter(5 * 4096)
        store.load_counter(2 * 4096)
        for page in (5, 2):
            store.probe(store.layout.counter_line_addr(page * 4096)).dirty = True
        assert store.dirty_addresses() == sorted(
            store.layout.counter_line_addr(p * 4096) for p in (2, 5)
        )

    def test_crash_drops_everything(self):
        store = make_store()
        store.load_counter(0)
        store.overlay[store.layout.counter_line_addr(4096)] = bytes(64)
        store.crash()
        assert store.probe(store.layout.counter_line_addr(0)) is None
        assert store.overlay == {}

    def test_encoded_rejects_junk_payload(self):
        store = make_store()
        store.load_counter(0)
        line = store.probe(store.layout.counter_line_addr(0))
        line.data = 12345
        with pytest.raises(TypeError):
            store.encoded(line)
