"""Per-design timing-model behaviours: the cycle accounting that drives
Figure 5(a)'s ordering, pinned at the unit level."""

import pytest

from repro.common.persistence import VolatileStateLost
from repro.core.schemes import create_scheme
from repro.metadata.merkle import read_slot
from repro.sim.runner import run_simulation
from repro.workloads import synthetic
from tests.conftest import SMALL_CAPACITY, payload


def fresh(scheme_name, config):
    return create_scheme(scheme_name, config, SMALL_CAPACITY, seed=1)


def warm_writeback_cycles(scheme, addr=0x1000):
    """Blocking cycles of a write-back whose metadata is fully cached."""
    scheme.writeback(0, addr, payload(1))  # warm the path
    return scheme.writeback(100_000, addr, payload(2))


class TestWritebackBlocking:
    def test_every_design_pays_encryption_and_hmac(self, config):
        # aes (216) + data HMAC (80) are the floor for all designs.
        floor = config.aes_cycles + config.security.hmac_latency_cycles
        for name in ("no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm"):
            assert warm_writeback_cycles(fresh(name, config)) >= floor, name

    def test_chain_designs_pay_serial_hmacs(self, config):
        """SC / Osiris Plus / cc-NVM w/o DS recompute the path serially:
        one 80-cycle HMAC per tree level (4 on the 1 MB device)."""
        chain = 4 * config.security.hmac_latency_cycles
        base = config.aes_cycles + config.security.hmac_latency_cycles
        for name in ("sc", "osiris_plus", "ccnvm_no_ds"):
            cycles = warm_writeback_cycles(fresh(name, config))
            assert cycles >= base + chain, name

    def test_ccnvm_blocks_only_for_queue_inserts(self, config):
        """Fully cached path: cc-NVM pays the counter-cache hit, the CAM
        inserts for the 4-level path, and the shared crypto — no HMAC
        chain."""
        scheme = fresh("ccnvm", config)
        base = config.aes_cycles + config.security.hmac_latency_cycles
        meta_hit = config.security.meta_cache.hit_latency
        inserts = config.epoch.dirty_queue_lookup_cycles * scheme.layout.root_level
        cycles = warm_writeback_cycles(scheme)
        assert cycles == base + meta_hit + inserts

    @pytest.mark.parametrize("name", ["ccnvm", "ccnvm_no_ds"])
    def test_ccnvm_reserves_the_deterministic_address_set(self, config, name):
        """Section 4.2's set: the write-back reserves exactly
        ``metadata_addresses_for_writeback``, in path order."""
        scheme = fresh(name, config)
        for addr in (0x1000, 0x5040):
            scheme.writeback(0, addr, payload(1))
        expected = scheme.layout.metadata_addresses_for_writeback(0x1000)
        expected += [
            a for a in scheme.layout.metadata_addresses_for_writeback(0x5040)
            if a not in expected
        ]
        assert scheme.queue.addresses() == expected

    def test_no_cc_is_the_floor(self, config):
        baseline = warm_writeback_cycles(fresh("no_cc", config))
        for name in ("sc", "osiris_plus", "ccnvm_no_ds", "ccnvm"):
            assert warm_writeback_cycles(fresh(name, config)) > baseline, name

    def test_cold_path_fetch_charged(self, config):
        """A metadata miss adds NVM reads + verification to the blocking."""
        scheme = fresh("ccnvm", config)
        cold = scheme.writeback(0, 0x1000, payload(1))
        warm = scheme.writeback(100_000, 0x1000, payload(2))
        assert cold > warm + config.nvm_read_cycles


class TestBusyUntil:
    def test_back_to_back_writebacks_serialize(self, config):
        scheme = fresh("sc", config)
        scheme.writeback(0, 0x1000, payload(1))
        first_free = scheme.busy_until
        blocking = scheme.writeback(0, 0x2000, payload(2))
        # The second write-back could not start before the first finished.
        assert blocking >= first_free

    def test_idle_gap_absorbs_busy(self, config):
        scheme = fresh("sc", config)
        scheme.writeback(0, 0x1000, payload(1))
        later = scheme.busy_until + 10_000
        blocking = scheme.writeback(later, 0x1000, payload(2))
        assert blocking < scheme.busy_until - later + 10_000

    def test_drain_extends_busy_and_hard_cycles(self, config):
        scheme = fresh("ccnvm", config.with_epoch(update_limit=2))
        t = 0
        for i in range(2):  # second update of the line reaches N=2
            scheme.writeback(t, 0x1000, payload(i))
            t += 100_000
        assert scheme.queue.drains_by_trigger()["update_limit"] >= 1
        # The drain's cycles were flagged unhideable.
        assert scheme.writeback_hard_cycles > 0

    def test_crash_resets_busy(self, config):
        scheme = fresh("ccnvm", config)
        scheme.writeback(0, 0x1000, payload(1))
        scheme.crash()
        with pytest.raises(VolatileStateLost):
            scheme.busy_until + 0
        scheme.recover()
        assert scheme.busy_until == 0


class TestReadTiming:
    def test_counter_hit_overlaps_otp_with_data_read(self, config):
        scheme = fresh("ccnvm", config)
        scheme.writeback(0, 0x1000, payload(1))
        start = 200_000
        _, done = scheme.read(start, 0x1000)
        # Counter cached: completion = max(data read, hit + aes).
        expected = start + max(
            config.nvm_read_cycles,
            config.security.meta_cache.hit_latency + config.aes_cycles,
        )
        assert done == expected

    def test_counter_miss_serializes_walk_before_otp(self, config):
        scheme = fresh("ccnvm", config)
        scheme.writeback(0, 0x1000, payload(1))
        scheme.flush()
        scheme.meta.crash()  # force a verified walk on the next read
        start = 300_000
        _, done = scheme.read(start, 0x1000)
        assert done > start + config.nvm_read_cycles + config.aes_cycles

    def test_reads_respect_busy_until(self, config):
        scheme = fresh("ccnvm", config)
        scheme.writeback(0, 0x1000, payload(1))
        scheme.busy_until = 1_000_000
        _, done = scheme.read(0, 0x1000)
        assert done > 1_000_000


class TestStatisticsSurface:
    def test_blocking_distribution_recorded(self, config):
        scheme = fresh("ccnvm", config)
        scheme.writeback(0, 0x1000, payload(1))
        dist = scheme.stats.distribution("writeback_blocking_cycles")
        assert dist.count == 1
        assert dist.mean > 0

    def test_warmup_resets_measured_statistics(self, config):
        trace = synthetic.hotspot(
            length=400, footprint=1 << 15, write_ratio=0.5, seed=2
        )
        warm = run_simulation(
            "ccnvm", trace, config, SMALL_CAPACITY, warmup_fraction=0.5
        )
        cold = run_simulation("ccnvm", trace, config, SMALL_CAPACITY)
        # The measured region is half the trace: fewer instructions.
        assert warm.instructions < cold.instructions
        assert warm.nvm_writes < cold.nvm_writes

    def test_warmup_fraction_validated(self, config):
        trace = synthetic.hotspot(length=10, footprint=1 << 14, seed=1)
        with pytest.raises(ValueError):
            run_simulation("ccnvm", trace, config, SMALL_CAPACITY, warmup_fraction=1.0)


class TestSpreadParentMiss:
    """A tree walk whose parent left the meta cache after the counter load.

    No short Figure-5 cell takes this branch, so it is pinned here: the
    missing parent is looked up once (one miss, not two), fetched and
    verified against its cached grandparent, and then updated like a
    cached one.
    """

    ADDR = 0x1000

    def _parent_evicted(self, name, config):
        """A fresh scheme with *ADDR*'s counter bumped in the meta cache
        and its (clean) level-1 parent dropped from it."""
        scheme = fresh(name, config)
        counters = scheme.meta.load_counter(self.ADDR).value
        counter_addr = scheme.layout.counter_line_addr(self.ADDR)
        counters.increment(scheme.layout.block_slot(self.ADDR))
        scheme.meta.probe(counter_addr).dirty = True
        path = scheme.layout.tree_path(counter_addr)
        parent_addr = path[0][0]
        assert not scheme.meta.probe(parent_addr).dirty
        scheme.meta.cache.invalidate(parent_addr)
        return scheme, counter_addr, path

    @staticmethod
    def _counts(scheme):
        cache = scheme.meta.cache.stats.counters
        return (
            cache["hits"].value,
            cache["misses"].value,
            scheme.hmac.counter_hmac_count,
            scheme.nvm.total_reads,
        )

    def _assert_chain(self, scheme, counter_addr, path, levels):
        """Each of the first *levels* parents holds its child's HMAC."""
        child = scheme.meta.encoded(scheme.meta.probe(counter_addr))
        for parent_addr, slot in path[:levels]:
            node = scheme.tcb.root_new if parent_addr is None else (
                scheme.meta.encoded(scheme.meta.probe(parent_addr))
            )
            assert read_slot(node, slot) == scheme.hmac.counter_hmac(child)
            child = node

    @pytest.mark.parametrize("name", ["sc", "osiris_plus", "ccnvm_no_ds"])
    def test_spread_to_root_counts_the_miss_once(self, name, config):
        scheme, counter_addr, path = self._parent_evicted(name, config)
        assert len(path) == 4  # levels 1..3 in NVM, then the root
        before = self._counts(scheme)
        cycles, chain = scheme._spread_to_root(counter_addr, path)
        after = self._counts(scheme)
        hits, misses, hmacs, reads = (a - b for a, b in zip(after, before))
        # Levels 2 and 3 hit; level 1 misses, and its walk hits level 2.
        assert (hits, misses) == (3, 1)
        # Four child HMACs up the path plus the fetched parent's check.
        assert hmacs == 5
        assert reads == 1
        hit = config.security.meta_cache.hit_latency
        hmac = config.security.hmac_latency_cycles
        fetch = hit + config.nvm_read_cycles + hit + hmac
        assert cycles == 4 * hmac + fetch + 2 * hit
        parent = scheme.meta.probe(path[0][0])
        assert parent.dirty and parent.update_count == 1
        # The chain reports each line it updated with the image it holds.
        assert [line.addr for line, _ in chain] == [counter_addr] + [
            addr for addr, _ in path[:-1]
        ]
        assert all(scheme.meta.encoded(line) == image for line, image in chain)
        self._assert_chain(scheme, counter_addr, path, len(path))

    def test_spread_until_cached_counts_the_miss_once(self, config):
        scheme, counter_addr, path = self._parent_evicted("ccnvm", config)
        root_new = scheme.tcb.root_new
        before = self._counts(scheme)
        cycles = scheme._spread_until_cached(counter_addr, path)
        after = self._counts(scheme)
        hits, misses, hmacs, reads = (a - b for a, b in zip(after, before))
        # The fetched parent absorbs the update; its cached parent stops
        # the walk without a lookup.
        assert (hits, misses) == (1, 1)
        assert hmacs == 2
        assert reads == 1
        hit = config.security.meta_cache.hit_latency
        hmac = config.security.hmac_latency_cycles
        assert cycles == (hit + config.nvm_read_cycles + hit + hmac) + hmac
        assert scheme.meta.probe(path[0][0]).dirty
        assert scheme.tcb.root_new == root_new
        self._assert_chain(scheme, counter_addr, path, 1)
