"""Edge cases at the persistence boundary: WPQ batch statistics, batch
reuse, and scheme crash() interactions with in-flight state."""

import pytest

from repro.common.persistence import VolatileStateLost
from repro.core.schemes import create_scheme
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.metadata.layout import MemoryLayout
from tests.conftest import SMALL_CAPACITY, payload, small_config


class TestBatchStatistics:
    def test_batch_size_distribution_samples_commits(self):
        nvm = NVMDevice(MemoryLayout(1 << 20))
        wpq = WritePendingQueue(nvm, entries=8)
        for size in (1, 3, 5):
            wpq.begin_atomic()
            for i in range(size):
                wpq.write_atomic(i * 64, bytes(64))
            wpq.commit_atomic()
        dist = wpq.stats.distribution("batch_size")
        assert dist.count == 3
        assert dist.mean == 3.0
        assert dist.max == 5

    def test_dropped_batches_not_sampled(self):
        nvm = NVMDevice(MemoryLayout(1 << 20))
        wpq = WritePendingQueue(nvm, entries=8)
        wpq.begin_atomic()
        wpq.write_atomic(0, bytes(64))
        wpq.power_failure()
        assert wpq.stats.distribution("batch_size").count == 0


class TestCrashDuringScheme:
    def test_crash_with_open_epoch_then_new_epoch(self, config):
        scheme = create_scheme("ccnvm", config, SMALL_CAPACITY, seed=1)
        scheme.writeback(0, 0x1000, payload(1))
        assert len(scheme.queue) > 0
        scheme.crash()
        with pytest.raises(VolatileStateLost):
            len(scheme.queue)
        assert scheme.recover().success
        assert len(scheme.queue) == 0
        # The machine is immediately usable for a fresh epoch.
        scheme.writeback(10_000, 0x2000, payload(2))
        scheme.flush()
        assert scheme.queue.drains_by_trigger()["flush"] >= 1

    def test_repeated_crash_without_recovery_is_idempotent(self, config):
        scheme = create_scheme("ccnvm", config, SMALL_CAPACITY, seed=2)
        scheme.writeback(0, 0x1000, payload(1))
        scheme.crash()
        image = scheme.nvm.snapshot()
        scheme.crash()
        scheme.crash()
        assert scheme.nvm.snapshot() == image
        assert scheme.recover().success

    def test_recovery_without_prior_crash_is_safe(self, config):
        """Recovery on a live, flushed machine is a no-op audit."""
        scheme = create_scheme("ccnvm", config, SMALL_CAPACITY, seed=3)
        scheme.writeback(0, 0x1000, payload(1))
        scheme.flush()
        scheme.meta.crash()  # recovery expects cold caches
        report = scheme.recover()
        assert report.success
        assert report.total_retries == 0

    def test_flush_twice_is_idempotent(self, config):
        scheme = create_scheme("ccnvm", config, SMALL_CAPACITY, seed=4)
        scheme.writeback(0, 0x1000, payload(1))
        scheme.flush()
        writes = scheme.nvm.total_writes
        scheme.flush()  # empty epoch: no new metadata traffic
        assert scheme.nvm.total_writes == writes


class TestDrainTriggerPriority:
    def test_queue_full_fires_before_reservation(self, config):
        """Trigger 1's look-ahead: the drain happens before the incoming
        path is reserved, so the reservation always succeeds."""
        cfg = small_config(dirty_queue_entries=8)
        scheme = create_scheme("ccnvm", cfg, SMALL_CAPACITY, seed=5)
        t = 0
        for page in range(30):  # distinct pages overflow 8 entries fast
            scheme.writeback(t, page * 4096, payload(page))
            t += 500
        assert scheme.queue.drains_by_trigger()["queue_full"] >= 1
        # Never overflowed: every reservation fit post-drain.
        assert len(scheme.queue) <= 8

    def test_overflow_trigger_beats_update_limit(self, config):
        from repro.common.constants import MINOR_COUNTER_MAX

        cfg = small_config(update_limit=4)
        scheme = create_scheme("ccnvm", cfg, SMALL_CAPACITY, seed=6)
        scheme.meta.load_counter(0x1000)
        line = scheme.meta.probe(scheme.layout.counter_line_addr(0x1000))
        line.data.minors[scheme.layout.block_slot(0x1000)] = MINOR_COUNTER_MAX
        line.update_count = 100  # both triggers armed
        scheme.writeback(0, 0x1000, payload(1))
        triggers = scheme.queue.drains_by_trigger()
        assert triggers["overflow"] == 1
        assert triggers["update_limit"] == 0
