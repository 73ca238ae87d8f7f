"""Unit tests for the memory-controller timing model."""

from collections import deque

import pytest

from repro.common.config import SystemConfig, paper_config
from repro.mem.controller import MemoryController
from repro.mem.nvm import NVMDevice
from repro.metadata.layout import MemoryLayout


@pytest.fixture
def ctl():
    cfg = paper_config().with_nvm(capacity_bytes=1 << 20)
    nvm = NVMDevice(MemoryLayout(cfg.nvm.capacity_bytes))
    return MemoryController(cfg, nvm)


READ = 180  # 60 ns at 3 GHz
WRITE = 450  # 150 ns at 3 GHz
READ_IVL = READ // 8  # banked read service interval
WRITE_IVL = WRITE // 8  # banked write service interval


class TestReads:
    def test_idle_read_latency(self, ctl):
        assert ctl.read_completion(0) == READ

    def test_back_to_back_reads_pipeline_across_banks(self, ctl):
        # Full latency each, but issue slots only READ_IVL apart.
        assert ctl.read_completion(0) == READ
        assert ctl.read_completion(0) == READ_IVL + READ
        assert ctl.read_completion(0) == 2 * READ_IVL + READ

    def test_read_after_device_idle(self, ctl):
        ctl.read_completion(0)
        # By cycle 10_000 the device has long finished.
        assert ctl.read_completion(10_000) == 10_000 + READ

    def test_read_rate_saturates_at_bank_bandwidth(self, ctl):
        # 100 reads issued at once: the last one queues ~99 intervals.
        last = 0
        for _ in range(100):
            last = ctl.read_completion(0)
        assert last == 99 * READ_IVL + READ

    def test_reads_have_priority_over_posted_writes(self, ctl):
        # Posted writes retire in the background; a concurrent demand read
        # is not delayed by them (read-priority scheduling).
        for _ in range(10):
            ctl.post_write(0)
        assert ctl.read_completion(0) == READ


class TestWrites:
    def test_posted_write_does_not_stall_when_queue_empty(self, ctl):
        assert ctl.post_write(0) == 0

    def test_write_queue_backpressure(self, ctl):
        # Fill the 64-entry write queue instantly; the 65th posting stalls.
        stalls = [ctl.post_write(0) for _ in range(65)]
        assert all(s == 0 for s in stalls[:64])
        assert stalls[64] > 0

    def test_stall_equals_oldest_completion(self, ctl):
        for _ in range(64):
            ctl.post_write(0)
        # Oldest write retires after one service interval.
        assert ctl.post_write(0) == WRITE_IVL

    def test_queue_drains_over_time(self, ctl):
        for _ in range(64):
            ctl.post_write(0)
        # Much later everything has retired: no stall.
        assert ctl.post_write(64 * WRITE_IVL + 10) == 0
        assert ctl.pending_write_count == 1

    def test_post_writes_aggregates_stall(self, ctl):
        assert ctl.post_writes(0, 64) == 0
        assert ctl.post_writes(0, 2) > 0

    def test_write_stall_statistic(self, ctl):
        for _ in range(65):
            ctl.post_write(0)
        assert ctl.stats.counter("write_stall_cycles").value > 0


class ReferenceWriteQueue:
    """The per-line write-queue model, one posted write per call: the
    reference :meth:`MemoryController.post_writes` must reproduce."""

    def __init__(self, entries, interval):
        self.entries = entries
        self.interval = interval
        self.pending = deque()
        self.stall_cycles = 0
        self.posted = 0

    def post_write(self, now):
        while self.pending and self.pending[0] <= now:
            self.pending.popleft()
        stall = 0
        if len(self.pending) >= self.entries:
            oldest = self.pending.popleft()
            stall = max(0, oldest - now)
            now += stall
            self.stall_cycles += stall
        last = self.pending[-1] if self.pending else now
        self.pending.append(max(now, last) + self.interval)
        self.posted += 1
        return stall


#: (cycle, lines) batches: an empty queue, a full one that stalls, partial
#: drains between batches, an empty batch and a batch twice the queue.
WRITE_SCRIPT = [
    (0, 70), (0, 3), (100, 12), (5_000, 64), (5_000, 1), (5_050, 0),
    (60_000, 12), (60_010, 2), (61_000, 130), (61_000, 1),
]


class TestPostWritesBatch:
    def state(self, ctl):
        return (
            ctl.stats.counter("write_stall_cycles").value,
            ctl.stats.counter("writes_issued").value,
            list(ctl._pending_writes),
        )

    def test_batch_equals_chained_single_posts(self, ctl):
        cfg = paper_config().with_nvm(capacity_bytes=1 << 20)
        chained = MemoryController(cfg, NVMDevice(MemoryLayout(1 << 20)))
        reference = ReferenceWriteQueue(cfg.controller.write_queue_entries, WRITE_IVL)
        stalled = 0
        for now, lines in WRITE_SCRIPT:
            stall = ctl.post_writes(now, lines)
            single = reference_stall = 0
            for _ in range(lines):
                single += chained.post_write(now + single)
                reference_stall += reference.post_write(now + reference_stall)
            assert stall == single == reference_stall, (now, lines)
            assert self.state(ctl) == self.state(chained) == (
                reference.stall_cycles, reference.posted, list(reference.pending)
            )
            stalled += stall > 0
        assert stalled >= 3  # the script does exercise a full queue


class TestDrainTime:
    def test_drain_time_idle(self, ctl):
        assert ctl.drain_time(123) == 123

    def test_drain_time_with_backlog(self, ctl):
        ctl.post_write(0)
        ctl.post_write(0)
        assert ctl.drain_time(0) == 2 * WRITE_IVL

    def test_issue_counters(self, ctl):
        ctl.read_completion(0)
        ctl.post_write(0)
        assert ctl.stats.counter("reads_issued").value == 1
        assert ctl.stats.counter("writes_issued").value == 1


class TestLatencyScaling:
    def test_latencies_follow_config(self):
        cfg = SystemConfig().with_nvm(
            capacity_bytes=1 << 20,
            read_latency_ns=100.0,
            write_latency_ns=300.0,
            banks=1,
        )
        ctl = MemoryController(cfg, NVMDevice(MemoryLayout(1 << 20)))
        assert ctl.read_completion(0) == 300
        ctl2 = MemoryController(cfg, NVMDevice(MemoryLayout(1 << 20)))
        ctl2.post_write(0)
        assert ctl2.drain_time(0) == 900

    def test_single_bank_serializes_reads(self):
        cfg = SystemConfig().with_nvm(capacity_bytes=1 << 20, banks=1)
        ctl = MemoryController(cfg, NVMDevice(MemoryLayout(1 << 20)))
        assert ctl.read_completion(0) == READ
        assert ctl.read_completion(0) == 2 * READ
