"""Hard crash edges: power failures injected straight into the model.

The edges the paper's protocol lives or dies on: a power failure with an
empty vs. a full (un-ended) atomic batch, dropping the volatile dirty
address queue and starting a fresh epoch, and a second crash landing in
the middle of recovery itself.  The first two call ``power_failure()``
and ``crash()`` directly; the last crashes recovery after each of its
own persists (:class:`~repro.crashsim.trace.RecoveryRecorder`).
"""

import pytest

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.persistence import VolatileStateLost
from repro.core.schemes import create_scheme
from repro.crashsim import PowerFailure, RecoveryRecorder
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.metadata.layout import MemoryLayout

from tests.conftest import TINY_CAPACITY, payload

LINE = bytes([0x5A]) * CACHE_LINE_SIZE


class Blackout(Exception):
    """Power lost at a chosen persist micro-op of a write-back or drain."""


class TestWPQCrashEdges:
    """ADR resolution with an empty vs. a full un-ended batch."""

    @pytest.fixture
    def wpq(self):
        nvm = NVMDevice(MemoryLayout(1 << 20))
        return WritePendingQueue(nvm, entries=8)

    def test_power_failure_outside_batch_drops_nothing(self, wpq):
        wpq.write(0, LINE)
        assert wpq.power_failure() == 0
        assert wpq.nvm.peek(0) == LINE  # normal writes were already durable

    def test_power_failure_with_empty_open_batch(self, wpq):
        wpq.begin_atomic()
        assert wpq.power_failure() == 0
        assert not wpq.in_atomic_batch  # crash resolved the open batch

    def test_power_failure_drops_full_batch_wholesale(self, wpq):
        wpq.write(0, LINE)
        wpq.begin_atomic()
        for i in range(1, 4):
            wpq.write_atomic(i * 64, LINE)
        assert wpq.power_failure() == 3
        assert not wpq.in_atomic_batch
        assert wpq.nvm.peek(0) == LINE
        for i in range(1, 4):
            assert wpq.nvm.peek(i * 64) == bytes(CACHE_LINE_SIZE)
        assert wpq.stats.counter("batches_dropped").value == 1

    def test_injected_crash_before_end_drops_batch(self, wpq):
        wpq.begin_atomic()
        wpq.write_atomic(64, LINE)
        # Power fails with the full batch buffered, before the end signal.
        assert wpq.power_failure() == 1
        assert wpq.nvm.peek(64) == bytes(CACHE_LINE_SIZE)

    def test_injected_crash_after_end_keeps_batch(self, wpq):
        wpq.begin_atomic()
        wpq.write_atomic(64, LINE)
        wpq.commit_atomic()
        # ADR: the end signal was given, so the batch is already in NVM.
        assert wpq.power_failure() == 0
        assert wpq.nvm.peek(64) == LINE


class TestDirtyQueueCrashEdges:
    """The volatile DAQ is dropped on crash and a fresh epoch begins."""

    def test_daq_dropped_and_new_epoch_opens(self):
        scheme = create_scheme("ccnvm", data_capacity=TINY_CAPACITY)
        for i in range(4):
            scheme.writeback(i * 1000, 0x2000 + i * 64, payload(i))
        root_before = scheme.tcb.root_old

        scheme.writeback(5000, 0x2100, payload(9))
        assert len(scheme.queue) > 0  # the path is reserved, uncommitted
        scheme.crash()
        with pytest.raises(VolatileStateLost):
            len(scheme.queue)  # volatile queue lost with power
        assert scheme.tcb.root_old == root_before  # epoch never committed

        report = scheme.recover()
        assert report.success
        assert len(scheme.queue) == 0  # back, empty
        # The next epoch starts from scratch and can commit: push one
        # block past the update-times limit to force a drain.
        limit = scheme.config.epoch.update_limit
        t = 10_000
        for i in range(limit + 1):
            scheme.writeback(t, 0x2000, payload(50 + i))
            t += 1000
        assert scheme.tcb.root_old != root_before
        assert scheme.tcb.root_old == scheme.tcb.root_new

    def test_crash_mid_drain_drops_queue_and_recovers(self):
        scheme = create_scheme("ccnvm", data_capacity=TINY_CAPACITY)

        def fail_at_start_signal(kind, addr, data):
            if kind == "begin_atomic":
                raise Blackout(kind)

        # The drain trigger fired and the drainer's start signal went
        # out; power fails before any metadata line joins the batch.
        scheme.wpq.trace_hook = fail_at_start_signal
        limit = scheme.config.epoch.update_limit
        t = 0
        with pytest.raises(Blackout):
            for i in range(limit + 1):
                scheme.writeback(t, 0x2000, payload(i))
                t += 1000
        scheme.wpq.trace_hook = None
        scheme.crash()
        with pytest.raises(VolatileStateLost):
            len(scheme.queue)
        report = scheme.recover()
        assert report.success
        assert len(scheme.queue) == 0
        got, _ = scheme.read(t + 10_000, 0x2000)
        assert got in (payload(limit - 1), payload(limit))  # last or in-flight


class TestDoubleCrash:
    """A second power failure in the middle of recovery must be survivable."""

    def test_crash_during_recovery_is_restartable(self):
        def crashed_machine():
            scheme = create_scheme("ccnvm", data_capacity=TINY_CAPACITY)
            t = 0
            for i in range(6):
                scheme.writeback(t, 0x3000 + (i % 3) * 64, payload(i))
                t += 1000
            scheme.crash()
            return scheme, t

        scheme, _ = crashed_machine()
        with RecoveryRecorder(scheme) as recorder:
            scheme.recover()
        persists = len(recorder.ops)
        assert persists > 3  # begin_recovery, leaf and node pokes, roots

        for crash_after in range(1, persists + 1):
            scheme, t = crashed_machine()
            with RecoveryRecorder(scheme, crash_after=crash_after):
                with pytest.raises(PowerFailure):
                    scheme.recover()
            assert scheme.tcb.recovery_pending == (crash_after < persists)
            scheme.crash()

            report = scheme.recover()
            assert report.success, crash_after
            assert not scheme.tcb.recovery_pending
            assert scheme.tcb.root_old == scheme.tcb.root_new
            if crash_after < persists:
                assert any("resumed" in note for note in report.notes)
            for i in range(3):
                got, _ = scheme.read(t + i * 1000, 0x3000 + i * 64)
                assert got == payload(3 + i)  # the last value written per block
