"""Memory-controller timing model.

A single-channel controller with a read queue, a write queue and the
ADR-protected WPQ in front of a PCM device.  Two service paths model the
read-priority scheduling every modern controller implements:

* **Reads** are latency-critical: each takes the full 60 ns array
  latency, but consecutive reads pipeline across the device's banks, so
  the sustainable read rate is one line per (latency / banks).  The
  completion time is returned to the caller so the CPU can stall on
  demand misses.
* **Writes** are posted: they retire in the background at the device's
  banked write bandwidth without delaying reads — the
  paper's observation that "all extra metadata write traffic is incurred
  by data write-back, which is out of the critical path of the CPU
  execution" (Section 5.2).  The producer only stalls when the 64-entry
  write queue is full, which is exactly how a design that floods the
  write path (strict consistency's ~13 line writes per write-back) starts
  hurting IPC once "the NVM bandwidth [becomes] the bottleneck".

The functional path (what bytes land where) is delegated to the WPQ and
the device; this class only accounts for time.
"""

from __future__ import annotations

from collections import deque

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.mem.nvm import NVMDevice, PermanentMediaError, TransientReadFault
from repro.mem.wpq import WritePendingQueue


class MemoryController:
    """Queueing/timing front-end of the NVM device."""

    def __init__(
        self,
        config: SystemConfig,
        nvm: NVMDevice,
        stats: StatGroup | None = None,
    ) -> None:
        self.config = config
        self.nvm = nvm
        self._stats = stats if stats is not None else StatGroup("controller")
        self.wpq = WritePendingQueue(
            nvm, config.controller.wpq_entries, self._stats.group("wpq")
        )
        self._read_cycles = config.nvm_read_cycles
        self._write_cycles = config.nvm_write_cycles
        banks = config.nvm.banks
        self._read_interval = max(1, self._read_cycles // banks)
        self._write_interval = max(1, self._write_cycles // banks)
        self._wq_entries = config.controller.write_queue_entries
        self._retry_limit = config.controller.read_retry_limit
        self._retry_backoff = config.controller.read_retry_backoff_cycles
        self._retry_backoff_cap = config.controller.read_retry_backoff_cap_cycles
        #: Cycle at which the read path becomes free again.
        self._read_free_at = 0
        #: Completion times of writes still occupying write-queue slots.
        self._pending_writes: deque[int] = deque()
        self._read_latency = self._stats.distribution("read_latency")
        self._write_stalls = self._stats.counter("write_stall_cycles")
        self._reads_issued = self._stats.counter("reads_issued")
        self._writes_issued = self._stats.counter("writes_issued")
        self._media_retries = self._stats.counter(
            "media_read_retries", "re-reads after ECC-detected media faults"
        )
        self._media_absorbed = self._stats.counter(
            "media_faults_absorbed", "faulty reads recovered by retry"
        )
        self._media_failures = self._stats.counter(
            "media_permanent_failures", "lines given up on after the retry budget"
        )
        self._media_backoff = self._stats.counter(
            "media_backoff_cycles", "cycles spent backing off between retries"
        )
        self._media_backoff_capped = self._stats.counter(
            "media_backoff_capped", "retries whose backoff hit the hard ceiling"
        )

    @property
    def stats(self) -> StatGroup:
        """Controller timing statistics."""
        return self._stats

    def _drain_completed(self, now: int) -> None:
        while self._pending_writes and self._pending_writes[0] <= now:
            self._pending_writes.popleft()

    # -- functional read path (media-fault aware) ----------------------------------

    def read_line(self, addr: int) -> bytes:
        """Read one line, absorbing transient media faults by bounded retry.

        An ECC-detected fault is retried up to ``read_retry_limit`` times
        with exponential backoff (the backoff occupies the read port, so
        it shows up in subsequent read latencies).  A line still faulty
        after the budget raises :class:`PermanentMediaError` carrying the
        located address and region — graceful degradation is the caller's
        job, but the failure is never silent.
        """
        limit = self._retry_limit
        backoff = self._retry_backoff
        cap = self._retry_backoff_cap
        attempt = 0
        while True:
            try:
                data = self.nvm.read_line(addr)
            except TransientReadFault:
                attempt += 1
                self._media_retries.inc()
                if attempt > limit:
                    self._media_failures.inc()
                    raise PermanentMediaError(
                        addr, self.nvm.layout.region_of(addr), attempt
                    ) from None
                if backoff >= cap:
                    backoff = cap
                    self._media_backoff_capped.inc()
                self._media_backoff.inc(backoff)
                self._read_free_at += backoff
                backoff = min(backoff * 2, cap)
                continue
            if attempt:
                self._media_absorbed.inc()
            return data

    # -- timing interface ---------------------------------------------------------

    def read_completion(self, now: int) -> int:
        """Issue a demand read at cycle *now*; return its completion cycle.

        Reads contend only with earlier reads (read-priority scheduling)
        and pipeline across banks; the returned latency includes the
        queueing delay when the read rate exceeds the banked bandwidth.
        """
        start = max(now, self._read_free_at)
        done = start + self._read_cycles
        self._read_free_at = start + self._read_interval
        self._reads_issued.inc()
        self._read_latency.sample(done - now)
        return done

    def post_write(self, now: int) -> int:
        """Post one line write at cycle *now*; return producer stall cycles.

        The write occupies a write-queue slot until the device retires it
        at the banked write bandwidth.  If all slots are busy the producer
        waits for the oldest write to retire — the returned stall.
        """
        return self.post_writes(now, 1)

    def post_writes(self, now: int, count: int) -> int:
        """Post *count* line writes back to back from cycle *now*; return
        the total producer stall.

        Each write is posted as :meth:`post_write` describes, at *now*
        plus the stalls before it, so the batch equals *count* chained
        :meth:`post_write` calls.
        """
        pending = self._pending_writes
        entries = self._wq_entries
        interval = self._write_interval
        total = 0
        for _ in range(count):
            at = now + total
            while pending and pending[0] <= at:
                pending.popleft()
            if len(pending) >= entries:
                stall = max(0, pending.popleft() - at)
                at += stall
                total += stall
            last = pending[-1] if pending else at
            pending.append(max(at, last) + interval)
        self._write_stalls.inc(total)
        self._writes_issued.inc(count)
        return total

    def drain_time(self, now: int) -> int:
        """Cycle at which every currently pending write has retired."""
        self._drain_completed(now)
        return max(now, self._pending_writes[-1] if self._pending_writes else now)

    @property
    def pending_write_count(self) -> int:
        """Write-queue occupancy (timing model view)."""
        return len(self._pending_writes)
