"""Host-speed calibration: a fixed kernel timed beside every pass.

Other tenants of a shared host slow every process on it by 1.3-2x for
seconds to minutes at a time, far more than the changes the benchmark
must resolve.  A pass therefore times this kernel — fixed stdlib-only
work that no change to the repository can speed up or slow down —
before, between and after its ops.  Each op's *host factor* is the mean
kernel time of the samples just before and just after it, over
:data:`NOMINAL_S`; the op's time is divided by it, which scales it to a
host on which the kernel takes :data:`NOMINAL_S` (a quiet 2-vCPU Intel
Xeon host running CPython 3.11).  Set-up is bracketed the same way.  Raw
times stay in the report.

The kernel mixes what the simulator spends its time on: interpreted
byte loops, HMAC-SHA256 and small dict/bytes churn.  It runs with the
garbage collector off, so a large heap the program leaves behind
cannot slow it and so hide a regression.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import statistics
import time

#: Kernel seconds on the reference host (2-vCPU Intel Xeon, quiet).
NOMINAL_S = 0.009
#: Least host seconds between two samples taken between ops.
INTERVAL_S = 0.5


def _kernel() -> int:
    key = b"host-speed-calibration-key-32b!!"
    table: dict[int, bytes] = {}
    total = 0
    for i in range(2000):
        digest = hmac.new(key, i.to_bytes(8, "little"), hashlib.sha256).digest()
        table[i & 511] = bytes(a ^ b for a, b in zip(digest, digest[::-1]))
        total += len(table[i & 511])
    return total


def kernel_seconds() -> float:
    """The kernel's time now: the faster of two back-to-back runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel samples taken over one pass, and the factors they imply."""

    def __init__(self) -> None:
        #: ``(perf_counter when the sample ended, kernel seconds)``.
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        seconds = kernel_seconds()
        self.samples.append((time.perf_counter(), seconds))

    def maybe_sample(self) -> None:
        """Sample if :data:`INTERVAL_S` has passed since the last one."""
        if time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Host factor for work done between *start* and *end*: the mean
        of the last sample before it and the first one after it."""
        before = [k for t, k in self.samples if t <= start][-1:]
        after = [k for t, k in self.samples if t >= end][:1]
        return statistics.mean(before + after or [k for _, k in self.samples]) / NOMINAL_S
