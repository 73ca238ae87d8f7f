"""w/o CC — secure NVM without crash consistency (the normalization base).

The conventional DRAM-style secure memory moved to NVM unchanged: counters
and tree nodes are cached and updated in place; the Merkle tree is
maintained *lazily* — a dirty metadata line folds its HMAC into its parent
only when it is evicted ("it only writes to memory dirty evictions from
cache", Section 5).  Runtime confidentiality and integrity are fully
provided, and performance is the best achievable — which is exactly why
every figure normalizes to this design.

The price is paid at a crash: the freshest counters live only in SRAM, so
the NVM image wakes up with stale counters that no bound constrains, and
the tree image is a mixture of epochs no TCB root matches.  Recovery is
best-effort (the same data-HMAC retry as cc-NVM, but with no guarantee the
true counter lies within any bound) and typically reports unrecoverable
blocks — the paper's motivation for crash-consistent designs.
"""

from __future__ import annotations

from repro.core.recovery import RecoveryPolicy, RecoveryReport
from repro.core.schemes.base import SecureNVMScheme
from repro.mem.cache import CacheLine


class WithoutCrashConsistency(SecureNVMScheme):
    """The paper's ``w/o CC`` baseline."""

    name = "no_cc"

    # Best-effort recovery, expected to fail after a real crash.  The
    # stored tree matches no root (step 1 cannot tell crash damage from
    # attacks and is skipped), counters may be arbitrarily stale (the
    # retry bound borrowed from the epoch config is a courtesy, not a
    # guarantee), and no freshness check is possible.
    recovery_policy = RecoveryPolicy(
        check_tree_against=(),
        retry_limit=None,
        freshness_check=None,
    )
    crash_outcomes = frozenset({"RECOVERED", "DEGRADED"})

    def _update_tree(self, now: int, counter_addr: int) -> int:
        # Lazy maintenance: nothing happens at write-back time; the HMAC
        # chain is folded upward only when dirty lines leave the cache.
        return 0

    def _on_dirty_meta_evict(self, victim: CacheLine) -> None:
        self._lazy_propagate_and_write(victim)

    def flush(self) -> None:
        """Graceful shutdown: push all dirty metadata out consistently."""
        self._flush_all_dirty_lazily()

    def _annotate_recovery(self, report: RecoveryReport) -> None:
        report.notes.append(
            "w/o CC provides no crash consistency: recovery is best-effort "
            "and unrecoverable blocks are expected after a crash"
        )
