"""SC — strict consistency (Section 2.3's naive approach).

Every write-back atomically persists the data block *and* its entire
metadata closure: the counter line and all Merkle-tree nodes on its path
are recomputed serially up to the root and flushed to NVM in one atomic
WPQ batch, with the TCB root committed alongside.  For the paper's 16 GB
device that is "12 atomic BMT updates on every write-back (the BMT root
is updated on the TCB, whereas 10 internal path nodes and the leaf-level
counter are updated in the NVM)" (Section 5.2) — plus data and data HMAC,
~13 line writes per eviction.

NVM is consistent at *every instant*, so recovery is trivial; the cost is
the ~5.5x write amplification and the serial HMAC chain on every
write-back that motivate cc-NVM.
"""

from __future__ import annotations

from repro.core.recovery import RecoveryPolicy
from repro.core.schemes.base import SecureNVMScheme
from repro.mem.cache import CacheLine


class StrictConsistency(SecureNVMScheme):
    """The paper's ``SC`` design."""

    name = "sc"

    # Near-trivial recovery of an always-consistent image.  The data block
    # and its HMAC enter the WPQ before the metadata batch is assembled,
    # so a crash can leave one write-back's data durable while its
    # counter update was dropped with the un-ended batch: the stored
    # counter lags by at most that one write-back (retry bound 1), and
    # the stored tree matches root_new (quiescent) or root_old (crash
    # mid-batch, both registers still equal the last committed root).
    # The rebuilt-root freshness check cannot tell that crash window
    # from a replay, so a pure crash may honestly report one.
    recovery_policy = RecoveryPolicy(
        check_tree_against=("new", "old"),
        retry_limit=1,
        freshness_check="root_new",
    )
    crash_outcomes = frozenset({"RECOVERED", "FALSE_ALARM"})

    def _update_tree(self, now: int, counter_addr: int) -> int:
        cycles, chain = self._spread_to_root(
            counter_addr, self.layout.tree_path(counter_addr)
        )

        # Atomically flush the whole metadata path (counter + internal
        # nodes) as the spread left it; the persistent root registers
        # commit with it.  A path line pushed out mid-chain holds the same
        # image in the overlay, which it leaves here.
        overlay = self.meta.overlay
        self.wpq.begin_atomic()
        for line, value in chain:
            addr = line.addr
            overlay.pop(addr, None)
            self.wpq.write_atomic(addr, value)
        flushed = len(chain)
        # Other dirty lines pushed out mid-chain join the same atomic batch.
        for addr in list(overlay):
            self.wpq.write_atomic(addr, overlay.pop(addr))
            flushed += 1
        self.wpq.commit_atomic()
        cycles += self.controller.post_writes(now + cycles, flushed)
        for line, _ in chain:
            line.dirty = False
            line.update_count = 0
        self.tcb.commit_root()
        return cycles

    def _on_dirty_meta_evict(self, victim: CacheLine) -> None:
        # Between write-backs every metadata line is clean; a dirty victim
        # can only appear mid-chain while its path is being recomputed.
        # Park it in the overlay: loads keep seeing the newest value and
        # the current write-back's atomic batch commits it.
        self.meta.overlay[victim.addr] = self.meta.encoded(victim)

    def flush(self) -> None:
        """Nothing to do: NVM is consistent after every write-back."""
