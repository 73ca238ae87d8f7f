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

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.core.recovery import RecoveryManager, RecoveryPolicy, RecoveryReport
from repro.core.schemes.base import SecureNVMScheme
from repro.mem.cache import CacheLine


class StrictConsistency(SecureNVMScheme):
    """The paper's ``SC`` design."""

    name = "sc"

    def __init__(
        self,
        config: SystemConfig,
        data_capacity: int | None = None,
        seed: int | str = 0,
        stats: StatGroup | None = None,
    ) -> None:
        super().__init__(config, data_capacity, seed, stats)

    def _update_tree(self, now: int, counter_addr: int) -> int:
        cycles = self._spread_to_root(counter_addr)

        # Atomically flush the whole metadata path (counter + internal
        # nodes); the persistent root registers commit with it.
        path = [counter_addr]
        path += [addr for addr, _ in self.layout.tree_path(counter_addr)[:-1]]

        self.wpq.begin_atomic()
        flushed = 0
        for addr in path:
            line = self.meta.probe(addr)
            if line is not None:
                value = self.meta.encoded(line)
            elif addr in self.meta.overlay:
                value = self.meta.overlay.pop(addr)
            else:
                continue
            self.wpq.write_atomic(addr, value)
            flushed += 1
        # Dirty lines pushed out mid-chain (now in the overlay) join the
        # same atomic batch.
        for addr in list(self.meta.overlay):
            self.wpq.write_atomic(addr, self.meta.overlay.pop(addr))
            flushed += 1
        self.wpq.commit_atomic()
        cycles += self.controller.post_writes(now + cycles, flushed)
        for addr in path:
            self.meta.cache.clean(addr)
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

    def recover(self) -> RecoveryReport:
        """Near-trivial recovery: verify the (always-consistent) image.

        The data block and its HMAC are accepted into the WPQ *before*
        the metadata batch is assembled, so a crash can leave exactly one
        write-back's data durable while its counter update was dropped
        with the un-ended batch.  The stored counter therefore lags by at
        most the one in-flight write-back — retry bound 1 — and the
        stored tree legitimately matches ``root_new`` (quiescent) or
        ``root_old`` (crash mid-batch, both registers still equal the
        last committed root).
        """
        policy = RecoveryPolicy(
            check_tree_against=("new", "old"),
            retry_limit=1,
            freshness_check="root_new",
        )
        return RecoveryManager(
            self.nvm, self.tcb, self.merkle, policy, self.name
        ).run()
