"""Osiris Plus — ECC-style counter restoration (Ye et al., MICRO'18).

The state-of-the-art comparison point (Section 5): dirty counter lines
never *have* to be flushed.  Instead, every counter line is written to NVM
once per N updates (the stop-loss/phase write), bounding how far the
stored value can trail the truth; after a crash the current value is
found again by bounded online checking — in this model, the same
data-HMAC retry cc-NVM uses.  The Merkle path is still recomputed up to
the TCB root register on every write-back (data and root must stay
consistent for recovery to be sound), but the *internal* tree nodes are
never deliberately persisted: the whole tree is rebuilt from the
recovered counters at boot and compared against the root register.

Consequences the evaluation leans on (Sections 3 and 5):

* write traffic barely exceeds the baseline (only the periodic counter
  writes and natural dirty evictions);
* per-write-back latency matches SC/cc-NVM-w/o-DS — the serial HMAC chain
  to the root dominates;
* after an attack, the rebuilt root merely *mismatches*: Osiris Plus can
  detect integrity violations across a crash but cannot point at the
  tampered block, so all data must be dropped — cc-NVM's headline
  advantage.
"""

from __future__ import annotations

from repro.core.recovery import RecoveryPolicy, RecoveryReport
from repro.core.schemes.base import SecureNVMScheme
from repro.mem.cache import CacheLine


class OsirisPlus(SecureNVMScheme):
    """The paper's ``Osiris Plus`` design."""

    name = "osiris_plus"

    # Counter restoration, tree rebuild, root comparison.  No step 1: the
    # stored internal tree is never consistent, so tree tampering and
    # replay collapse into one signal, the rebuilt root disagreeing with
    # the per-write-back root register (detection without location).
    # That check cannot tell a crash window from a replay either.
    recovery_policy = RecoveryPolicy(
        check_tree_against=(),
        retry_limit=None,
        freshness_check="root_new",
    )
    crash_outcomes = frozenset({"RECOVERED", "FALSE_ALARM"})

    def _update_tree(self, now: int, counter_addr: int) -> int:
        # Data may only be considered recoverable once the root register
        # reflects it, so the chain recompute blocks the write-back.
        return self._spread_to_root(counter_addr, self.layout.tree_path(counter_addr))[0]

    def _post_writeback(
        self, now: int, counter_addr: int, line: CacheLine, overflowed: bool
    ) -> int:
        # Stop-loss: the Nth update (or a page re-key, whose counter must
        # not trail the re-encrypted data) persists the counter line.
        # The persist is *ordered* (a one-line atomic batch, i.e. a WPQ
        # fence): Osiris Plus's staleness bound is only a bound if the
        # stop-loss write cannot be lost behind later write-backs still
        # in flight toward the WPQ.
        if overflowed or line.update_count >= self.config.epoch.update_limit:
            self.wpq.begin_atomic()
            self.wpq.write_atomic(counter_addr, self.meta.encoded(line))
            self.wpq.commit_atomic()
            self.meta.cache.clean(counter_addr)
            return self.controller.post_write(now)
        return 0

    def _on_dirty_meta_evict(self, victim: CacheLine) -> None:
        # Cached ancestors are already current (the chain is recomputed
        # every write-back), so a dirty victim just needs to be written.
        # For counters this makes the NVM copy fully current; for internal
        # nodes the NVM image is best-effort — recovery rebuilds it anyway.
        self.wpq.write(victim.addr, self.meta.encoded(victim))

    def flush(self) -> None:
        """Persist all dirty metadata (already current), *ordered*.

        The same argument as the stop-loss write applies: a flushed
        counter line reflects updates whose data may still be in flight
        toward the WPQ, so it must not be able to land while an earlier
        data write-back is lost — the stored counter would run *ahead*
        of the data, which the one-directional retry of counter
        restoration can never recover.  Each line goes through the
        one-line atomic batch (a WPQ fence), exactly like the stop-loss
        persist.
        """
        for line in list(self.meta.cache.dirty_lines()):
            self.wpq.begin_atomic()
            self.wpq.write_atomic(line.addr, self.meta.encoded(line))
            self.wpq.commit_atomic()
            self.meta.cache.clean(line.addr)

    def _annotate_recovery(self, report: RecoveryReport) -> None:
        if report.potential_replay_detected:
            report.notes.append(
                "Osiris Plus cannot locate the tampered block: the whole "
                "NVM contents must be dropped"
            )
