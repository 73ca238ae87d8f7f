"""Trusted computing base state.

Holds everything the threat model places inside the processor chip:

* the secret encryption and HMAC keys;
* the Merkle-tree root registers.  cc-NVM keeps **two** persistent root
  registers (Section 4.2): ``root_new`` tracks the up-to-date tree held in
  the meta cache, while ``root_old`` is advanced only when an epoch commits
  and therefore always matches the consistent tree image in NVM;
* ``nwb`` — the 64-bit persistent register counting write-back events since
  the last committed drain (Section 4.3), used at recovery to detect the
  replay window deferred spreading opens.

Persistent registers survive a crash; everything else on chip (cache
contents, in-flight state) is lost.  :meth:`TCB.crash` models exactly
that split.
"""

from __future__ import annotations

from repro.common.constants import CACHE_LINE_SIZE, MERKLE_ARITY
from repro.common.persistence import persistence
from repro.crypto.prf import SecretKey
from repro.metadata.merkle import write_slot


@persistence(
    persistent=(
        "root_new",
        "root_old",
        "nwb",
        "counter_log",
        "recovery_pending",
    ),
)
class TCB:
    """On-chip secure state: keys and persistent registers."""

    def __init__(
        self,
        encryption_key: SecretKey,
        hmac_key: SecretKey,
        genesis_root: bytes,
    ) -> None:
        if len(genesis_root) != CACHE_LINE_SIZE:
            raise ValueError("the root register holds one 64 B root node")
        self.encryption_key = encryption_key
        self.hmac_key = hmac_key
        #: Root of the newest (possibly cache-only) tree state.
        self.root_new = bytes(genesis_root)
        #: Root matching the consistent tree image committed to NVM.
        self.root_old = bytes(genesis_root)
        #: Write-back events since the last committed drain.
        self.nwb = 0
        #: Optional extension registers (Section 4.4's closing remark):
        #: per dirty counter line, the update count since the last commit.
        #: Bounded by the dirty-address-queue depth; persistent.  Filled
        #: only by the locate design (``ccnvm_locate``).
        self.counter_log: dict[int, int] = {}
        #: Persistent one-bit register set while a recovery run is
        #: mutating the NVM image and cleared by :meth:`set_roots`.  A
        #: crash *during* recovery leaves it set, telling the next
        #: recovery attempt it is resuming over a half-rebuilt image (the
        #: stored tree need not match either root, and retry counts are
        #: no longer commensurable with ``nwb``).
        self.recovery_pending = False
        #: Optional persist-trace callback (see :mod:`repro.crashsim`):
        #: called with ``(mutator, addr)`` after every persistent-register
        #: micro-op so a recorder can interleave register updates with the
        #: WPQ persist stream.
        self.trace_hook = None

    def _trace(self, mutator: str, addr: int | None = None) -> None:
        if self.trace_hook is not None:
            self.trace_hook(mutator, addr)

    # -- root register manipulation ------------------------------------------------

    def update_root_new(self, slot: int, hmac: bytes) -> None:
        """Replace one child HMAC inside ``root_new``."""
        if not 0 <= slot < MERKLE_ARITY:
            raise ValueError(f"root slot {slot} out of range")
        self.root_new = write_slot(self.root_new, slot, hmac)
        self._trace("update_root_new")

    def set_root_new(self, root: bytes) -> None:
        """Overwrite ``root_new`` wholesale (recovery / full recompute)."""
        if len(root) != CACHE_LINE_SIZE:
            raise ValueError("the root register holds one 64 B root node")
        self.root_new = bytes(root)
        self._trace("set_root_new")

    def commit_root(self) -> None:
        """Epoch commit: ``root_old`` catches up with ``root_new``."""
        self.root_old = self.root_new
        self.nwb = 0
        self.counter_log.clear()
        self._trace("commit_root")

    def set_roots(self, root: bytes) -> None:
        """Set both registers to *root* (post-recovery reset)."""
        self.set_root_new(root)
        self.root_old = self.root_new
        self.nwb = 0
        self.counter_log.clear()
        self.recovery_pending = False
        self._trace("set_roots")

    def begin_recovery(self) -> None:
        """Set the persistent ``recovery_pending`` flag.

        Called by the recovery manager immediately before it starts
        mutating the NVM image, so a crash *during* recovery is visible
        to the next attempt.  Only :meth:`set_roots` clears the flag.
        """
        self.recovery_pending = True
        self._trace("begin_recovery")

    # -- write-back accounting -------------------------------------------------------

    def count_writeback(self) -> None:
        """Record one write-back event for the Nwb register."""
        self.nwb += 1
        self._trace("count_writeback")

    def log_counter_update(self, counter_addr: int) -> None:
        """Extension registers: count one update of a dirty counter line."""
        self.counter_log[counter_addr] = self.counter_log.get(counter_addr, 0) + 1
        self._trace("log_counter_update", counter_addr)

    # -- register snapshot / restore -----------------------------------------------

    def registers_snapshot(self) -> dict:
        """Read-only snapshot of every persistent register.

        Used by the crash-state explorer to pin the register file at a
        recorded trace point; keys survive in the TCB itself and are never
        part of the snapshot.
        """
        return {
            "root_new": self.root_new,
            "root_old": self.root_old,
            "nwb": self.nwb,
            "counter_log": dict(self.counter_log),
            "recovery_pending": self.recovery_pending,
        }

    def restore_registers(self, snapshot: dict) -> None:
        """Overwrite the persistent register file from a snapshot.

        This is a *simulation-harness* micro-op: real hardware has no
        such operation, but the crash-state explorer needs to rewind the
        registers to an earlier recorded state before replaying a crash
        image against recovery.
        """
        self.root_new = bytes(snapshot["root_new"])
        self.root_old = bytes(snapshot["root_old"])
        self.nwb = int(snapshot["nwb"])
        self.counter_log.clear()
        self.counter_log.update(
            {int(addr): int(count) for addr, count in snapshot["counter_log"].items()}
        )
        self.recovery_pending = bool(snapshot["recovery_pending"])

    # -- crash semantics ----------------------------------------------------------------

    def crash(self) -> None:
        """Model a power failure.

        Keys, the persistent registers (``root_new``, ``root_old``,
        ``nwb``, ``recovery_pending``) and the optional extension
        register file survive; the
        TCB holds no other state, so this is deliberately a no-op —
        defined explicitly to document the persistence contract in one
        place.
        """
