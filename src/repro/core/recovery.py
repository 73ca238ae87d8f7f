"""Crash recovery and attack locating (Section 4.4).

After a power failure the NVM image may hold data blocks and data HMACs
*newer* than the (consistent but old) Merkle tree committed by the last
epoch.  Recovery exploits the hidden ability of the data HMACs: a stalled
counter is rolled forward by recomputing the data HMAC with incremented
counter values until it matches the stored code — bounded by the
update-times limit N that trigger condition 3 enforces.

The full cc-NVM recovery runs four steps:

1. **Locate normal replay attacks** — the stored tree must be internally
   consistent and match at least one TCB root register; any mismatching
   parent/child edge pinpoints tampering of the tree image itself.
2. **Recover stalled counters, locating spoofing/splicing** — per-block
   data-HMAC retry; a block whose code never matches within N retries has
   had its data or HMAC tampered with, and is reported *by address*.
3. **Detect potential replay** — the persistent ``Nwb`` register counts
   write-backs since the last commit; if the total retries ``Nretry``
   disagree, a fresh block was replayed to an in-epoch version
   (detectable but not locatable — the Section 4.3 window).  SC and
   Osiris Plus, which keep ``root_new`` fresh per write-back, instead
   compare the rebuilt root against ``root_new``.
4. **Rebuild** — recovered counters are written back, the tree is
   reconstructed bottom-up and both TCB roots adopt the rebuilt root.

The same manager serves every scheme through the :class:`RecoveryPolicy`
its class declares (``SecureNVMScheme.recovery_policy``): the
conventional designs simply run with the steps they can support
(Osiris Plus cannot use step 1 — its NVM tree is never consistent — and
w/o CC has no retry bound at all, so blocks can be genuinely
unrecoverable, the paper's motivating failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.address import page_index
from repro.common.constants import (
    BLOCKS_PER_PAGE,
    CACHE_LINE_SIZE,
    HMAC_SIZE,
    MINOR_COUNTER_MAX,
    PAGE_SIZE,
)
from repro.core.tcb import TCB
from repro.crypto.cme import CounterModeCipher
from repro.crypto.hmac_engine import HmacEngine
from repro.mem.nvm import NVMDevice
from repro.metadata.counters import CounterLine
from repro.metadata.layout import MerkleNodeId
from repro.metadata.merkle import MerkleTree


@dataclass(frozen=True)
class AttackFinding:
    """One located (or detected) integrity violation."""

    #: 'tree_tampering' (replayed/spoofed tree node, step 1),
    #: 'data_tampering' (spoofed/spliced/rolled-back block, step 2), or
    #: 'potential_replay' (step 3; detected but not locatable).
    kind: str
    #: Data-block address for data_tampering; None otherwise.
    address: int | None = None
    #: Tree node for tree_tampering; None otherwise.
    node: MerkleNodeId | None = None
    detail: str = ""


@dataclass
class RecoveryReport:
    """Outcome of one post-crash recovery run."""

    scheme: str
    #: Memory was restored to a consistent, decryptable, authenticated state.
    success: bool = False
    #: No evidence of any attack was found.
    clean: bool = True
    findings: list[AttackFinding] = field(default_factory=list)
    potential_replay_detected: bool = False
    #: Which TCB root the stored tree matched in step 1 ('old'/'new'/None).
    matched_root: str | None = None
    #: Data blocks whose counters could not be recovered within the bound.
    unrecoverable_blocks: list[int] = field(default_factory=list)
    #: Blocks whose counters were rolled forward (retries > 0).
    recovered_blocks: int = 0
    total_retries: int = 0
    nwb: int = 0
    #: Pages normalized across a split-counter major bump.
    majors_rolled: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, finding: AttackFinding) -> None:
        """Record a finding (clears the clean flag)."""
        self.findings.append(finding)
        self.clean = False


@dataclass(frozen=True)
class RecoveryPolicy:
    """What a given design's recovery is able to do."""

    #: TCB roots the stored tree may legitimately match in step 1
    #: (names among 'old'/'new'); empty skips step 1 entirely.
    check_tree_against: tuple[str, ...] = ()
    #: Maximum data-HMAC retries per block (the design's counter bound);
    #: a scheme declares ``None`` for the epoch's update limit N.
    retry_limit: int | None = 0
    #: Step-3 style: 'nwb' (the cc-NVM variants), 'root_new' (designs whose
    #: root_new is fresh per write-back), or None (no step 3 possible).
    freshness_check: str | None = None
    #: Section 4.4's extension: consult the TCB's per-counter-line update
    #: log so in-epoch replays are *located* (page granularity), not just
    #: detected.
    use_counter_log: bool = False


class RecoveryManager:
    """Runs the four-step recovery against an NVM image and a TCB."""

    def __init__(
        self,
        nvm: NVMDevice,
        tcb: TCB,
        merkle: MerkleTree,
        policy: RecoveryPolicy,
        scheme_name: str,
    ) -> None:
        self.nvm = nvm
        self.layout = nvm.layout
        self.tcb = tcb
        self.merkle = merkle
        self.policy = policy
        self.scheme_name = scheme_name
        self.hmac: HmacEngine = merkle.engine
        self.cipher = CounterModeCipher(tcb.encryption_key)

    # -- image access helpers (peek/poke: recovery is not runtime traffic) ------

    def _stored_data_hmac(self, addr: int) -> bytes:
        line, offset = self.layout.data_hmac_location(addr)
        return self.nvm.peek(line)[offset:offset + HMAC_SIZE]

    def _poke_data_hmac(self, addr: int, code: bytes) -> None:
        line, offset = self.layout.data_hmac_location(addr)
        old = self.nvm.peek(line)
        self.nvm.poke(line, old[:offset] + code + old[offset + HMAC_SIZE:])

    def _touched_data_pages(self) -> dict[int, list[int]]:
        pages: dict[int, list[int]] = {}
        data_end = self.layout.data_capacity
        for addr in self.nvm.touched_lines():
            if addr >= data_end:
                break  # sorted: the metadata regions follow the data region
            pages.setdefault(page_index(addr), []).append(addr)
        return pages

    # -- step 1 ------------------------------------------------------------------

    def _check_tree(self, report: RecoveryReport) -> None:
        for name in self.policy.check_tree_against:
            root = self.tcb.root_old if name == "old" else self.tcb.root_new
            if self.merkle.verify_consistent(root):
                report.matched_root = name
                return
        # No root matched: the stored tree itself was tampered with.
        reference = (
            self.tcb.root_old
            if "old" in self.policy.check_tree_against
            else self.tcb.root_new
        )
        for edge in self.merkle.find_mismatches(reference):
            report.add(
                AttackFinding(
                    "tree_tampering",
                    node=edge.child,
                    detail="stored HMAC of this node disagrees with its parent",
                )
            )

    # -- step 2 ------------------------------------------------------------------

    def _recover_block(
        self, addr: int, stored: CounterLine, resumed: bool
    ) -> tuple[tuple[int, int] | None, int, bool]:
        """Roll one block's counter forward via data-HMAC retry.

        Returns ``(pair, retries, major_rolled)`` — the recovered (major,
        minor), how many forward steps it took within its major, and
        whether the match was found past a major-counter bump.  ``pair``
        is ``None`` when nothing matches within the bound (tampering).
        A *resumed* run also finishes a re-encryption the interrupted run
        left torn (:meth:`_finish_torn_reencryption`).
        """
        block = self.layout.block_slot(addr)
        major, minor = stored.counter_pair(block)
        ciphertext = self.nvm.peek(addr)
        code = bytes(self._stored_data_hmac(addr))
        limit = self.policy.retry_limit
        # Consecutive crash states retry the same (block, counter) inputs,
        # so the codes come through the engine's recovery memo.
        data_hmac = self.hmac.recovery_data_hmac
        for k in range(limit + 1):
            if minor + k > MINOR_COUNTER_MAX:
                break
            if self.hmac.verify(code, data_hmac(ciphertext, addr, major, minor + k)):
                return (major, minor + k), k, False
        # A split-counter major bump re-keys the page to (major+1, small).
        for k in range(limit + 1):
            if self.hmac.verify(code, data_hmac(ciphertext, addr, major + 1, k)):
                return (major + 1, k), k, True
        if resumed and self._finish_torn_reencryption(
            addr, ciphertext, code, major, minor
        ):
            return (major + 1, 0), 0, True
        return None, 0, False

    def _finish_torn_reencryption(
        self, addr: int, ciphertext: bytes, code: bytes, major: int, minor: int
    ) -> bool:
        """Complete a block re-encryption an interrupted recovery left torn.

        :meth:`_normalize_page` pokes a block's ciphertext under
        ``(major + 1, 0)`` before the matching HMAC, and the counter line
        only later, so a crash between the two pokes leaves the new
        ciphertext beside the code of the old one while the stored line
        still holds the old major.  If the plaintext, re-encrypted under
        the old major within the retry bound, authenticates against the
        stored code, the block is intact: poke the code the re-encryption
        owed it and report success.  Only a run resuming over
        ``recovery_pending`` can meet this state.
        """
        plaintext = self.cipher.decrypt(ciphertext, addr, major + 1, 0)
        for k in range(self.policy.retry_limit + 1):
            if minor + k > MINOR_COUNTER_MAX:
                break
            old = self.cipher.encrypt(plaintext, addr, major, minor + k)
            if self.hmac.verify(
                code, self.hmac.recovery_data_hmac(old, addr, major, minor + k)
            ):
                self._poke_data_hmac(
                    addr, self.hmac.data_hmac(ciphertext, addr, major + 1, 0)
                )
                return True
        return False

    def _recover_counters(
        self, report: RecoveryReport, resumed: bool
    ) -> tuple[dict[int, CounterLine], dict[int, int], set[int]]:
        """Recover every touched page's counter line.

        Returns ``(recovered lines, per-leaf retry totals, rolled leaves)``
        — the latter two feed the freshness checks of step 3.
        """
        recovered: dict[int, CounterLine] = {}
        leaf_retries: dict[int, int] = {}
        rolled_leaves: set[int] = set()
        for leaf, addrs in sorted(self._touched_data_pages().items()):
            counter_addr = self.layout.merkle_node_addr(MerkleNodeId(0, leaf))
            stored = CounterLine.decode(self.nvm.peek(counter_addr))
            pairs: dict[int, tuple[int, int]] = {}
            written_off: set[int] = set()
            rolled = False
            leaf_retries[leaf] = 0
            for addr in sorted(addrs):
                pair, retries, major_rolled = self._recover_block(addr, stored, resumed)
                if pair is None:
                    report.add(
                        AttackFinding(
                            "data_tampering",
                            address=addr,
                            detail=(
                                "no counter within the retry bound authenticates "
                                "this block: data or data-HMAC was tampered with"
                            ),
                        )
                    )
                    report.unrecoverable_blocks.append(addr)
                    written_off.add(addr)
                    continue
                pairs[self.layout.block_slot(addr)] = pair
                report.total_retries += retries
                leaf_retries[leaf] += retries
                if retries or major_rolled:
                    report.recovered_blocks += 1
                rolled = rolled or major_rolled
            line = stored.copy()
            target_major = max([stored.major] + [p[0] for p in pairs.values()])
            if target_major > stored.major:
                rolled = True
                # After normalization every block of the page has a pair
                # under the target major.
                self._normalize_page(leaf, stored, pairs, target_major, written_off)
                line = CounterLine(
                    target_major, [pairs[b][1] for b in range(BLOCKS_PER_PAGE)]
                )
            else:
                for block, (_, pair_minor) in pairs.items():
                    line.minors[block] = pair_minor
            if rolled:
                report.majors_rolled += 1
                rolled_leaves.add(leaf)
            recovered[leaf] = line
        return recovered, leaf_retries, rolled_leaves

    def _normalize_page(
        self,
        leaf: int,
        stored: CounterLine,
        pairs: dict[int, tuple[int, int]],
        target_major: int,
        written_off: set[int],
    ) -> None:
        """Finish an interrupted page re-encryption at recovery time.

        Blocks still encrypted under the previous major are decrypted with
        their recovered (or stored) pair and re-encrypted under
        ``(target_major, 0)``, completing the roll-forward the crash
        interrupted.  *written_off* blocks have no recovered pair: they
        keep their stale data and code, which no pair under the target
        major authenticates, so they stay unreadable instead of being
        laundered into a wrong plaintext under a fresh code.
        """
        page_addr = leaf * PAGE_SIZE
        for block in range(BLOCKS_PER_PAGE):
            addr = page_addr + block * CACHE_LINE_SIZE
            if addr in written_off:
                pairs[block] = (target_major, 0)
                continue
            pair = pairs.get(block, stored.counter_pair(block))
            if pair[0] >= target_major:
                pairs[block] = pair
                continue
            plaintext = self.cipher.decrypt(self.nvm.peek(addr), addr, *pair)
            ciphertext = self.cipher.encrypt(plaintext, addr, target_major, 0)
            self.nvm.poke(addr, ciphertext)
            self._poke_data_hmac(
                addr, self.hmac.data_hmac(ciphertext, addr, target_major, 0)
            )
            pairs[block] = (target_major, 0)

    # -- steps 3 and 4 -------------------------------------------------------------

    def _apply(self, recovered: dict[int, CounterLine]) -> bytes:
        for leaf, line in recovered.items():
            self.nvm.poke(
                self.layout.merkle_node_addr(MerkleNodeId(0, leaf)), line.encode()
            )
        return self.merkle.build()

    def _check_counter_log(
        self,
        report: RecoveryReport,
        leaf_retries: dict[int, int],
        rolled_leaves: set[int],
    ) -> bool:
        """Section 4.4's extension: locate in-epoch replays per page.

        The TCB's extension registers record how many times each dirty
        counter line was updated since the last commit; a page whose
        recovery needed fewer roll-forwards than the register says had a
        fresh block replayed to an in-epoch version.  Returns True when
        any replay was located (the global Nwb check is then redundant).
        """
        located = False
        for counter_addr, expected in sorted(self.tcb.counter_log.items()):
            leaf = self.layout.leaf_index_of_counter_addr(counter_addr)
            if leaf in rolled_leaves:
                report.notes.append(
                    f"page {leaf}: extension-register check skipped "
                    "(major-counter roll)"
                )
                continue
            actual = leaf_retries.get(leaf, 0)
            if actual != expected:
                located = True
                report.potential_replay_detected = True
                report.add(
                    AttackFinding(
                        "replay_located",
                        address=leaf * PAGE_SIZE,
                        node=MerkleNodeId(0, leaf),
                        detail=(
                            f"extension registers recorded {expected} "
                            f"update(s) of this page since the last commit "
                            f"but recovery rolled its counters forward only "
                            f"{actual} time(s): a fresh block of this page "
                            "was replayed"
                        ),
                    )
                )
        return located

    def run(self) -> RecoveryReport:
        """Execute the recovery steps this design's policy allows.

        Recovery is *restartable*: the persistent ``recovery_pending``
        TCB register is set before the image is mutated and cleared only
        by the final ``set_roots``.  A run that finds it already set is
        resuming after a crash-during-recovery — the stored tree may be
        half-rebuilt (so step 1 cannot distinguish tampering from the
        interrupted rebuild) and the interrupted run already rolled
        counters forward (so retry totals are no longer commensurable
        with ``nwb``); both checks are skipped with a note, and the
        remaining steps are idempotent.
        """
        report = RecoveryReport(scheme=self.scheme_name, nwb=self.tcb.nwb)
        resumed = self.tcb.recovery_pending
        if resumed:
            report.notes.append(
                "resumed: a previous recovery attempt was interrupted "
                "(recovery_pending was set); tree and freshness checks "
                "skipped over the half-rebuilt image"
            )

        if self.policy.check_tree_against and not resumed:
            self._check_tree(report)

        self.tcb.begin_recovery()
        recovered, leaf_retries, rolled_leaves = self._recover_counters(
            report, resumed
        )
        root = self._apply(recovered)

        located_by_log = False
        if self.policy.use_counter_log and not resumed:
            if report.matched_root == "new":
                # Same window as the Nwb carve-out below: the crash
                # landed between the epoch's end signal and the root
                # commit, so the stored counters are fully fresh while
                # the extension registers still hold the closed epoch's
                # counts (they are cleared atomically with commit_root).
                # Comparing would false-alarm on every such crash.
                report.notes.append(
                    "extension-register check skipped: the stored tree "
                    "already matches root_new, so the epoch committed and "
                    "the not-yet-cleared registers describe no open window"
                )
            else:
                located_by_log = self._check_counter_log(
                    report, leaf_retries, rolled_leaves
                )

        if resumed:
            pass  # freshness state was consumed by the interrupted run
        elif located_by_log:
            pass  # the per-page check subsumes the global comparisons
        elif self.policy.freshness_check == "nwb":
            if report.matched_root == "new":
                report.notes.append(
                    "Nwb/Nretry comparison skipped: the stored tree "
                    "already matches root_new (the crash landed after "
                    "the epoch's end signal, before root_old caught up), "
                    "so the counters are fully fresh and the replay "
                    "window was closed"
                )
            elif report.majors_rolled:
                report.notes.append(
                    "Nwb/Nretry comparison skipped: a split-counter major "
                    "bump makes retry counts incommensurable with Nwb"
                )
            elif report.total_retries != report.nwb:
                report.potential_replay_detected = True
                report.add(
                    AttackFinding(
                        "potential_replay",
                        detail=(
                            f"Nretry={report.total_retries} != Nwb={report.nwb}: "
                            "a freshly written block was replayed to an "
                            "in-epoch version (not locatable)"
                        ),
                    )
                )
        elif self.policy.freshness_check == "root_new":
            if root != self.tcb.root_new:
                report.potential_replay_detected = True
                report.add(
                    AttackFinding(
                        "potential_replay",
                        detail=(
                            "rebuilt tree root disagrees with the per-write-back "
                            "root register: some block was replayed (not locatable)"
                        ),
                    )
                )

        self.tcb.set_roots(root)
        report.success = (
            not report.unrecoverable_blocks
            and not report.potential_replay_detected
            and not any(f.kind == "tree_tampering" for f in report.findings)
        )
        return report
