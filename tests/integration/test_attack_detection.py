"""Attack detection and location — the security matrix of the paper.

Covers the threat model's three integrity attacks (spoofing, splicing,
replay) both at *runtime* (verified loads raise) and *across a crash*
(Section 4.4 recovery detects — and for cc-NVM, locates).  The
comparison the paper leads with is checked explicitly: Osiris Plus only
*detects* a post-crash replay; cc-NVM *locates* tampered data.
"""

import pytest

from repro.core.attacks import Attacker
from repro.core.schemes import create_scheme
from repro.crashsim import PowerFailure, RecoveryRecorder
from repro.metadata.layout import MerkleNodeId
from repro.metadata.metacache import IntegrityError
from tests.conftest import CONSISTENT_SCHEMES, SMALL_CAPACITY, payload


def machine(scheme, config, seed=0):
    s = create_scheme(scheme, config, SMALL_CAPACITY, seed=seed)
    return s, Attacker(s.nvm)


def write_and_flush(s, addrs):
    t = 0
    for i, addr in enumerate(addrs):
        s.writeback(t, addr, payload(i))
        t += 500
    s.flush()
    return t


class TestRuntimeDetection:
    """On-line verification: attacks caught while the system runs."""

    @pytest.mark.parametrize("scheme", CONSISTENT_SCHEMES + ["no_cc"])
    def test_spoofed_data_detected_on_read(self, scheme, config):
        s, attacker = machine(scheme, config)
        t = write_and_flush(s, [0x1000])
        s.meta.crash()  # drop the meta cache so the read re-verifies
        attacker.spoof_data(0x1000)
        with pytest.raises(IntegrityError):
            s.read(t, 0x1000)

    @pytest.mark.parametrize("scheme", CONSISTENT_SCHEMES)
    def test_spoofed_data_hmac_detected_on_read(self, scheme, config):
        s, attacker = machine(scheme, config)
        t = write_and_flush(s, [0x1000])
        s.meta.crash()
        attacker.spoof_data_hmac(0x1000)
        with pytest.raises(IntegrityError):
            s.read(t, 0x1000)

    @pytest.mark.parametrize("scheme", CONSISTENT_SCHEMES)
    def test_spliced_data_detected_on_read(self, scheme, config):
        s, attacker = machine(scheme, config)
        t = write_and_flush(s, [0x1000, 0x9000])
        s.meta.crash()
        attacker.splice_data(0x1000, 0x9000)
        with pytest.raises(IntegrityError):
            s.read(t, 0x9000)

    @pytest.mark.parametrize("scheme", ["sc", "ccnvm", "ccnvm_no_ds"])
    def test_spoofed_counter_detected_on_fetch(self, scheme, config):
        s, attacker = machine(scheme, config)
        t = write_and_flush(s, [0x1000])
        s.meta.crash()
        attacker.spoof_counter_line(0x1000)
        with pytest.raises(IntegrityError) as exc:
            s.read(t, 0x1000)
        assert exc.value.node == MerkleNodeId(0, 1)  # page 1's leaf

    @pytest.mark.parametrize("scheme", ["sc", "ccnvm", "ccnvm_no_ds"])
    def test_replayed_counter_detected_on_fetch(self, scheme, config):
        s, attacker = machine(scheme, config)
        snap_t = write_and_flush(s, [0x1000])
        snapshot = attacker.record()
        for i in range(3):
            s.writeback(snap_t + i * 500, 0x1000, payload(50 + i))
        s.flush()
        s.meta.crash()
        attacker.replay_counter_line(snapshot, 0x1000)
        with pytest.raises(IntegrityError):
            s.read(snap_t + 10_000, 0x1000)

    def test_untampered_reads_never_raise(self, config):
        s, _ = machine("ccnvm", config)
        t = write_and_flush(s, [0x1000, 0x2000, 0x3000])
        s.meta.crash()
        for addr in (0x1000, 0x2000, 0x3000):
            s.read(t, addr)
            t += 500


    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("scheme", CONSISTENT_SCHEMES)
    def test_tampered_ancestor_located_by_writeback_tree_walk(
        self, scheme, config, level
    ):
        # The counter line stays cached, so only the write-back's own tree
        # walk (spread to the root, or deferred spreading's climb to the
        # first cached ancestor) fetches the uncached levels 1..level.
        s, attacker = machine(scheme, config)
        addr = 201 * 4096 + 0x40  # non-zero index and slot on every level
        t = write_and_flush(s, [addr])
        s.meta.crash()
        s.meta.load_counter(addr)
        node = MerkleNodeId(level, 201 >> (2 * level))
        for lower in range(1, level + 1):
            s.meta.cache.invalidate(
                s.layout.merkle_node_addr(MerkleNodeId(lower, 201 >> (2 * lower)))
            )
        attacker.spoof_tree_node(node)
        with pytest.raises(IntegrityError) as exc:
            s.writeback(t, addr, payload(9))
        assert exc.value.node == node


class TestPostCrashLocation:
    """Recovery-time detection AND location (cc-NVM's headline)."""

    @pytest.mark.parametrize("scheme", ["ccnvm", "ccnvm_no_ds"])
    def test_spoofed_data_located_by_address(self, scheme, config):
        s, attacker = machine(scheme, config)
        t = 0
        for i in range(30):
            s.writeback(t, 0x2000 + (i % 5) * 4096, payload(i))
            t += 500
        attacker.spoof_data(0x2000)
        s.crash()
        report = s.recover()
        assert not report.success
        located = [f for f in report.findings if f.kind == "data_tampering"]
        assert [f.address for f in located] == [0x2000]
        assert 0x2000 in report.unrecoverable_blocks

    def test_spoofed_hmac_located_by_address(self, config):
        s, attacker = machine("ccnvm", config)
        s.writeback(0, 0x2000, payload(1))
        attacker.spoof_data_hmac(0x2000)
        s.crash()
        report = s.recover()
        assert any(
            f.kind == "data_tampering" and f.address == 0x2000
            for f in report.findings
        )

    def test_spliced_data_located_at_destination(self, config):
        s, attacker = machine("ccnvm", config)
        s.writeback(0, 0x2000, payload(1))
        s.writeback(500, 0xA000, payload(2))
        attacker.splice_data(0x2000, 0xA000)
        s.crash()
        report = s.recover()
        located = {f.address for f in report.findings if f.kind == "data_tampering"}
        assert located == {0xA000}

    def test_tree_replay_located_at_node(self, config):
        s, attacker = machine("ccnvm", config)
        t = write_and_flush(s, [0x2000])
        snapshot = attacker.record()
        s.writeback(t, 0x2000, payload(9))
        s.flush()  # tree advances to a new committed state
        attacker.replay_counter_line(snapshot, 0x2000)
        s.crash()
        report = s.recover()
        assert any(f.kind == "tree_tampering" for f in report.findings)
        assert not report.success

    def test_multiple_attacks_all_located(self, config):
        s, attacker = machine("ccnvm", config)
        addrs = [0x2000, 0x6000, 0xB000]
        t = 0
        for i, addr in enumerate(addrs):
            s.writeback(t, addr, payload(i))
            t += 500
        attacker.spoof_data(0x2000)
        attacker.spoof_data_hmac(0x6000)
        s.crash()
        report = s.recover()
        located = {f.address for f in report.findings if f.kind == "data_tampering"}
        assert located == {0x2000, 0x6000}
        # The untouched block is still recoverable.
        assert 0xB000 not in report.unrecoverable_blocks


class TestDeferredSpreadingReplayWindow:
    """Section 4.3's undetectable-replay window and its Nwb defence."""

    def test_in_epoch_replay_detected_via_nwb(self, config):
        s, attacker = machine("ccnvm", config)
        s.writeback(0, 0x2000, payload(1))
        s.flush()  # commit: NVM tree consistent with ROOTold
        snapshot = attacker.record()
        # New write inside the next (uncommitted) epoch...
        s.writeback(1000, 0x2000, payload(2))
        # ... crash before the drain, with data+HMAC replayed to the
        # committed version: the old tree IS consistent, the old counter
        # DOES match the replayed pair.
        s.crash()
        attacker.replay_data(snapshot, 0x2000)
        report = s.recover()
        assert report.potential_replay_detected
        assert not report.success
        # But it cannot be located: no data_tampering finding names it.
        assert not any(f.kind == "data_tampering" for f in report.findings)
        assert report.nwb == 1
        assert report.total_retries == 0

    def test_no_ds_variant_detects_via_fresh_root(self, config):
        s, attacker = machine("ccnvm_no_ds", config)
        s.writeback(0, 0x2000, payload(1))
        s.flush()
        snapshot = attacker.record()
        s.writeback(1000, 0x2000, payload(2))
        s.crash()
        attacker.replay_data(snapshot, 0x2000)
        report = s.recover()
        # root_new is per-write-back fresh: the rebuilt root mismatches.
        assert report.potential_replay_detected

    def test_clean_crash_passes_nwb_check(self, config):
        s, _ = machine("ccnvm", config)
        s.flush()
        t = 0
        for i in range(7):
            s.writeback(t, 0x2000 + i * 4096, payload(i))
            t += 500
        s.crash()
        report = s.recover()
        assert report.success
        assert not report.potential_replay_detected
        assert report.nwb == report.total_retries


class TestOsirisDetectsButCannotLocate:
    """The comparison in Sections 1/3: Osiris Plus must drop everything."""

    def test_replay_detected_not_located(self, config):
        s, attacker = machine("osiris_plus", config)
        s.writeback(0, 0x2000, payload(1))
        s.flush()
        snapshot = attacker.record()
        s.writeback(1000, 0x2000, payload(2))
        s.crash()
        attacker.replay_data(snapshot, 0x2000)
        report = s.recover()
        assert report.potential_replay_detected
        assert not any(f.kind == "data_tampering" for f in report.findings)
        assert any("dropped" in note for note in report.notes)

    def test_ccnvm_locates_what_osiris_cannot(self, config):
        """Same attack, committed epoch: cc-NVM names the node, Osiris
        only sees a root mismatch."""
        results = {}
        for scheme in ("ccnvm", "osiris_plus"):
            s, attacker = machine(scheme, config, seed=11)
            t = write_and_flush(s, [0x2000])
            snapshot = attacker.record()
            s.writeback(t, 0x2000, payload(9))
            s.flush()
            attacker.replay_counter_line(snapshot, 0x2000)
            attacker.replay_data(snapshot, 0x2000)
            s.crash()
            results[scheme] = s.recover()
        ccnvm, osiris = results["ccnvm"], results["osiris_plus"]
        assert not ccnvm.success and not osiris.success
        # cc-NVM pinpoints the tampered tree node; Osiris has no location.
        assert any(f.node is not None for f in ccnvm.findings)
        assert all(f.node is None and f.address is None for f in osiris.findings)


class TestResumedRecoveryReplayGap:
    """Known gap (DESIGN.md "Known fidelity limits"): a recovery resumed
    after a crash-during-recovery skips step 1 and every freshness check,
    so an in-epoch replay the first attempt reports is accepted once
    power fails right after ``begin_recovery``.  SC is absent: it
    locates the replay from its always-consistent tree on resume too."""

    @pytest.mark.xfail(
        strict=True, reason="resumed recovery skips the freshness checks"
    )
    @pytest.mark.parametrize("scheme", ["osiris_plus", "ccnvm_no_ds", "ccnvm"])
    def test_replay_reported_after_crash_during_recovery(self, scheme, config):
        s, attacker = machine(scheme, config)
        s.writeback(0, 0x2000, payload(1))
        s.flush()
        snapshot = attacker.record()
        s.writeback(1000, 0x2000, payload(2))
        s.crash()
        attacker.replay_data(snapshot, 0x2000)
        # The first persist of recovery is begin_recovery; crash there.
        with RecoveryRecorder(s, crash_after=1):
            with pytest.raises(PowerFailure):
                s.recover()
        assert s.tcb.recovery_pending
        s.crash()
        report = s.recover()
        assert any("resumed" in note for note in report.notes)
        assert report.potential_replay_detected
        assert not report.success


class TestConfidentiality:
    def test_observed_nvm_carries_no_plaintext(self, config):
        s, attacker = machine("ccnvm", config)
        secret = b"CONFIDENTIAL-" + bytes(range(51))
        s.writeback(0, 0x3000, secret)
        s.flush()
        for addr in s.nvm.touched_lines():
            assert secret not in attacker.observe(addr)

    def test_same_plaintext_twice_yields_distinct_ciphertexts(self, config):
        s, attacker = machine("ccnvm", config)
        s.writeback(0, 0x3000, payload(7))
        first = attacker.observe(0x3000)
        s.writeback(500, 0x3000, payload(7))
        second = attacker.observe(0x3000)
        assert first != second  # counter bumped -> fresh pad
