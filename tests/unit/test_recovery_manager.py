"""Unit tests for the RecoveryManager's policies and mechanics,
independent of any scheme (the schemes' integration behaviour is covered
in tests/integration/)."""

import pytest

from repro.core.attacks import Attacker
from repro.core.recovery import (
    AttackFinding,
    RecoveryManager,
    RecoveryPolicy,
    RecoveryReport,
)
from repro.core.tcb import TCB
from repro.crypto.cme import CounterModeCipher
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey
from repro.mem.nvm import NVMDevice
from repro.metadata.counters import CounterLine
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout, MerkleNodeId
from repro.metadata.merkle import MerkleTree


ENC = SecretKey.from_seed("rm-enc")
MAC = SecretKey.from_seed("rm-mac")
CAPACITY = 1 << 18  # 64 pages


class Bench:
    """A bare NVM image + TCB, written to directly (no scheme)."""

    def __init__(self):
        self.layout = MemoryLayout(CAPACITY)
        self.genesis = GenesisImage(self.layout, ENC, MAC)
        self.nvm = NVMDevice(self.layout, initializer=self.genesis.line)
        self.tcb = TCB(ENC, MAC, self.genesis.root_register())
        self.hmac = HmacEngine(MAC)
        self.cipher = CounterModeCipher(ENC)
        self.merkle = MerkleTree(self.nvm, self.hmac, self.genesis)

    def write_block(self, addr, plaintext, major, minor):
        """Persist (data, data HMAC) for one block, as the WPQ would."""
        ct = self.cipher.encrypt(plaintext, addr, major, minor)
        self.nvm.poke(addr, ct)
        line, offset = self.layout.data_hmac_location(addr)
        old = self.nvm.peek(line)
        code = self.hmac.data_hmac(ct, addr, major, minor)
        self.nvm.poke(line, old[:offset] + code + old[offset + 16:])

    def commit_counters(self, minors_by_addr):
        """Write counter lines + tree + roots (a committed epoch)."""
        pages = {}
        for addr, minor in minors_by_addr.items():
            pages.setdefault(self.layout.counter_leaf_index(addr), {})[
                self.layout.block_slot(addr)
            ] = minor
        for leaf, blocks in pages.items():
            line = CounterLine()
            for block, minor in blocks.items():
                line.minors[block] = minor
            self.nvm.poke(
                self.layout.counter_line_addr(leaf * 4096), line.encode()
            )
        self.tcb.set_roots(self.merkle.build())

    def recover(self, policy):
        return RecoveryManager(
            self.nvm, self.tcb, self.merkle, policy, "bench"
        ).run()


NWB_POLICY = RecoveryPolicy(
    check_tree_against=("old", "new"), retry_limit=16, freshness_check="nwb"
)


class TestCleanPaths:
    def test_fresh_image_recovers_trivially(self):
        bench = Bench()
        report = bench.recover(NWB_POLICY)
        assert report.success and report.clean
        assert report.total_retries == 0

    def test_stale_counter_rolled_forward(self):
        bench = Bench()
        bench.write_block(0x1000, b"v1".ljust(64), 0, 1)
        bench.commit_counters({0x1000: 1})
        # Two more write-backs after the commit (counter stays stale).
        bench.write_block(0x1000, b"v3".ljust(64), 0, 3)
        bench.tcb.nwb = 2
        report = bench.recover(NWB_POLICY)
        assert report.success
        assert report.total_retries == 2
        stored = CounterLine.decode(
            bench.nvm.peek(bench.layout.counter_line_addr(0x1000))
        )
        assert stored.counter_pair(bench.layout.block_slot(0x1000)) == (0, 3)

    def test_rebuild_aligns_both_roots(self):
        bench = Bench()
        bench.write_block(0x2000, b"x".ljust(64), 0, 1)
        bench.tcb.nwb = 1
        report = bench.recover(NWB_POLICY)
        assert report.success
        assert bench.tcb.root_old == bench.tcb.root_new
        assert bench.merkle.verify_consistent(bench.tcb.root_new)

    def test_matched_root_reported(self):
        bench = Bench()
        report = bench.recover(NWB_POLICY)
        assert report.matched_root == "old"


class TestPolicyKnobs:
    def test_retry_limit_zero_flags_any_staleness(self):
        bench = Bench()
        bench.write_block(0x1000, b"v".ljust(64), 0, 1)  # counter still 0
        policy = RecoveryPolicy(retry_limit=0, freshness_check=None)
        report = bench.recover(policy)
        assert 0x1000 in report.unrecoverable_blocks

    def test_retry_limit_bounds_the_search(self):
        bench = Bench()
        bench.write_block(0x1000, b"v".ljust(64), 0, 9)
        short = RecoveryPolicy(retry_limit=4, freshness_check=None)
        assert 0x1000 in bench.recover(short).unrecoverable_blocks
        bench2 = Bench()
        bench2.write_block(0x1000, b"v".ljust(64), 0, 9)
        long = RecoveryPolicy(retry_limit=16, freshness_check=None)
        assert bench2.recover(long).success

    def test_tree_check_skipped_when_not_requested(self):
        bench = Bench()
        # Corrupt an internal node: with no tree check, no tree finding.
        addr = bench.layout.merkle_node_addr(MerkleNodeId(1, 0))
        bench.nvm.poke(addr, bytes(64))
        policy = RecoveryPolicy(check_tree_against=(), retry_limit=4)
        report = bench.recover(policy)
        assert not any(f.kind == "tree_tampering" for f in report.findings)

    def test_nwb_mismatch_detected(self):
        bench = Bench()
        bench.write_block(0x1000, b"v".ljust(64), 0, 1)
        bench.tcb.nwb = 5  # claims five write-backs; only one retry found
        report = bench.recover(NWB_POLICY)
        assert report.potential_replay_detected
        assert not report.success

    def test_root_new_freshness_check(self):
        bench = Bench()
        bench.write_block(0x1000, b"v".ljust(64), 0, 1)
        # root_new deliberately left at genesis while data moved on: the
        # rebuilt root will differ.
        policy = RecoveryPolicy(retry_limit=16, freshness_check="root_new")
        report = bench.recover(policy)
        assert report.potential_replay_detected


class TestReportMechanics:
    def test_add_clears_clean(self):
        report = RecoveryReport(scheme="x")
        assert report.clean
        report.add(AttackFinding("data_tampering", address=0))
        assert not report.clean
        assert len(report.findings) == 1

    def test_findings_default_isolated(self):
        a = RecoveryReport(scheme="a")
        b = RecoveryReport(scheme="b")
        a.add(AttackFinding("data_tampering", address=0))
        assert b.findings == []


# -- the recovery HMAC memo never masks tampering ------------------------------

ADDR = 0x1000


def stale_bench():
    """v1 committed at minor 1, then v3 persisted at minor 3 (Nwb = 2).

    Returns the bench and an attacker snapshot taken before the commit.
    """
    bench = Bench()
    snapshot = Attacker(bench.nvm).record()
    bench.write_block(ADDR, b"v1".ljust(64), 0, 1)
    bench.commit_counters({ADDR: 1})
    bench.write_block(ADDR, b"v3".ljust(64), 0, 3)
    bench.tcb.nwb = 2
    return bench, snapshot


def committed_v1_snapshot():
    """Attacker snapshot of the image right after v1's commit."""
    bench = Bench()
    bench.write_block(ADDR, b"v1".ljust(64), 0, 1)
    bench.commit_counters({ADDR: 1})
    return Attacker(bench.nvm).record()


def report_key(report):
    return (
        report.success,
        report.findings,
        report.unrecoverable_blocks,
        report.potential_replay_detected,
        report.total_retries,
        report.matched_root,
    )


ATTACKS = {
    "spoof_data": lambda attacker, pre, v1: attacker.spoof_data(ADDR),
    "spoof_data_hmac": lambda attacker, pre, v1: attacker.spoof_data_hmac(ADDR),
    "replay_data": lambda attacker, pre, v1: attacker.replay_data(v1, ADDR),
    "replay_counter_line": lambda attacker, pre, v1: attacker.replay_counter_line(
        pre, ADDR
    ),
}


class TestMemoNeverMasksTampering:
    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_warm_memo_reports_what_a_fresh_bench_reports(self, attack):
        v1 = committed_v1_snapshot()
        bench, pre = stale_bench()
        image, registers = bench.nvm.snapshot(), bench.tcb.registers_snapshot()
        clean = bench.recover(NWB_POLICY)
        assert clean.success and clean.total_retries == 2
        # The memo now holds every code the clean recovery computed.
        assert bench.hmac.recovery_memo
        bench.nvm.restore(image)
        bench.tcb.restore_registers(registers)
        ATTACKS[attack](Attacker(bench.nvm), pre, v1)
        warm = bench.recover(NWB_POLICY)

        fresh_bench, fresh_pre = stale_bench()
        ATTACKS[attack](Attacker(fresh_bench.nvm), fresh_pre, v1)
        fresh = fresh_bench.recover(NWB_POLICY)

        assert report_key(warm) == report_key(fresh)
        assert not warm.success
        kinds = {(f.kind, f.address, f.node) for f in warm.findings}
        leaf = MerkleNodeId(0, bench.layout.counter_leaf_index(ADDR))
        expected = {
            "spoof_data": ("data_tampering", ADDR, None),
            "spoof_data_hmac": ("data_tampering", ADDR, None),
            # v1 authenticates at the stored counter with no retries:
            # Nretry 0 != Nwb 2 (detected, not locatable).
            "replay_data": ("potential_replay", None, None),
            # The rolled-back leaf disagrees with its stored parent slot.
            "replay_counter_line": ("tree_tampering", None, leaf),
        }[attack]
        assert expected in kinds


class TestHmacCountParity:
    def test_memo_hits_count_like_computations(self):
        bench, _ = stale_bench()
        image, registers = bench.nvm.snapshot(), bench.tcb.registers_snapshot()
        counts = []
        for _ in range(2):
            before = (bench.hmac.data_hmac_count, bench.hmac.counter_hmac_count)
            bench.recover(NWB_POLICY)
            counts.append(
                (
                    bench.hmac.data_hmac_count - before[0],
                    bench.hmac.counter_hmac_count - before[1],
                )
            )
            bench.nvm.restore(image)
            bench.tcb.restore_registers(registers)
        assert counts[0] == counts[1]
        assert counts[0][0] > 0 and counts[0][1] > 0
