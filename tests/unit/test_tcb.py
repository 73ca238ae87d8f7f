"""Unit tests for the TCB's persistent registers."""

import pytest

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE
from repro.common.persistence import VolatileStateLost
from repro.core.tcb import TCB
from repro.crypto.prf import SecretKey


ENC = SecretKey.from_seed("tcb-enc")
MAC = SecretKey.from_seed("tcb-mac")
GENESIS = bytes(range(64))


@pytest.fixture
def tcb():
    return TCB(ENC, MAC, GENESIS)


class TestConstruction:
    def test_roots_start_at_genesis(self, tcb):
        assert tcb.root_new == GENESIS
        assert tcb.root_old == GENESIS
        assert tcb.nwb == 0

    def test_rejects_short_root(self):
        with pytest.raises(ValueError):
            TCB(ENC, MAC, b"short")

    def test_keys_held(self, tcb):
        assert tcb.encryption_key == ENC
        assert tcb.hmac_key == MAC


class TestRootNew:
    def test_update_single_slot(self, tcb):
        code = bytes([0xEE]) * HMAC_SIZE
        tcb.update_root_new(1, code)
        assert tcb.root_new[16:32] == code
        assert tcb.root_new[:16] == GENESIS[:16]  # other slots untouched
        assert tcb.root_old == GENESIS  # old register unaffected

    def test_update_rejects_bad_slot(self, tcb):
        with pytest.raises(ValueError):
            tcb.update_root_new(4, bytes(HMAC_SIZE))

    def test_set_root_new_wholesale(self, tcb):
        root = bytes([7]) * CACHE_LINE_SIZE
        tcb.set_root_new(root)
        assert tcb.root_new == root

    def test_set_root_new_rejects_wrong_width(self, tcb):
        with pytest.raises(ValueError):
            tcb.set_root_new(bytes(32))


class TestCommit:
    def test_commit_advances_root_old(self, tcb):
        tcb.update_root_new(0, bytes([1]) * HMAC_SIZE)
        tcb.count_writeback()
        tcb.count_writeback()
        tcb.commit_root()
        assert tcb.root_old == tcb.root_new
        assert tcb.nwb == 0

    def test_set_roots_aligns_everything(self, tcb):
        tcb.count_writeback()
        root = bytes([9]) * CACHE_LINE_SIZE
        tcb.set_roots(root)
        assert tcb.root_new == root
        assert tcb.root_old == root
        assert tcb.nwb == 0


class TestPersistence:
    def test_registers_survive_crash(self, tcb):
        tcb.update_root_new(2, bytes([3]) * HMAC_SIZE)
        tcb.count_writeback()
        before = (tcb.root_new, tcb.root_old, tcb.nwb)
        tcb.crash()
        assert (tcb.root_new, tcb.root_old, tcb.nwb) == before

    def test_nwb_counts_writebacks(self, tcb):
        for _ in range(5):
            tcb.count_writeback()
        assert tcb.nwb == 5


class TestCrashSplit:
    """The persistent/volatile split: exactly the declared persistent
    registers survive ``crash()``; everything cache-resident is dropped
    at the scheme level."""

    def test_extension_registers_survive_crash(self, tcb):
        tcb.log_counter_update(0x40)
        tcb.log_counter_update(0x40)
        tcb.log_counter_update(0x80)
        tcb.crash()
        assert tcb.counter_log == {0x40: 2, 0x80: 1}

    def test_recovery_pending_survives_crash(self, tcb):
        tcb.begin_recovery()
        tcb.crash()
        assert tcb.recovery_pending

    def test_set_roots_clears_recovery_pending(self, tcb):
        tcb.begin_recovery()
        tcb.set_roots(bytes([4]) * CACHE_LINE_SIZE)
        assert not tcb.recovery_pending

    def test_declaration_matches_the_crash_contract(self):
        """The @persistence declaration is the crash contract."""
        from repro.common.persistence import persistent_attrs

        assert persistent_attrs(TCB) == frozenset(
            {"root_new", "root_old", "nwb", "counter_log", "recovery_pending"}
        )

    def test_scheme_crash_drops_volatile_keeps_persistent(self):
        from repro import SecureMemory

        mem = SecureMemory(data_capacity=1 << 18)
        mem.store(0x1000, b"survivor")
        mem.persist(0x1000, 64)
        scheme = mem.scheme
        assert scheme.tcb.nwb >= 1  # uncommitted write-backs pending
        assert scheme.meta.dirty_addresses()  # dirty metadata in cache
        roots_before = (scheme.tcb.root_new, scheme.tcb.root_old)
        nwb_before = scheme.tcb.nwb
        mem.crash()
        # volatile domain gone...
        with pytest.raises(VolatileStateLost):
            scheme.meta.dirty_addresses()
        # ...persistent registers intact
        assert (scheme.tcb.root_new, scheme.tcb.root_old) == roots_before
        assert scheme.tcb.nwb == nwb_before
        assert mem.recover().success
        # ...and recovery hands the meta cache back empty.
        assert scheme.meta.dirty_addresses() == []
        assert scheme.meta.overlay == {}
        assert mem.load(0x1000, 8) == b"survivor"
