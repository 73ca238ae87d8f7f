"""Unit tests for the encryption engine's functional data path."""

import pytest

from repro.common.constants import (
    BLOCKS_PER_PAGE,
    CACHE_LINE_SIZE,
    HMAC_SIZE,
)
from repro.core.engine import EncryptionEngine
from repro.crypto.cme import CounterModeCipher, generate_otp
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.metadata.counters import CounterLine
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout
from repro.metadata.metacache import IntegrityError


ENC = SecretKey.from_seed("engine-enc")
MAC = SecretKey.from_seed("engine-mac")


@pytest.fixture
def engine():
    layout = MemoryLayout(1 << 20)
    genesis = GenesisImage(layout, ENC, MAC)
    nvm = NVMDevice(layout, initializer=genesis.line)
    wpq = WritePendingQueue(nvm, entries=64)
    return EncryptionEngine(
        CounterModeCipher(ENC), HmacEngine(MAC), nvm, wpq
    )


PLAINTEXT = bytes(range(64))


#: Addresses the data path rejects, with the error each one raises.
BAD_ADDRESSES = [
    (-CACHE_LINE_SIZE, "outside the data region"),
    (1 << 20, "outside the data region"),  # the first counter line
    ((1 << 20) + (1 << 16), "outside the data region"),
    (1, "not line-aligned"),
    (CACHE_LINE_SIZE + 8, "not line-aligned"),
]


class TestAddressValidation:
    @pytest.mark.parametrize("addr,message", BAD_ADDRESSES)
    @pytest.mark.parametrize("verify", [True, False])
    def test_fill_rejects(self, engine, addr, message, verify):
        with pytest.raises(ValueError, match=message):
            engine.read_data_block(addr, CounterLine(), verify=verify)

    @pytest.mark.parametrize("addr,message", BAD_ADDRESSES)
    def test_writeback_rejects(self, engine, addr, message):
        counters = CounterLine()
        counters.increment(0)
        with pytest.raises(ValueError, match=message):
            engine.write_data_block(addr, PLAINTEXT, counters)


class TestWriteReadRoundtrip:
    def test_roundtrip(self, engine):
        counters = CounterLine()
        counters.increment(1)
        engine.write_data_block(64, PLAINTEXT, counters)
        assert engine.read_data_block(64, counters) == PLAINTEXT

    def test_ciphertext_lands_in_nvm(self, engine):
        counters = CounterLine()
        counters.increment(1)
        engine.write_data_block(64, PLAINTEXT, counters)
        assert engine.nvm.peek(64) != PLAINTEXT

    def test_data_hmac_stored_beside_data(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        hmac_line, offset = engine.layout.data_hmac_location(0)
        stored = engine.nvm.peek(hmac_line)[offset:offset + HMAC_SIZE]
        expected = engine.hmac.data_hmac(engine.nvm.peek(0), 0, 0, 1)
        assert stored == expected

    def test_rejects_partial_plaintext(self, engine):
        with pytest.raises(ValueError):
            engine.write_data_block(0, b"short", CounterLine())

    def test_stale_counter_fails_authentication(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        with pytest.raises(IntegrityError):
            engine.read_data_block(0, CounterLine())  # counter (0,0) is stale

    def test_tampered_ciphertext_fails_authentication(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        raw = engine.nvm.peek(0)
        engine.nvm.poke(0, bytes([raw[0] ^ 1]) + raw[1:])
        with pytest.raises(IntegrityError):
            engine.read_data_block(0, counters)

    def test_verify_false_skips_authentication(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        raw = engine.nvm.peek(0)
        engine.nvm.poke(0, bytes([raw[0] ^ 1]) + raw[1:])
        garbled = engine.read_data_block(0, counters, verify=False)
        assert garbled != PLAINTEXT  # decrypts, differently

    def test_genesis_block_reads_as_zero(self, engine):
        assert engine.read_data_block(128, CounterLine()) == bytes(CACHE_LINE_SIZE)

    def test_event_counters(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        engine.read_data_block(0, counters)
        assert engine.stats.counter("data_writebacks").value == 1
        assert engine.stats.counter("data_fills").value == 1


class TestPageReencryption:
    def _overflow_setup(self, engine):
        """Write every block of page 0, then roll the counters' major."""
        old = CounterLine()
        for block in range(BLOCKS_PER_PAGE):
            old.minors[block] = 5
            engine.write_data_block(
                block * CACHE_LINE_SIZE, bytes([block]) * 64, old
            )
        new = CounterLine(major=1)
        new.minors[7] = 1  # the triggering block gets a fresh minor
        return old, new

    def test_reencrypt_page_rewrites_others(self, engine):
        old, new = self._overflow_setup(engine)
        rewritten = engine.reencrypt_page(0, old, new, skip_block=7)
        assert rewritten == BLOCKS_PER_PAGE - 1
        # Every non-skipped block decrypts under the new counters.
        for block in range(BLOCKS_PER_PAGE):
            if block == 7:
                continue
            data = engine.read_data_block(block * CACHE_LINE_SIZE, new)
            assert data == bytes([block]) * 64

    def test_skip_block_left_under_old_counter(self, engine):
        old, new = self._overflow_setup(engine)
        engine.reencrypt_page(0, old, new, skip_block=7)
        # Block 7 still authenticates under its OLD pair only.
        data = engine.read_data_block(7 * CACHE_LINE_SIZE, old)
        assert data == bytes([7]) * 64
        with pytest.raises(IntegrityError):
            engine.read_data_block(7 * CACHE_LINE_SIZE, new)

    def test_reencryption_statistic(self, engine):
        old, new = self._overflow_setup(engine)
        engine.reencrypt_page(0, old, new, skip_block=7)
        assert engine.stats.counter("page_reencryptions").value == 1

    def test_reencryption_write_traffic(self, engine):
        old, new = self._overflow_setup(engine)
        before = engine.nvm.total_writes
        engine.reencrypt_page(0, old, new, skip_block=0)
        # 63 data lines + 63 HMAC-line merges.
        assert engine.nvm.total_writes - before == 2 * (BLOCKS_PER_PAGE - 1)


class TestPristinePads:
    """Fills under counter (0, 0) take their pad from the genesis image."""

    @staticmethod
    def make(pristine_calls):
        layout = MemoryLayout(1 << 20)
        genesis = GenesisImage(layout, ENC, MAC)

        def pristine(addr):
            pristine_calls.append(addr)
            return genesis.line(addr)

        nvm = NVMDevice(layout, initializer=genesis.line)
        wpq = WritePendingQueue(nvm, entries=64)
        cipher = CounterModeCipher(ENC, pristine=pristine)
        return EncryptionEngine(cipher, HmacEngine(MAC), nvm, wpq)

    @pytest.mark.parametrize("capacity", [1 << 20, 16 << 30])
    def test_pristine_data_line_is_the_pad(self, capacity):
        genesis = GenesisImage(MemoryLayout(capacity), ENC, MAC)
        last = capacity - CACHE_LINE_SIZE
        for addr in (0, CACHE_LINE_SIZE, 0x12340, capacity // 2, last):
            assert genesis.data_line(addr) == generate_otp(ENC, addr, 0, 0)
            assert genesis.line(addr) == generate_otp(ENC, addr, 0, 0)

    def test_pristine_fill_decrypts_to_zero_through_the_image(self):
        calls = []
        engine = self.make(calls)
        last = engine.layout.data_capacity - CACHE_LINE_SIZE
        for addr in (0, last):
            assert engine.read_data_block(addr, CounterLine()) == bytes(CACHE_LINE_SIZE)
        assert calls == [0, last]

    def test_pristine_fill_with_tampered_ciphertext_still_fails(self):
        calls = []
        engine = self.make(calls)
        raw = engine.nvm.peek(0x80)
        engine.nvm.poke(0x80, bytes([raw[0] ^ 1]) + raw[1:])
        with pytest.raises(IntegrityError):
            engine.read_data_block(0x80, CounterLine())
        assert calls == []  # the HMAC check runs before any decrypt

    def test_fill_after_writeback_derives_its_pad(self):
        calls = []
        engine = self.make(calls)
        counters = CounterLine()
        counters.increment(1)  # minor 1
        engine.write_data_block(64, PLAINTEXT, counters)
        assert engine.read_data_block(64, counters) == PLAINTEXT
        assert calls == []

    def test_decrypt_is_the_same_with_and_without_the_image(self):
        calls = []
        engine = self.make(calls)
        plain = CounterModeCipher(ENC)
        ciphertext = bytes(range(1, 65))
        for major, minor in ((0, 0), (0, 1), (1, 0)):
            assert engine.cipher.decrypt(ciphertext, 0xC0, major, minor) == (
                plain.decrypt(ciphertext, 0xC0, major, minor)
            )
        assert calls == [0xC0]


class TestPristineCodes:
    """Pristine inputs take their HMAC from the genesis image."""

    @staticmethod
    def make():
        layout = MemoryLayout(1 << 20)
        genesis = GenesisImage(layout, ENC, MAC)
        nvm = NVMDevice(layout, initializer=genesis.line)
        wpq = WritePendingQueue(nvm, entries=64)
        cipher = CounterModeCipher(ENC, pristine=genesis.line)
        hooked = HmacEngine(MAC, pristine=genesis)
        return EncryptionEngine(cipher, hooked, nvm, wpq), genesis

    @staticmethod
    def no_hashing(*_):
        raise AssertionError("a pristine input was hashed")

    def test_hooked_codes_equal_fresh_codes(self):
        engine, genesis = self.make()
        hooked, fresh = engine.hmac, HmacEngine(MAC)
        addrs = (0, CACHE_LINE_SIZE, engine.layout.data_capacity - CACHE_LINE_SIZE)
        for addr in addrs:
            # A fill's two NVM reads memoize the data and the HMAC line.
            genesis.line(addr)
            genesis.line(engine.layout.data_hmac_location(addr)[0])
        nodes = [genesis.node(level) for level in range(engine.layout.root_level)]
        hooked._mac = self.no_hashing
        for addr in addrs:
            ciphertext = genesis.line(addr)
            assert hooked.data_hmac(ciphertext, addr, 0, 0) == (
                fresh.data_hmac(ciphertext, addr, 0, 0)
            )
        for node in nodes:
            assert hooked.counter_hmac(node) == fresh.counter_hmac(node)
        assert hooked.data_hmac_count == fresh.data_hmac_count == len(addrs)
        assert hooked.counter_hmac_count == fresh.counter_hmac_count == len(nodes)

    def test_other_inputs_are_hashed(self):
        engine, genesis = self.make()
        hooked, fresh = engine.hmac, HmacEngine(MAC)
        ciphertext = genesis.line(0x40)
        genesis.line(engine.layout.data_hmac_location(0x40)[0])
        for args in (
            (ciphertext, 0x40, 0, 1),  # not counter (0, 0)
            (ciphertext, 0x80, 0, 0),  # another block's pristine line
            (bytes(CACHE_LINE_SIZE), 0x40, 0, 0),  # not the pristine line
        ):
            assert hooked.data_hmac(*args) == fresh.data_hmac(*args)
        touched = genesis.node(1)[:-1] + b"\x01"
        assert hooked.counter_hmac(touched) == fresh.counter_hmac(touched)

    def test_pristine_fill_counts_one_code_and_decrypts(self):
        engine, _ = self.make()
        engine.hmac._mac = self.no_hashing
        assert engine.read_data_block(0x100, CounterLine()) == bytes(CACHE_LINE_SIZE)
        assert engine.hmac.data_hmac_count == 1

    @pytest.mark.parametrize("target", ["data", "hmac"])
    def test_poked_lines_still_fail_the_check(self, target):
        engine, _ = self.make()
        addr = 0x140
        engine.read_data_block(addr, CounterLine())  # memoizes both lines
        hmac_line, offset = engine.layout.data_hmac_location(addr)
        line, at = (addr, 0) if target == "data" else (hmac_line, offset)
        raw = engine.nvm.peek(line)
        engine.nvm.poke(line, raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])
        with pytest.raises(IntegrityError):
            engine.read_data_block(addr, CounterLine())
        assert engine.hmac.data_hmac_count == 2

    def test_the_image_engine_has_no_hook(self):
        _, genesis = self.make()
        assert genesis._engine._pristine_data is None
        assert genesis._engine._pristine_nodes == {}
