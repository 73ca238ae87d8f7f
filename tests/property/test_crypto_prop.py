"""Property-based tests for the crypto substrate."""

import hashlib
import hmac

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE
from repro.crypto.cme import (
    PAD_MEMO_ENTRIES,
    CounterModeCipher,
    generate_otp,
    make_seed,
    xor_bytes,
)
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey, keyed_hash, prf
from repro.metadata import genesis
from repro.metadata.genesis import LINE_MEMO_ENTRIES, GenesisImage
from repro.metadata.layout import MemoryLayout


KEY = SecretKey.from_seed("prop-key")
CIPHER = CounterModeCipher(KEY)
ENGINE = HmacEngine(KEY)

lines = st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE)
addrs = st.integers(min_value=0, max_value=(1 << 34)).map(lambda a: a & ~63)
# make_seed's major field is 64 bits; keep major + 1 inside the domain so
# the uniqueness test below can probe the neighbouring counter value.
majors = st.integers(min_value=0, max_value=(1 << 64) - 2)
minor_values = st.integers(min_value=0, max_value=127)


@given(lines, addrs, majors, minor_values)
def test_encrypt_decrypt_roundtrip(data, addr, major, minor):
    ct = CIPHER.encrypt(data, addr, major, minor)
    assert CIPHER.decrypt(ct, addr, major, minor) == data


@given(lines, addrs, majors, minor_values)
@settings(max_examples=50)
def test_encryption_changes_data(data, addr, major, minor):
    # A 64-byte pad collision with the plaintext has probability 2^-512.
    assert CIPHER.encrypt(data, addr, major, minor) != data


@given(lines, addrs, majors, minor_values)
def test_wrong_minor_garbles(data, addr, major, minor):
    ct = CIPHER.encrypt(data, addr, major, minor)
    assert CIPHER.decrypt(ct, addr, major, (minor + 1) % 128) != data


@given(lines, lines, addrs, majors, minor_values)
@settings(max_examples=50)
def test_xor_malleability_is_why_hmacs_exist(a, b, addr, major, minor):
    """CME is malleable (bit flips pass through); the data HMAC is the
    integrity mechanism, so flipping ciphertext must break it."""
    ct = CIPHER.encrypt(a, addr, major, minor)
    code = ENGINE.data_hmac(ct, addr, major, minor)
    flipped = bytes([ct[0] ^ 0x01]) + ct[1:]
    assert ENGINE.data_hmac(flipped, addr, major, minor) != code


@given(addrs, majors, minor_values)
def test_seed_uniqueness_over_components(addr, major, minor):
    base = make_seed(addr, major, minor)
    assert make_seed(addr + 64, major, minor) != base
    assert make_seed(addr, major + 1, minor) != base
    assert make_seed(addr, major, (minor + 1) % 128) != base or minor == 127


@given(st.binary(max_size=128), st.binary(max_size=128))
@settings(max_examples=60)
def test_prf_injective_encoding(a, b):
    if a != b:
        assert prf(KEY, a) != prf(KEY, b)


@given(st.binary(max_size=64), st.integers(min_value=1, max_value=256))
def test_prf_output_length_exact(message, out_len):
    assert len(prf(KEY, message, out_len=out_len)) == out_len


@given(st.binary(max_size=64))
def test_prf_prefix_stability(message):
    """Longer outputs extend shorter ones (counter-mode expansion)."""
    short = prf(KEY, message, out_len=16)
    long = prf(KEY, message, out_len=64)
    assert long[:16] == short


@given(lines, addrs, majors, minor_values)
def test_data_hmac_deterministic(data, addr, major, minor):
    assert ENGINE.data_hmac(data, addr, major, minor) == ENGINE.data_hmac(
        data, addr, major, minor
    )


@given(lines, addrs, addrs, majors, minor_values)
@settings(max_examples=60)
def test_data_hmac_address_binding(data, addr_a, addr_b, major, minor):
    """The splicing defence: same data at two addresses never shares a code."""
    if addr_a != addr_b:
        assert ENGINE.data_hmac(data, addr_a, major, minor) != ENGINE.data_hmac(
            data, addr_b, major, minor
        )


@given(st.binary(max_size=96), st.binary(max_size=96))
@settings(max_examples=60)
def test_keyed_hash_collision_freedom_on_distinct_messages(a, b):
    if a != b:
        assert keyed_hash(KEY, a) != keyed_hash(KEY, b)


# -- the precomputed-state fast path against the stdlib reference ---------------

# 16..200 bytes crosses the 64-byte block both digests use, where RFC 2104
# hashes the key first.
materials = st.binary(min_size=16, max_size=200)
part_lists = st.lists(st.binary(max_size=80), max_size=4)


def encoded(parts):
    return b"".join(len(p).to_bytes(4, "little") + p for p in parts)


@given(materials, part_lists, st.sampled_from([7, 64, 100]))
def test_prf_equals_stdlib_hmac_sha256_expansion(material, parts, out_len):
    # 64 and 100 take 2 and 4 HMACs from the same keyed states: each
    # call must start from an unmodified copy.
    message = encoded(parts)
    reference = b"".join(
        hmac.new(material, i.to_bytes(4, "little") + message, hashlib.sha256).digest()
        for i in range(4)
    )[:out_len]
    assert prf(SecretKey(material), *parts, out_len=out_len) == reference


@given(materials, part_lists)
def test_keyed_hash_equals_stdlib_hmac_sha1(material, parts):
    reference = hmac.new(material, encoded(parts), hashlib.sha1).digest()[:HMAC_SIZE]
    assert keyed_hash(SecretKey(material), *parts) == reference


@st.composite
def equal_length_pairs(draw):
    a = draw(st.binary(max_size=128))
    return a, draw(st.binary(min_size=len(a), max_size=len(a)))


@given(equal_length_pairs())
@example((b"", b""))
def test_xor_bytes_equals_bytewise_reference(pair):
    a, b = pair
    assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


@given(st.binary(max_size=64), st.binary(max_size=64))
@example(b"", b"\x00")
def test_xor_bytes_rejects_length_mismatch(a, b):
    if len(a) != len(b):
        with pytest.raises(ValueError):
            xor_bytes(a, b)


# -- bounded memos -----------------------------------------------------------------


def test_pad_memo_stays_bounded_and_recomputes_identically():
    key = SecretKey.from_seed("pad-memo")
    seeds = [(i * CACHE_LINE_SIZE, 0, i % 3) for i in range(2 * PAD_MEMO_ENTRIES + 1)]
    pads = {}
    for seed in seeds:
        pads[seed] = generate_otp(key, *seed)
        assert len(key.pad_memo) <= PAD_MEMO_ENTRIES
    assert seeds[0] not in key.pad_memo  # evicted by the time the loop ended
    for seed in seeds:
        assert generate_otp(key, *seed) == pads[seed] == prf(key, make_seed(*seed))


def test_genesis_line_memo_stays_bounded_and_recomputes_identically():
    # The memo is shared by every image in the process; one more data line
    # than it holds forces at least one emptying during the loop.
    layout = MemoryLayout(1 << 22)
    image = GenesisImage(layout, KEY, SecretKey.from_seed("memo-mac"))
    addrs = [i * CACHE_LINE_SIZE for i in range(LINE_MEMO_ENTRIES + 1)]
    lines = {}
    for addr in addrs:
        lines[addr] = image.line(addr)
        assert genesis._memo.size <= LINE_MEMO_ENTRIES
        assert sum(len(i._lines) for i in genesis._memo.images) <= LINE_MEMO_ENTRIES
    assert addrs[0] not in image._lines
    hmac_addrs = [layout.hmac_base + i * CACHE_LINE_SIZE for i in range(8)]
    for addr in hmac_addrs:
        lines[addr] = image.line(addr)
    fresh = GenesisImage(layout, SecretKey.from_seed("prop-key"), SecretKey.from_seed("memo-mac"))
    for addr in addrs[:64] + addrs[-64:] + hmac_addrs:
        assert image.line(addr) == lines[addr] == fresh.line(addr)
