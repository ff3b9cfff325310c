"""Unit + property tests for the crypto substrate."""

import builtins
import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    AeadError,
    KeyExchangeError,
    SealedSession,
    derive_channel_keys,
    fixed_bucket_for,
    generate_keypair,
    hkdf,
    open_,
    pad_to_fixed,
    seal,
    shared_secret,
    transcript_hash,
    unpad_fixed,
    validate_public,
)
from repro.crypto import dh
from repro.crypto.aead import _keystream
from repro.crypto.dh import MODP_2048_P, modexp

KEY = b"k" * 32
NONCE = b"n" * 12


# --- DH -------------------------------------------------------------------

def test_dh_agreement():
    rng = random.Random(1)
    a, b = generate_keypair(rng), generate_keypair(rng)
    assert shared_secret(a, b.public) == shared_secret(b, a.public)


def test_dh_distinct_keys_distinct_secrets():
    rng = random.Random(2)
    a, b, c = (generate_keypair(rng) for _ in range(3))
    assert shared_secret(a, b.public) != shared_secret(a, c.public)


def test_dh_rejects_degenerate_publics():
    rng = random.Random(3)
    kp = generate_keypair(rng)
    for bad in (0, 1, -5):
        with pytest.raises(KeyExchangeError):
            shared_secret(kp, bad)
    with pytest.raises(KeyExchangeError):
        validate_public(1)


# named 256-bit exponents for the generator: the extremes, and runs of
# six ones alternating with six zeros in both phases
ALTERNATING = sum(0x3F << (6 * i) for i in range(0, 43, 2))
EDGE_EXPONENTS = {
    "zero": 0,
    "one": 1,
    "top-bit-only": 1 << 255,
    "all-ones": (1 << 256) - 1,
    "full-zero-alternating": ALTERNATING % (1 << 256),
    "zero-full-alternating": (ALTERNATING << 6) % (1 << 256),
    "widest": (1 << 258) - 1,
}


@pytest.mark.parametrize("exponent", list(EDGE_EXPONENTS.values()),
                         ids=list(EDGE_EXPONENTS))
def test_modexp_matches_pow_on_edge_exponents(exponent):
    assert modexp(2, exponent) == pow(2, exponent, MODP_2048_P)


@pytest.mark.parametrize("base", [0, 1, 2, MODP_2048_P - 2, MODP_2048_P - 1,
                                  MODP_2048_P, MODP_2048_P + 2],
                         ids=["0", "1", "2", "p-2", "p-1", "p", "p+2"])
@pytest.mark.parametrize("exponent", [0, 1, 2, (1 << 256) - 1],
                         ids=["x0", "x1", "x2", "x-all-ones"])
def test_modexp_matches_pow_on_edge_bases(base, exponent):
    assert modexp(base, exponent) == pow(base, exponent, MODP_2048_P)


@given(st.integers(0, (1 << 256) - 1))
def test_property_modexp_matches_pow_for_generator(exponent):
    assert modexp(2, exponent) == pow(2, exponent, MODP_2048_P)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, (1 << 2048) - 1), st.integers(0, (1 << 256) - 1))
def test_property_modexp_matches_pow(base, exponent):
    assert modexp(base, exponent) == pow(base, exponent, MODP_2048_P)


def test_modexp_runs_in_libcrypto_not_pow(monkeypatch):
    """The handshake's exponentiations resolve in libcrypto here.

    ``_hashlib`` links libcrypto on every supported CPython build; if it
    stops reaching the BN functions, handshakes fail rather than
    silently running ``pow``.
    """
    import _hashlib
    lib, _ = dh._libcrypto()
    assert lib._name == _hashlib.__file__
    expected = pow(3, 1 << 255, MODP_2048_P)

    def no_pow(*args):
        raise AssertionError("modexp called pow")
    monkeypatch.setattr(builtins, "pow", no_pow)
    assert modexp(3, 1 << 255) == expected


@given(st.integers(0, 2 ** 64))
def test_property_keypair_public_is_generator_power(seed):
    kp = generate_keypair(random.Random(seed))
    assert kp.private.bit_length() == 256
    assert kp.public == pow(2, kp.private, MODP_2048_P)


def test_transcript_hash_order_and_boundary_sensitive():
    assert transcript_hash(b"ab", b"c") != transcript_hash(b"a", b"bc")
    assert transcript_hash(b"a", b"b") != transcript_hash(b"b", b"a")


# --- HKDF ------------------------------------------------------------------

def test_hkdf_deterministic_and_info_separated():
    k1 = hkdf(b"ikm", salt=b"s", info=b"one", length=32)
    k2 = hkdf(b"ikm", salt=b"s", info=b"one", length=32)
    k3 = hkdf(b"ikm", salt=b"s", info=b"two", length=32)
    assert k1 == k2 and k1 != k3


def test_hkdf_rfc5869_case1():
    # RFC 5869 test case 1
    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    okm = hkdf(ikm, salt=salt, info=info, length=42)
    assert okm == bytes.fromhex(
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865")


def test_channel_keys_directional():
    c2m, m2c = derive_channel_keys(b"s" * 32, b"t" * 32)
    assert c2m != m2c and len(c2m) == len(m2c) == 32


# --- AEAD ------------------------------------------------------------------

def test_seal_open_roundtrip():
    assert open_(KEY, NONCE, seal(KEY, NONCE, b"hello", b"aad"), b"aad") == b"hello"


def test_tamper_detected():
    sealed = bytearray(seal(KEY, NONCE, b"hello"))
    sealed[0] ^= 1
    with pytest.raises(AeadError):
        open_(KEY, NONCE, bytes(sealed))


def test_wrong_aad_detected():
    sealed = seal(KEY, NONCE, b"hello", b"aad1")
    with pytest.raises(AeadError):
        open_(KEY, NONCE, sealed, b"aad2")


def test_wrong_key_detected():
    sealed = seal(KEY, NONCE, b"hello")
    with pytest.raises(AeadError):
        open_(b"x" * 32, NONCE, sealed)


def test_bad_nonce_length():
    with pytest.raises(AeadError):
        seal(KEY, b"short", b"hello")


def test_session_sequence_numbers_prevent_replay():
    tx, rx = SealedSession(KEY), SealedSession(KEY)
    r1, r2 = tx.seal(b"one"), tx.seal(b"two")
    assert rx.open(r1) == b"one"
    with pytest.raises(AeadError):
        SealedSession(KEY, seq=1).open(r1)  # replay at wrong seq
    assert rx.open(r2) == b"two"


def test_session_reorder_detected():
    tx, rx = SealedSession(KEY), SealedSession(KEY)
    r1, r2 = tx.seal(b"one"), tx.seal(b"two")
    with pytest.raises(AeadError):
        rx.open(r2)


@pytest.mark.parametrize("key_len", [0, 32, 64, 65, 200])
@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1008, 1056])
def test_keystream_is_the_hmac_counter_stream(key_len, length):
    # keys longer than a sha256 block are hashed first, as in RFC 2104
    key = bytes(i % 251 for i in range(key_len))
    expected = b"".join(
        hmac.new(key, NONCE + i.to_bytes(4, "big"), hashlib.sha256).digest()
        for i in range((length + 31) // 32))[:length]
    assert _keystream(key, NONCE, length) == expected


#: sha256 of ``seal`` over a fixed key, nonce, AAD and plaintext pattern,
#: per plaintext length: around one keystream block, and a 1008-byte and
#: a 4 KiB record
SEAL_KAT = {
    0: "c502d47748618a1bc68de8e854799d2a7e699cf32aefce06963718ae775884e5",
    1: "8b310a7fdd62253f20bcd97a26242d13dbce48747aa2b2430a4f1c513d9ecd9c",
    31: "c78133bf42d9c0c36230264e884bf2c316b9da446191f774893604ff3923d545",
    32: "6e4d5d504e3a1ee210cbfcb39235adfffcff861f747a6e31067621cf510507d3",
    33: "b769c44e54a852c6b02691cea62683c8262af36736c1e7a16c299a7795dcb462",
    1008: "b130f20c226639345b3a3a54dd40600ce602bd6663f8683d890616f367b98077",
    4096: "99ed93d043b0031703c6e29ec4ee02ad04f6608d6fdb8103763007de1ba315d5",
}


@pytest.mark.parametrize("length", sorted(SEAL_KAT))
def test_seal_known_answers(length):
    key = hashlib.sha256(b"kat-key").digest()
    nonce = bytes(range(12))
    plaintext = bytes((i * 7 + 3) & 0xFF for i in range(length))
    sealed = seal(key, nonce, plaintext, b"kat-aad")
    assert hashlib.sha256(sealed).hexdigest() == SEAL_KAT[length]
    assert open_(key, nonce, sealed, b"kat-aad") == plaintext


# --- padding ----------------------------------------------------------------

def test_pad_unpad_roundtrip():
    assert unpad_fixed(pad_to_fixed(b"data", 64)) == b"data"


def test_pad_hides_length():
    assert len(pad_to_fixed(b"a", 1024)) == len(pad_to_fixed(b"a" * 500, 1024)) == 1024


def test_pad_bucket_too_small():
    with pytest.raises(ValueError):
        pad_to_fixed(b"x" * 100, 64)


def test_fixed_bucket_selection():
    assert fixed_bucket_for(10) == 1024
    assert fixed_bucket_for(1020) == 1024
    assert fixed_bucket_for(1021) == 16384
    with pytest.raises(ValueError):
        fixed_bucket_for(10 ** 9)


def test_unpad_rejects_corrupt_header():
    with pytest.raises(ValueError):
        unpad_fixed(b"\xff\xff\xff\xff" + b"x" * 10)
    with pytest.raises(ValueError):
        unpad_fixed(b"\x00")


# --- properties --------------------------------------------------------------

@given(st.binary(max_size=4096), st.binary(max_size=64))
def test_property_aead_roundtrip(plaintext, aad):
    assert open_(KEY, NONCE, seal(KEY, NONCE, plaintext, aad), aad) == plaintext


@given(st.binary(max_size=512), st.integers(0, 3))
def test_property_padding_roundtrip(data, bucket_idx):
    buckets = (1024, 16384, 262144, 4194304)
    bucket = buckets[bucket_idx]
    assert unpad_fixed(pad_to_fixed(data, bucket)) == data


@given(st.binary(min_size=1, max_size=256))
def test_property_ciphertext_never_contains_long_plaintext_runs(plaintext):
    # With an all-distinct keystream the ciphertext should differ from the
    # plaintext somewhere for any non-degenerate message.
    sealed = seal(KEY, NONCE, plaintext)
    assert sealed[:len(plaintext)] != plaintext or len(plaintext) < 4
