"""Authenticated encryption (encrypt-then-MAC over an HMAC keystream).

Simulation-grade AEAD built only on :mod:`hashlib`/:mod:`hmac`:
the keystream is HMAC-SHA256(enc_key, nonce ‖ counter) blocks XORed with
the plaintext; the tag is HMAC-SHA256(mac_key, nonce ‖ aad ‖ ciphertext).
Distinct keys for encryption and authentication are derived per
construction. The security-relevant *interface* properties hold: without
the key, ciphertext reveals only its length (which is why the monitor pads
outputs — §6.3), and any bit flip fails authentication.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass


class AeadError(Exception):
    """Authentication failed or inputs were malformed."""


NONCE_LEN = 12
TAG_LEN = 32


def _subkeys(key: bytes) -> tuple[bytes, bytes]:
    enc = hmac.new(key, b"enc", hashlib.sha256).digest()
    mac = hmac.new(key, b"mac", hashlib.sha256).digest()
    return enc, mac


_IPAD = bytes(x ^ 0x36 for x in range(256))   # HMAC pads (RFC 2104)
_OPAD = bytes(x ^ 0x5C for x in range(256))


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    # HMAC-SHA256(enc_key, nonce ‖ counter) per block from sha256 pad
    # states keyed once; each block copies both and adds its counter
    if len(enc_key) > 64:
        enc_key = hashlib.sha256(enc_key).digest()
    key = enc_key.ljust(64, b"\0")
    inner = hashlib.sha256(key.translate(_IPAD))
    inner.update(nonce)
    outer = hashlib.sha256(key.translate(_OPAD))
    blocks = []
    for counter in range((length + 31) // 32):
        block = inner.copy()
        block.update(counter.to_bytes(4, "big"))
        mac = outer.copy()
        mac.update(block.digest())
        blocks.append(mac.digest())
    return b"".join(blocks)[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR ``stream`` (same length), as one integer operation."""
    n = len(data)
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(n, "little")


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate; returns ciphertext ‖ tag."""
    if len(nonce) != NONCE_LEN:
        raise AeadError(f"nonce must be {NONCE_LEN} bytes")
    enc_key, mac_key = _subkeys(key)
    ct = _xor(plaintext, _keystream(enc_key, nonce, len(plaintext)))
    tag = hmac.new(mac_key, nonce + len(aad).to_bytes(4, "big") + aad + ct,
                   hashlib.sha256).digest()
    return ct + tag


def open_(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt; raises :class:`AeadError` on any tampering."""
    if len(nonce) != NONCE_LEN:
        raise AeadError(f"nonce must be {NONCE_LEN} bytes")
    if len(sealed) < TAG_LEN:
        raise AeadError("sealed blob too short")
    ct, tag = sealed[:-TAG_LEN], sealed[-TAG_LEN:]
    enc_key, mac_key = _subkeys(key)
    good = hmac.new(mac_key, nonce + len(aad).to_bytes(4, "big") + aad + ct,
                    hashlib.sha256).digest()
    if not hmac.compare_digest(good, tag):
        raise AeadError("authentication failed")
    return _xor(ct, _keystream(enc_key, nonce, len(ct)))


@dataclass
class SealedSession:
    """A unidirectional record channel with sequence-number nonces.

    Sequence numbers both generate unique nonces and enforce ordering: a
    replayed or reordered record fails to open. Every ``rekey_every``
    records the key ratchets forward through HMAC (forward secrecy within
    a session: compromising the current key does not reveal earlier
    traffic). Both ends ratchet in lockstep because they share the
    sequence counter.
    """

    key: bytes
    seq: int = 0
    rekey_every: int = 256
    generations: int = 0

    def _nonce(self, seq: int) -> bytes:
        return seq.to_bytes(NONCE_LEN, "big")

    def _maybe_ratchet(self) -> None:
        if self.rekey_every and self.seq and self.seq % self.rekey_every == 0:
            self.key = hmac.new(self.key, b"ratchet", hashlib.sha256).digest()
            self.generations += 1

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        self._maybe_ratchet()
        record = seal(self.key, self._nonce(self.seq), plaintext, aad)
        self.seq += 1
        return record

    def open(self, record: bytes, aad: bytes = b"") -> bytes:
        self._maybe_ratchet()
        plaintext = open_(self.key, self._nonce(self.seq), record, aad)
        self.seq += 1
        return plaintext


def pad_to_fixed(data: bytes, bucket: int) -> bytes:
    """Length-hiding pad: 4-byte length prefix, zero fill to a bucket size.

    The monitor pads all sandbox output to fixed lengths before returning
    it to the client, closing the output-size covert channel (§6.3).
    """
    if bucket < len(data) + 4:
        raise ValueError(f"bucket {bucket} too small for {len(data)} bytes")
    return len(data).to_bytes(4, "big") + data + b"\x00" * (bucket - 4 - len(data))


def unpad_fixed(padded: bytes) -> bytes:
    if len(padded) < 4:
        raise ValueError("padded blob too short")
    length = int.from_bytes(padded[:4], "big")
    if length > len(padded) - 4:
        raise ValueError("corrupt padding header")
    return padded[4:4 + length]


def fixed_bucket_for(length: int, buckets: tuple[int, ...] = (1024, 16384, 262144, 4194304)) -> int:
    """Pick the smallest configured bucket that fits ``length`` + header."""
    for bucket in buckets:
        if bucket >= length + 4:
            return bucket
    raise ValueError(f"payload of {length} bytes exceeds largest bucket")
