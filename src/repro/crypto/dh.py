"""Finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP group.

Used by the client↔monitor authenticated key exchange (paper §6.3). The
exchange is authenticated by binding a hash of the DH transcript into the
TDX quote's ``report_data`` — see :mod:`repro.core.channel`.

Simulation-grade: parameters and structure are real, but private keys come
from a caller-supplied deterministic RNG so runs are reproducible.

Key generation raises the fixed generator to a 256-bit exponent, so it
reads its power from a precomputed fixed-base comb instead of calling
``pow``: the same integer for about a quarter of the host time. The
shared secret has a different base every time and stays on ``pow``.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass

# RFC 3526, group 14 (2048-bit MODP). Generator 2.
MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 2

#: private exponents are 256-bit (``generate_keypair``)
PRIVATE_BITS = 256
#: bits per comb digit; 43 rows of 64 powers cover the private exponent
COMB_WINDOW = 6
COMB_ROWS = -(-PRIVATE_BITS // COMB_WINDOW)
_DIGIT_MASK = (1 << COMB_WINDOW) - 1


@functools.cache
def _comb_table() -> tuple[tuple[int, ...], ...]:
    """``table[i][d] == pow(GENERATOR, d << (COMB_WINDOW * i), p)``.

    Built once per process on the first key generation (0.78 MiB, 50-85
    ms on a 2-vCPU x86_64 host), so importing the package or verifying a
    certificate never pays for it.
    """
    rows, base = [], GENERATOR
    for _ in range(COMB_ROWS):
        row, power = [1], 1
        for _ in range(_DIGIT_MASK):
            power = power * base % MODP_2048_P
            row.append(power)
        rows.append(tuple(row))
        base = power * base % MODP_2048_P   # base ** 64: the next row's
    return tuple(rows)


def fixed_base_pow(exponent: int) -> int:
    """``pow(GENERATOR, exponent, MODP_2048_P)`` for a private exponent.

    One table lookup and one modular multiplication per nonzero 6-bit
    digit, instead of a square per bit. Exponents wider than
    ``COMB_ROWS * COMB_WINDOW`` bits are refused.
    """
    if not 0 <= exponent < 1 << (COMB_ROWS * COMB_WINDOW):
        raise ValueError("exponent outside the comb's range")
    acc = 1
    for row in _comb_table():
        digit = exponent & _DIGIT_MASK
        if digit:
            acc = acc * row[digit] % MODP_2048_P
        exponent >>= COMB_WINDOW
    return acc


class KeyExchangeError(Exception):
    """Peer public value failed validation."""


@dataclass
class DhKeyPair:
    private: int
    public: int


def generate_keypair(rng: random.Random) -> DhKeyPair:
    """Generate an ephemeral keypair from a deterministic RNG."""
    private = rng.getrandbits(PRIVATE_BITS) | (1 << (PRIVATE_BITS - 1))
    public = fixed_base_pow(private)
    return DhKeyPair(private, public)


def validate_public(public: int) -> None:
    """Reject degenerate peer values (1, p-1, out of range)."""
    if not 2 <= public <= MODP_2048_P - 2:
        raise KeyExchangeError("peer public value out of range")


def shared_secret(own: DhKeyPair, peer_public: int) -> bytes:
    """Compute the raw shared secret, hashed to a fixed 32 bytes."""
    validate_public(peer_public)
    secret = pow(peer_public, own.private, MODP_2048_P)
    return hashlib.sha256(secret.to_bytes(256, "big")).digest()


def transcript_hash(*parts: bytes) -> bytes:
    """Hash a handshake transcript (length-prefixed, order-sensitive)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()
