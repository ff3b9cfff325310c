"""Finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP group.

Used by the client↔monitor authenticated key exchange (paper §6.3). The
exchange is authenticated by binding a hash of the DH transcript into the
TDX quote's ``report_data`` — see :mod:`repro.core.channel`.

Simulation-grade: parameters and structure are real, but private keys come
from a caller-supplied deterministic RNG so runs are reproducible.

Both exponentiations of a handshake, the public value and the shared
secret, call :func:`modexp`: OpenSSL's constant-time
``BN_mod_exp_mont_consttime`` (the exponent is a private key) in the
libcrypto that CPython's ``_hashlib`` already links, so no library is
added. It returns the integer ``pow`` does in about a tenth of the host
time. There is no fallback to ``pow``.
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
_P_BYTES = MODP_2048_P.to_bytes(256, "big")


@functools.cache
def _libcrypto():
    """libcrypto's BN functions through ``_hashlib``; pointers are
    ``c_void_p``, as the default ``int`` result type would truncate them."""
    import ctypes
    import _hashlib
    lib = ctypes.CDLL(_hashlib.__file__)   # already loaded: no new mapping
    p, s, n = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    for name, restype, *argtypes in (
            ("BN_CTX_new", p), ("BN_CTX_free", None, p), ("BN_new", p),
            ("BN_bin2bn", p, s, n, p), ("BN_bn2binpad", n, p, s, n),
            ("BN_mod_exp_mont_consttime", n, p, p, p, p, p, p),
            ("BN_free", None, p), ("BN_clear_free", None, p)):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib, ctypes.create_string_buffer


def modexp(base: int, exponent: int) -> int:
    """``pow(base, exponent, MODP_2048_P)``, constant-time in the exponent;
    one ``BN_CTX`` per call, so concurrent callers share no scratch state."""
    lib, buffer = _libcrypto()
    b, e = (x.to_bytes(-(-x.bit_length() // 8), "big")
            for x in (base, exponent))
    out, ctx, result = buffer(256), lib.BN_CTX_new(), lib.BN_new()
    num, exp, mod = (lib.BN_bin2bn(x, len(x), None) for x in (b, e, _P_BYTES))
    try:
        if not (ctx and result and num and exp and mod):
            raise MemoryError("libcrypto could not allocate a BIGNUM")
        if (lib.BN_mod_exp_mont_consttime(result, num, exp, mod, ctx, None)
                != 1 or lib.BN_bn2binpad(result, out, 256) != 256):
            raise RuntimeError("libcrypto's modular exponentiation failed")
    finally:
        lib.BN_clear_free(exp)   # wipes the private exponent; NULL is a no-op
        for bn in (num, mod, result):
            lib.BN_free(bn)
        lib.BN_CTX_free(ctx)
    return int.from_bytes(out.raw, "big")


class KeyExchangeError(Exception):
    """Peer public value failed validation."""


@dataclass
class DhKeyPair:
    private: int
    public: int


def generate_keypair(rng: random.Random) -> DhKeyPair:
    """Generate an ephemeral keypair from a deterministic RNG."""
    private = rng.getrandbits(PRIVATE_BITS) | (1 << (PRIVATE_BITS - 1))
    public = modexp(GENERATOR, private)
    return DhKeyPair(private, public)


def validate_public(public: int) -> None:
    """Reject degenerate peer values (1, p-1, out of range)."""
    if not 2 <= public <= MODP_2048_P - 2:
        raise KeyExchangeError("peer public value out of range")


def shared_secret(own: DhKeyPair, peer_public: int) -> bytes:
    """Compute the raw shared secret, hashed to a fixed 32 bytes."""
    validate_public(peer_public)
    secret = modexp(peer_public, own.private)
    return hashlib.sha256(secret.to_bytes(256, "big")).digest()


def transcript_hash(*parts: bytes) -> bytes:
    """Hash a handshake transcript (length-prefixed, order-sensitive)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()
