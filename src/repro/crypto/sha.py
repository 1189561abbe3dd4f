"""SHA-1 and SHA-256 one-shot digests, through stdlib :mod:`hashlib`.

HIP uses SHA-1 for HITs and puzzles (RFC 5201 era) and SHA-256 in later
revisions; TLS 1.2 PRF, RSA signatures, KEYMAT and our HMAC use SHA-256.
``hashlib`` is part of every CPython build, so this adds no dependency, and
it runs the digests at C speed: the signed R1/I2/R2 of a base exchange
are hashed here.

The FIPS-180 reference lives with the tests, beside the AES reference
(``tests/oracles/crypto_reference.py``: ``sha1_ref``, ``sha256_ref``,
``hmac_digest_ref``); ``tests/test_crypto_fastpath.py`` pins this module to
it byte for byte over every padding case.
"""

from __future__ import annotations

import hashlib


def sha1(message: bytes) -> bytes:
    """SHA-1 digest (20 bytes)."""
    return hashlib.sha1(message).digest()


def sha256(message: bytes) -> bytes:
    """SHA-256 digest (32 bytes)."""
    return hashlib.sha256(message).digest()


DIGEST_SIZES = {"sha1": 20, "sha256": 32}
BLOCK_SIZES = {"sha1": 64, "sha256": 64}
HASHES = {"sha1": sha1, "sha256": sha256}
