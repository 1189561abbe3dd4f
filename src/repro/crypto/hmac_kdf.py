"""HMAC (RFC 2104) and HKDF-style key derivation (RFC 5869) over our SHA.

HIP derives its ESP keys from the Diffie-Hellman secret via a KEYMAT
expansion (RFC 5201 §6.5) which is structurally HKDF-expand; TLS 1.2 uses a
P_hash PRF which is also provided here so both protocol stacks share one
audited primitive set.  Every derived key comes back as a
:class:`~repro.crypto.secret.Secret`; only the Finished ``verify_data``
(:func:`tls_verify_data`), public by design, is plain bytes.

:class:`HmacKey` is the steady-state fast path: it folds the ipad and opad
key blocks through the hash **once at construction** and every subsequent
:meth:`HmacKey.digest` resumes from the cached midstates — zero
key-schedule or pad work per message, and two compression calls fewer than
the naive construction.  The midstates are stdlib :mod:`hashlib` objects,
whose ``.copy()`` *is* midstate resumption, at C speed.  ESP security
associations each hold their ``HmacKey`` for the lifetime of the key
(``repro/hip/esp.py``); ``hmac_digest`` stays as the one-shot convenience wrapper.  Differential
tests pin it to the RFC 2104 reference in ``tests/oracles`` and to stdlib
``hmac``.
"""

from __future__ import annotations

import hashlib

from repro.crypto.secret import Secret
from repro.metrics import METRICS
from repro.crypto.sha import BLOCK_SIZES, DIGEST_SIZES, HASHES

_HMAC_OPS = METRICS.counter("crypto.hmac_ops")
_HMAC_BYTES = METRICS.counter("crypto.hmac_bytes")

_HASHLIB = {"sha1": hashlib.sha1, "sha256": hashlib.sha256}
# RFC 2104's inner and outer pads as ``bytes.translate`` tables.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class HmacKey:
    """HMAC instance bound to one key, with cached ipad/opad midstates."""

    __slots__ = ("hash_name", "digest_size", "_inner", "_outer")

    def __init__(self, key: bytes | Secret, hash_name: str = "sha256") -> None:
        if isinstance(key, Secret):
            key = key.reveal()
        try:
            new = _HASHLIB[hash_name]
        except KeyError:
            raise ValueError(f"unknown hash {hash_name!r}") from None
        self.hash_name = hash_name
        self.digest_size = DIGEST_SIZES[hash_name]
        block = BLOCK_SIZES[hash_name]
        if len(key) > block:
            key = new(key).digest()
        key = key.ljust(block, b"\x00")
        self._inner = new(key.translate(_IPAD))
        self._outer = new(key.translate(_OPAD))

    def digest(self, message: bytes) -> bytes:
        """HMAC(key, message), resuming from the cached pad midstates."""
        _HMAC_OPS.value += 1
        _HMAC_BYTES.value += len(message)
        return self._digest(message)

    def _digest(self, message: bytes) -> bytes:
        """:meth:`digest` without the counters, for callers that booked them."""
        h = self._inner.copy()
        h.update(message)
        outer = self._outer.copy()
        outer.update(h.digest())
        return outer.digest()


def hmac_digest(key: bytes | Secret, message: bytes, hash_name: str = "sha256") -> bytes:
    """HMAC per RFC 2104 (one-shot; hot paths cache an :class:`HmacKey`)."""
    return HmacKey(key, hash_name).digest(message)


def hkdf_extract(salt: bytes, ikm: bytes | Secret, hash_name: str = "sha256") -> Secret:
    """HKDF-Extract: PRK = HMAC(salt, IKM)."""
    if isinstance(ikm, Secret):
        ikm = ikm.reveal()
    return Secret(hmac_digest(salt, ikm, hash_name))


def hkdf_expand(
    prk: bytes | Secret, info: bytes, length: int, hash_name: str = "sha256"
) -> Secret:
    """HKDF-Expand: derive ``length`` bytes of output keying material."""
    try:
        digest_len = DIGEST_SIZES[hash_name]
    except KeyError:
        raise ValueError(f"unknown hash {hash_name!r}") from None
    if length > 255 * digest_len:
        raise ValueError("requested keying material too long")
    hk = HmacKey(prk, hash_name)
    okm = b""
    t = b""
    counter = 1
    while len(okm) < length:
        t = hk.digest(t + info + bytes([counter]))
        okm += t
        counter += 1
    return Secret(okm[:length])


def hip_keymat(dh_secret: bytes | Secret, hit_i: bytes, hit_r: bytes, length: int) -> Secret:
    """HIP KEYMAT generation (RFC 5201 §6.5).

    KEYMAT = K1 | K2 | ... where K1 = hash(Kij | sort(HIT-I, HIT-R) | 0x01)
    and Ki = hash(Kij | Ki-1 | i).  The sort uses the numeric HIT order so
    initiator and responder derive identical material.
    """
    if isinstance(dh_secret, Secret):
        dh_secret = dh_secret.reveal()
    lo, hi = sorted((hit_i, hit_r))
    hash_fn = HASHES["sha256"]
    out = b""
    prev = b""
    counter = 1
    while len(out) < length:
        if counter == 1:
            prev = hash_fn(dh_secret + lo + hi + bytes([counter]))
        else:
            prev = hash_fn(dh_secret + prev + bytes([counter & 0xFF]))
        out += prev
        counter += 1
    return Secret(out[:length])


def _p_sha256(secret: bytes | Secret, label: bytes, seed: bytes, length: int) -> bytes:
    hk = HmacKey(secret)
    full_seed = label + seed
    out = b""
    a = full_seed
    while len(out) < length:
        a = hk.digest(a)
        out += hk.digest(a + full_seed)
    return out[:length]


def tls_prf(secret: bytes | Secret, label: bytes, seed: bytes, length: int) -> Secret:
    """TLS 1.2 PRF (RFC 5246 §5): P_SHA256(secret, label + seed)."""
    return Secret(_p_sha256(secret, label, seed, length))


def tls_verify_data(master: Secret, label: bytes, seed: bytes) -> bytes:
    """Finished ``verify_data`` (RFC 5246 §7.4.9): PRF(master, label, seed)[0..11].

    The one PRF output that is public by design: it crosses the wire to
    prove key possession, so it is plain ``bytes``, never a ``Secret`` —
    compared with :func:`ct_equal`, never ``==``.
    """
    return _p_sha256(master, label, seed, 12)


def ct_equal(a: bytes, b: bytes) -> bool:
    """Constant-time equality for MACs, ICVs and Finished verify-data.

    A plain ``==`` short-circuits at the first differing byte, leaking the
    match length through timing — the classic MAC-forgery oracle.  Key
    material is a :class:`~repro.crypto.secret.Secret`, whose ``==`` raises;
    MACs are public bytes, and the ``SEC002`` analysis rule flags a ``==``
    on a ``.digest()``, ``hmac_digest()`` or ``tls_verify_data()`` result in
    the protocol stacks.  Length is not secret for fixed-size MACs, so a
    length mismatch may return early.
    """
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0
