"""RSA: key generation, PKCS#1 v1.5 signatures and encryption.

HIP Host Identifiers are RSA public keys in the reference HIPL deployment;
TLS 1.2's RSA key-transport handshake uses RSAES-PKCS1-v1_5.  Private-key
operations use the CRT speedup.  Key sizes default to 1024 bits to match the
paper's 2012-era deployment, and tests use smaller keys for speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.numtheory import (
    bytes_to_int,
    int_to_bytes,
    modinv,
    random_prime,
)
from repro.crypto.secret import Secret
from repro.crypto.sha import HASHES

# DigestInfo DER prefixes for EMSA-PKCS1-v1_5 (RFC 8017 §9.2 note 1).
_DIGEST_INFO_PREFIX = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
}


class RsaError(Exception):
    """Signature verification or decryption failure."""


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def to_bytes(self) -> bytes:
        """Wire encoding: 2-byte e length, e, then n (used in HOST_ID params)."""
        e_bytes = int_to_bytes(self.e)
        return len(e_bytes).to_bytes(2, "big") + e_bytes + int_to_bytes(self.n)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RsaPublicKey":
        if len(data) < 4:
            raise ValueError("truncated RSA public key encoding")
        e_len = int.from_bytes(data[:2], "big")
        if len(data) < 2 + e_len + 1:
            raise ValueError("truncated RSA public key encoding")
        e = bytes_to_int(data[2 : 2 + e_len])
        n = bytes_to_int(data[2 + e_len :])
        return cls(n=n, e=e)

    # -- raw and padded operations -------------------------------------------
    def _encrypt_int(self, m: int) -> int:
        if not 0 <= m < self.n:
            raise ValueError("message representative out of range")
        return pow(m, self.e, self.n)

    def verify(self, message: bytes, signature: bytes, hash_name: str = "sha256") -> bool:
        """RSASSA-PKCS1-v1_5 verification; returns False on any mismatch."""
        k = self.byte_length
        if len(signature) != k:
            return False
        em = int_to_bytes(self._encrypt_int(bytes_to_int(signature)), k)
        try:
            expected = _emsa_pkcs1_v15(message, k, hash_name)
        except ValueError:
            return False
        return em == expected

    def encrypt(self, message: bytes | Secret, rng: random.Random) -> bytes:
        """RSAES-PKCS1-v1_5 encryption (TLS-style key transport)."""
        if isinstance(message, Secret):
            message = message.reveal()
        k = self.byte_length
        if len(message) > k - 11:
            raise ValueError(f"message too long for RSA-{self.bits} PKCS#1 v1.5")
        ps = bytes(rng.randrange(1, 256) for _ in range(k - len(message) - 3))
        em = b"\x00\x02" + ps + b"\x00" + message
        return int_to_bytes(self._encrypt_int(bytes_to_int(em)), k)


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA key pair with CRT components for fast private operations."""

    public: RsaPublicKey
    d: int = field(repr=False)
    p: int = field(repr=False)
    q: int = field(repr=False)
    d_p: int = field(repr=False)
    d_q: int = field(repr=False)
    q_inv: int = field(repr=False)

    @classmethod
    def generate(cls, bits: int, rng: random.Random, e: int = 65537) -> "RsaKeyPair":
        if bits < 128:
            raise ValueError("RSA modulus below 128 bits is not supported")
        if bits % 2:
            raise ValueError("RSA modulus size must be even")
        while True:
            p = random_prime(bits // 2, rng)
            q = random_prime(bits // 2, rng)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            try:
                d = modinv(e, phi)
            except ValueError:
                continue  # e not coprime with phi; rare, retry
            n = p * q
            if n.bit_length() != bits:
                continue
            return cls(
                public=RsaPublicKey(n=n, e=e),
                d=d,
                p=p,
                q=q,
                d_p=d % (p - 1),
                d_q=d % (q - 1),
                q_inv=modinv(q, p),
            )

    def _decrypt_int(self, c: int) -> int:
        """Private-key operation via CRT (about 4x faster than pow(c, d, n))."""
        if not 0 <= c < self.public.n:
            raise ValueError("ciphertext representative out of range")
        m1 = pow(c % self.p, self.d_p, self.p)
        m2 = pow(c % self.q, self.d_q, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def sign(self, message: bytes, hash_name: str = "sha256") -> bytes:
        """RSASSA-PKCS1-v1_5 signature."""
        k = self.public.byte_length
        em = _emsa_pkcs1_v15(message, k, hash_name)
        return int_to_bytes(self._decrypt_int(bytes_to_int(em)), k)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """RSAES-PKCS1-v1_5 decryption; raises RsaError on bad padding."""
        k = self.public.byte_length
        if len(ciphertext) != k:
            raise RsaError("ciphertext has wrong length")
        em = int_to_bytes(self._decrypt_int(bytes_to_int(ciphertext)), k)
        if not em.startswith(b"\x00\x02"):
            raise RsaError("bad PKCS#1 v1.5 padding header")
        try:
            sep = em.index(b"\x00", 2)
        except ValueError:
            raise RsaError("missing PKCS#1 v1.5 separator") from None
        if sep < 10:  # at least 8 bytes of PS
            raise RsaError("PKCS#1 v1.5 padding string too short")
        return em[sep + 1 :]


def _emsa_pkcs1_v15(message: bytes, em_len: int, hash_name: str) -> bytes:
    try:
        prefix = _DIGEST_INFO_PREFIX[hash_name]
        hash_fn = HASHES[hash_name]
    except KeyError:
        raise ValueError(f"unsupported hash {hash_name!r}") from None
    t = prefix + hash_fn(message)
    if em_len < len(t) + 11:
        raise ValueError("intended encoded message length too short")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t
