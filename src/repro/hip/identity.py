"""Host identities: HI key pairs, HITs (ORCHIDs) and LSI allocation.

A Host Identifier (HI) is a public key — RSA in the classic deployment,
ECDSA P-256 with the RFC 5201-bis update the paper mentions for cheaper
processing.  The Host Identity Tag (HIT) is a 128-bit ORCHID (RFC 4843):
the 28-bit prefix ``2001:10::/28`` followed by a 100-bit hash of the public
key, giving the ~2^100 namespace the paper cites.  LSIs are per-host IPv4
aliases from ``1.0.0.0/8`` that let unmodified IPv4 applications name HIP
peers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Union

from repro.crypto.ecc import EcdsaKeyPair, ecdsa_verify
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.sha import sha1
from repro.net.addresses import IPAddress, LSI_PREFIX, ORCHID_PREFIX

#: A decoded HI: an RSA public key, or an ECDSA P-256 public point.
HostKey = Union[RsaPublicKey, tuple[int, int]]

ORCHID_CONTEXT = bytes.fromhex("f0efb52907c1c4f20fbeba3e9ee5c2c1")  # RFC 4843 HIP context


def hit_from_public_key(public_key_bytes: bytes) -> IPAddress:
    """Derive the HIT: ORCHID prefix + 100-bit truncated SHA-1 ORCHID hash."""
    digest = sha1(ORCHID_CONTEXT + public_key_bytes)
    hash100 = int.from_bytes(digest[:13], "big") >> 4  # top 100 bits
    prefix_bits = ORCHID_PREFIX.network.value >> 100  # 28-bit prefix
    return IPAddress(6, (prefix_bits << 100) | hash100)


@dataclass(frozen=True)
class HostIdentity:
    """A host's identity: key pair + derived HIT.

    ``algorithm`` is ``"rsa"`` or ``"ecdsa"``; both sign/verify interfaces
    are normalized here so the rest of the stack is agnostic.
    """

    algorithm: str
    rsa: RsaKeyPair | None = None
    ecdsa: EcdsaKeyPair | None = None

    @classmethod
    def generate(
        cls, rng: random.Random, algorithm: str = "rsa", rsa_bits: int = 1024
    ) -> "HostIdentity":
        if algorithm == "rsa":
            return cls(algorithm="rsa", rsa=RsaKeyPair.generate(rsa_bits, rng))
        if algorithm == "ecdsa":
            return cls(algorithm="ecdsa", ecdsa=EcdsaKeyPair.generate(rng))
        raise ValueError(f"unknown HI algorithm {algorithm!r}")

    @property
    def public_key_bytes(self) -> bytes:
        """Wire encoding of the HI, as carried in the HOST_ID parameter."""
        if self.algorithm == "rsa":
            assert self.rsa is not None
            return b"RSA:" + self.rsa.public.to_bytes()
        assert self.ecdsa is not None
        return b"ECC:" + self.ecdsa.public_bytes()

    @property
    def public_key(self) -> HostKey:
        """The HI as a key, as :func:`decode_host_id` decodes a peer's."""
        if self.algorithm == "rsa":
            assert self.rsa is not None
            return self.rsa.public
        assert self.ecdsa is not None
        return self.ecdsa.public

    @property
    def hit(self) -> IPAddress:
        return hit_from_public_key(self.public_key_bytes)

    @property
    def rsa_bits(self) -> int:
        """Modulus size for cost accounting (0 for ECDSA identities)."""
        return self.rsa.public.bits if self.rsa is not None else 0

    def sign(self, message: bytes, rng: random.Random) -> bytes:
        if self.algorithm == "rsa":
            assert self.rsa is not None
            return self.rsa.sign(message)
        assert self.ecdsa is not None
        return self.ecdsa.sign(message, rng)


def decode_host_id(public_key_bytes: bytes) -> HostKey:
    """Decode a wire-encoded HI; ValueError on an unknown algorithm or bad key."""
    if public_key_bytes.startswith(b"RSA:"):
        return RsaPublicKey.from_bytes(public_key_bytes[4:])
    if public_key_bytes.startswith(b"ECC:"):
        return EcdsaKeyPair.public_from_bytes(public_key_bytes[4:])
    raise ValueError("unknown HI algorithm")


def verify_with_host_id(key: HostKey, message: bytes, signature: bytes) -> bool:
    """Verify a signature against a decoded HI; False on any failure."""
    try:
        if isinstance(key, RsaPublicKey):
            return key.verify(message, signature)
        return ecdsa_verify(key, message, signature)
    except (ValueError, IndexError):
        return False


def asym_cost_for_host_id(key: HostKey, op: str, cost_model) -> float:
    """CPU cost of ``op`` ("sign" | "verify") for the given decoded HI."""
    if isinstance(key, RsaPublicKey):
        return cost_model.rsa_sign(key.bits) if op == "sign" else cost_model.rsa_verify(key.bits)
    if op == "sign":
        return cost_model.ecdsa_sign_p256
    return cost_model.ecdsa_verify_p256


class LsiAllocator:
    """Per-host allocator of Local-Scope Identifiers (1.0.x.y).

    LSIs are host-local: two hosts may map the same peer HIT to different
    LSIs.  ``1.0.0.1`` is conventionally the host's own LSI.
    """

    def __init__(self) -> None:
        base = LSI_PREFIX.network.value
        self._own = IPAddress(4, base + 1)
        self._next = base + 2
        self._by_hit: dict[IPAddress, IPAddress] = {}
        self._by_lsi: dict[IPAddress, IPAddress] = {}

    @property
    def own_lsi(self) -> IPAddress:
        return self._own

    def assign(self, hit: IPAddress) -> IPAddress:
        """Return (allocating if needed) the LSI for a peer HIT."""
        existing = self._by_hit.get(hit)
        if existing is not None:
            return existing
        lsi = IPAddress(4, self._next)
        self._next += 1
        if not LSI_PREFIX.contains(lsi):
            raise RuntimeError("LSI space exhausted")
        self._by_hit[hit] = lsi
        self._by_lsi[lsi] = hit
        return lsi

    def hit_for(self, lsi: IPAddress) -> IPAddress | None:
        return self._by_lsi.get(lsi)

    def held(self, hit: IPAddress) -> IPAddress:
        """The HIT object :meth:`hit_for` hands out for ``hit``'s LSI, or
        ``hit`` itself when it has none: keying by it keeps one object per
        peer, so per-packet lookups match by identity, not by ``__eq__``."""
        lsi = self._by_hit.get(hit)
        return hit if lsi is None else self._by_lsi[lsi]

    def lsi_for(self, hit: IPAddress) -> IPAddress | None:
        return self._by_hit.get(hit)
