"""DNSSEC-style record signing and validation (§VII future work).

"In a production-scale environment, automated DNS support fortified with
DNSSEC support would appear useful."  This module adds exactly that on top
of :mod:`repro.net.dns`: a zone key signs every record's canonical bytes
(RRSIG's role), and a :class:`ValidatingResolver` configured with the zone's
public key (the trust anchor) rejects tampered or unsigned answers.

Signed records travel as ``(record, signature)`` pairs in an extended
response encoding; unaware resolvers ignore the signatures, mirroring how
DNSSEC deploys incrementally.
"""

from __future__ import annotations

import struct

from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.net.dns import DnsRecord, DnsResolver, DnsServer, Zone, encode_response
from repro.net.wire import U16, WireReader


class DnssecError(Exception):
    """Validation failure: bogus or missing signature."""


def record_canonical_bytes(record: DnsRecord) -> bytes:
    """Canonical signing input for one record (RFC 4034's wire-form role)."""
    out = record.name.encode() + b"|" + record.rtype.encode()
    out += struct.pack(">f", record.ttl)
    if record.address is not None:
        out += bytes([record.address.family]) + record.address.packed()
    if record.hit is not None:
        out += record.hit.packed() + record.host_id
        for rvs in record.rvs:
            out += rvs.encode() + b";"
    return out


class SignedZone(Zone):
    """A zone whose records carry signatures from the zone key."""

    def __init__(self, keypair: RsaKeyPair) -> None:
        super().__init__()
        self.keypair = keypair
        self._signatures: dict[int, bytes] = {}  # id(record) -> signature

    @property
    def public_key(self) -> RsaPublicKey:
        return self.keypair.public

    def add(self, record: DnsRecord) -> None:
        super().add(record)
        self._signatures[id(record)] = self.keypair.sign(
            record_canonical_bytes(record)
        )

    def signature_for(self, record: DnsRecord) -> bytes | None:
        return self._signatures.get(id(record))


def encode_signed_response(zone: SignedZone, qid: int,
                           records: list[DnsRecord]) -> bytes:
    """Response encoding with an appended signature section."""
    base = encode_response(qid, records)
    sig_section = struct.pack(">H", len(records))
    for record in records:
        sig = zone.signature_for(record) or b""
        sig_section += struct.pack(">H", len(sig)) + sig
    return base + sig_section


def decode_signature_section(data: bytes, base_len: int) -> list[bytes]:
    if base_len >= len(data):
        return []
    r = WireReader(data, DnssecError)
    r.take(base_len, "base response")
    (count,) = r.read(U16, "signature count")
    sigs = []
    for _ in range(count):
        (n,) = r.read(U16, "signature length")
        sigs.append(r.take(n, "signature"))
    return sigs


class SignedDnsServer(DnsServer):
    """Authoritative server answering with signatures from a SignedZone.

    Signing happened at zone-load time; answering costs a little more than
    the plain lookup for the longer response."""

    zone: SignedZone
    answer_cost = 25e-6

    def _encode(self, qid: int, answers: list[DnsRecord]) -> bytes:
        return encode_signed_response(self.zone, qid, answers)


class ValidatingResolver(DnsResolver):
    """Resolver that verifies every record against the trust anchor.

    Returns only validated records; raises :class:`DnssecError` when an
    answer carries a missing or bogus signature (the DNSSEC "bogus" state —
    fail closed rather than use unauthenticated data).
    """

    def __init__(self, node, udp, server_addr, trust_anchor: RsaPublicKey) -> None:
        super().__init__(node, udp, server_addr)
        self.trust_anchor = trust_anchor
        self.validated = 0
        self.rejected = 0

    def _check(self, data: bytes, qid: int, records: list[DnsRecord]) -> None:
        try:
            sigs = decode_signature_section(data, len(encode_response(qid, records)))
            if len(sigs) < len(records):
                raise DnssecError("answer is missing signatures")
            for record, sig in zip(records, sigs):
                if not self.trust_anchor.verify(record_canonical_bytes(record), sig):
                    raise DnssecError(f"bogus signature for {record.name}/{record.rtype}")
                self.validated += 1
        except DnssecError:
            self.rejected += 1  # malformed, missing or bogus alike
            raise
