"""Shared wire-parser fuzzing helpers.

Every wire codec in the tree owes its callers the same contract: malformed
input raises the codec's *domain* error (``HipParseError``,
``DnsDecodeError``, ``TeredoParseError``) — never a raw ``struct.error``
or ``IndexError``.  These helpers drive that contract with truncation
sweeps, seeded byte flips and length/count-field stomps; the HIP, DNS and
Teredo fuzz suites share them so a new parser only has to plug in its
builder, parser and error type.  :func:`decoder_corpus` is the plug-in
table for the parsers that have no suite of their own.
"""

from __future__ import annotations

import random
import struct
from typing import Callable, NamedTuple

__all__ = [
    "DecoderCase",
    "decoder_corpus",
    "sweep_truncations",
    "sweep_byte_flips",
    "stomp_fields",
]


def sweep_truncations(raw: bytes, parse, error) -> None:
    """Every strict prefix of ``raw`` must be rejected with ``error``.

    Any other exception (``struct.error``, ``IndexError``) propagates and
    fails the calling test; silent acceptance fails it explicitly.
    """
    for cut in range(len(raw)):
        try:
            parse(raw[:cut])
        except error:
            continue
        raise AssertionError(
            f"parser accepted truncation to {cut} of {len(raw)} bytes"
        )


def sweep_byte_flips(raw: bytes, parse, error, rng, rounds: int = 200) -> None:
    """Seeded single-bit corruptions must parse or raise ``error``.

    A successful parse of a corrupted message is acceptable (the flip may
    land in an opaque field); a raw ``struct.error`` / ``IndexError`` is
    not, and propagates to fail the calling test.
    """
    buf = bytearray(raw)
    for _ in range(rounds):
        pos = rng.randrange(len(buf))
        bit = 1 << rng.randrange(8)
        buf[pos] ^= bit
        try:
            parse(bytes(buf))
        except error:
            pass
        buf[pos] ^= bit


_STOMP_1 = (0x00, 0x01, 0x7F, 0xFF)
_STOMP_2 = (0x0000, 0x0001, 0x7FFF, 0xFFFF)


def stomp_fields(raw: bytes, parse, error, rng, rounds: int = 64) -> None:
    """Overwrite seeded 1- and 2-byte windows with boundary values.

    This is the length/count-field attack: a declared length inflated past
    the buffer, a count of zero, a count of 65535.  The parser must accept
    or raise ``error`` — anything else propagates.
    """
    for _ in range(rounds):
        width = rng.choice((1, 2))
        if len(raw) < width:
            continue
        pos = rng.randrange(len(raw) - width + 1)
        if width == 1:
            patch = bytes([rng.choice(_STOMP_1)])
        else:
            patch = struct.pack(">H", rng.choice(_STOMP_2))
        mutated = raw[:pos] + patch + raw[pos + width:]
        try:
            parse(mutated)
        except error:
            pass


class DecoderCase(NamedTuple):
    """One valid message with the parser and domain error that own it."""

    name: str
    raw: bytes
    parse: Callable[[bytes], object]
    error: type[Exception]
    #: Corrupt only this many leading bytes (truncation still sweeps all).
    corruptible: int | None = None

    def corruption_target(self) -> tuple[bytes, Callable[[bytes], object]]:
        """``(bytes to corrupt, parser of their corrupted form)``."""
        cut = len(self.raw) if self.corruptible is None else self.corruptible
        head, tail = self.raw[:cut], self.raw[cut:]
        return head, lambda data: self.parse(data + tail)


def decoder_corpus() -> list[DecoderCase]:
    """A valid message for every wire parser outside HIP/DNS/Teredo
    (those have their own suites): DNSSEC signature section, the VPN ``key``
    body, the DB protocol heads, the shard envelope pickle and both
    directions of a shard window."""
    from repro.apps.database import QueryError, parse_request_head, parse_response_head
    from repro.crypto.rsa import RsaKeyPair
    from repro.net.addresses import ipv4
    from repro.net.dns import DnsRecord, encode_response
    from repro.net.dnssec import (
        DnssecError,
        SignedZone,
        decode_signature_section,
        encode_signed_response,
    )
    from repro.net.packet import Packet
    from repro.sim.shard import (
        _ROW,
        Envelope,
        ShardError,
        _dumps,
        _loads,
        decode_envelopes,
        encode_envelopes,
    )
    from repro.tls.vpn import VpnError, parse_key_body

    keypair = RsaKeyPair.generate(512, random.Random(0x5160))
    zone = SignedZone(keypair)
    records = [
        DnsRecord(name="web.cloud", rtype="A", ttl=30.0, address=ipv4("10.0.0.9")),
        DnsRecord(name="db.cloud", rtype="A", ttl=30.0, address=ipv4("10.0.0.7")),
    ]
    for record in records:
        zone.add(record)
    base = encode_response(7, records)
    section = encode_signed_response(zone, 7, records)[len(base):]

    def parse_signatures(data: bytes) -> list[bytes]:
        # As the validating resolver reads it: no section at all is the
        # "unsigned server" case, refused one step later for lack of
        # signatures; fold that step in so every prefix is a rejection.
        sigs = decode_signature_section(base + data, len(base))
        if len(sigs) < len(records):
            raise DnssecError("answer is missing signatures")
        return sigs

    nonce = bytes(range(32))
    envelopes = [
        Envelope(
            arrival=0.125 + i * 1e-9, src_shard="left", src_index=0,
            seq=i + 1, dst_shard="right", port_id="l->r",
            packet=Packet(headers=(), payload=bytes([i]) * 32), sent_now=0.1,
        )
        for i in range(3)
    ]
    rows = [_ROW(env) for env in envelopes]
    command = _dumps(b"W", (0.25, rows))
    reply = _dumps(b"W", (rows, 0.25, 0.3, 1e-4, 1e-4, [("sim.steps", 12)]))
    return [
        DecoderCase("dnssec-signatures", section, parse_signatures, DnssecError),
        DecoderCase("vpn-key", nonce + bytes(64),
                    lambda body: parse_key_body(body, 64), VpnError),
        DecoderCase("db-request-head", struct.pack(">I", 17),
                    parse_request_head, QueryError),
        DecoderCase("db-response-head", struct.pack(">BII", 0, 3, 768),
                    parse_response_head, QueryError),
        # The envelope pickle, and both directions of a shard window.  Flips
        # stay in the tag byte and the pickle's protocol and frame header: a
        # message is only ever bytes a worker of this program wrote, and a
        # corrupted pickle body can ask the unpickler for arbitrary
        # allocations.
        DecoderCase("shard-envelope-frame", encode_envelopes(envelopes),
                    decode_envelopes, ShardError, corruptible=11),
        DecoderCase("shard-window-command", command, _loads, ShardError, corruptible=12),
        DecoderCase("shard-window-reply", reply, _loads, ShardError, corruptible=12),
    ]
