"""Seeded fuzzing of every wire codec outside HIP.

Built on :mod:`tests.wire_fuzz` — the same truncation/byte-flip/field-stomp
corpus the HIP codec runs — these check, at runtime and exactly, the
contract ``WireReader`` gives by construction: malformed wire input raises
the parser's domain error, never a raw ``struct.error`` or ``IndexError``,
and never yields a silently short field.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.net.addresses import ipv4, ipv6
from repro.net.dns import (
    DnsDecodeError,
    DnsRecord,
    decode_query,
    decode_response,
    encode_query,
    encode_response,
)
from repro.net.teredo import TeredoParseError, parse_ra
from tests.wire_fuzz import (
    decoder_corpus,
    stomp_fields,
    sweep_byte_flips,
    sweep_truncations,
)


def _query_corpus() -> list[bytes]:
    return [
        encode_query("www.example.com", "A", 7),
        encode_query("vm1.cloud.example", "HIP", 65535),
        encode_query("", "AAAA", 0),
    ]


def _response_corpus() -> list[bytes]:
    return [
        encode_response(7, [
            DnsRecord(name="h", rtype="A", ttl=60.0, address=ipv4("1.2.3.4")),
        ]),
        encode_response(8, [
            DnsRecord(name="v6", rtype="AAAA", ttl=60.0,
                      address=ipv6("2001:db8::1")),
        ]),
        encode_response(9, [
            DnsRecord(name="vm", rtype="HIP", ttl=30.0,
                      hit=ipv6("2001:10::42"), host_id=b"RSA:fakekey",
                      rvs=("rvs1.example", "rvs2.example")),
            DnsRecord(name="h", rtype="A", ttl=60.0, address=ipv4("1.2.3.4")),
        ]),
    ]


class TestDnsQueryFuzz:
    def test_truncations(self):
        for raw in _query_corpus():
            sweep_truncations(raw, decode_query, DnsDecodeError)

    def test_byte_flips(self):
        rng = random.Random(0xD15)
        for raw in _query_corpus():
            sweep_byte_flips(raw, decode_query, DnsDecodeError, rng)

    def test_field_stomps(self):
        rng = random.Random(0xD16)
        for raw in _query_corpus():
            stomp_fields(raw, decode_query, DnsDecodeError, rng)

    def test_bad_utf8_rejected(self):
        raw = struct.pack(">HB", 1, 0) + struct.pack(">H", 2) + b"\xff\xfe"
        raw += struct.pack(">H", 1) + b"A"
        with pytest.raises(DnsDecodeError):
            decode_query(raw)


class TestDnsResponseFuzz:
    def test_truncations(self):
        for raw in _response_corpus():
            sweep_truncations(raw, decode_response, DnsDecodeError)

    def test_byte_flips(self):
        rng = random.Random(0xE17)
        for raw in _response_corpus():
            sweep_byte_flips(raw, decode_response, DnsDecodeError, rng)

    def test_field_stomps(self):
        rng = random.Random(0xE18)
        for raw in _response_corpus():
            stomp_fields(raw, decode_response, DnsDecodeError, rng)


class TestTeredoRaFuzz:
    def _ra(self) -> bytes:
        return b"\x02" + ipv4("198.51.100.1").packed() + struct.pack(">H", 4242)

    def test_roundtrip(self):
        assert parse_ra(self._ra()) == (ipv4("198.51.100.1"), 4242)

    def test_truncations(self):
        sweep_truncations(self._ra(), parse_ra, TeredoParseError)

    def test_oversized_rejected(self):
        for extra in (1, 3, 64):
            with pytest.raises(TeredoParseError):
                parse_ra(self._ra() + b"\x00" * extra)


CASES = decoder_corpus()


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
class TestConvertedDecoders:
    """The ``WireReader`` parsers without a suite of their own."""

    def test_valid_message_parses(self, case):
        case.parse(case.raw)

    def test_truncations(self, case):
        sweep_truncations(case.raw, case.parse, case.error)

    def test_byte_flips(self, case):
        raw, parse = case.corruption_target()
        sweep_byte_flips(raw, parse, case.error, random.Random(0xF11B))

    def test_field_stomps(self, case):
        raw, parse = case.corruption_target()
        stomp_fields(raw, parse, case.error, random.Random(0x570B))
