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

from repro.net.addresses import ipv4
from repro.net.teredo import TeredoParseError, parse_ra
from tests.wire_fuzz import (
    decoder_corpus,
    stomp_fields,
    sweep_byte_flips,
    sweep_truncations,
)


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
