"""Seeded randomized round-trip and truncation tests for the HIP wire codec.

Every ``build_*``/``parse_*`` pair must round-trip arbitrary valid inputs
and reject every truncation/corruption with :class:`HipParseError` — never
a raw ``struct.error`` escaping to the caller.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.hip import packets as hp
from repro.net.addresses import IPAddress
from tests.wire_fuzz import stomp_fields, sweep_byte_flips, sweep_truncations

RNG = random.Random(0x51EE7)
ROUNDS = 25


def _hit(rng: random.Random) -> IPAddress:
    return IPAddress(6, rng.getrandbits(128))


def _v4(rng: random.Random) -> IPAddress:
    return IPAddress(4, rng.getrandbits(32))


class TestParamRoundTrips:
    def test_puzzle(self):
        for _ in range(ROUNDS):
            k, exp, opaque = RNG.randrange(256), RNG.randrange(256), RNG.randrange(1 << 16)
            i = RNG.randbytes(8)
            assert hp.parse_puzzle(hp.build_puzzle(k, exp, opaque, i)) == (k, exp, opaque, i)

    def test_solution(self):
        for _ in range(ROUNDS):
            k, opaque = RNG.randrange(256), RNG.randrange(1 << 16)
            i, j = RNG.randbytes(8), RNG.randbytes(8)
            assert hp.parse_solution(hp.build_solution(k, opaque, i, j)) == (k, opaque, i, j)

    def test_dh(self):
        for _ in range(ROUNDS):
            group = RNG.randrange(256)
            public = RNG.randbytes(RNG.randrange(0, 256))
            assert hp.parse_dh(hp.build_dh(group, public)) == (group, public)

    def test_esp_info(self):
        for _ in range(ROUNDS):
            old, new = RNG.getrandbits(32), RNG.getrandbits(32)
            assert hp.parse_esp_info(hp.build_esp_info(old, new)) == (0, old, new)

    def test_host_id(self):
        for _ in range(ROUNDS):
            hi = RNG.randbytes(RNG.randrange(0, 128))
            di = RNG.randbytes(RNG.randrange(0, 64))
            assert hp.parse_host_id(hp.build_host_id(hi, di)) == (hi, di)

    def test_locator(self):
        for _ in range(ROUNDS):
            # Lifetimes must survive the float32 on the wire exactly.
            addrs = [
                (_v4(RNG), float(RNG.randrange(1, 1 << 16)))
                for _ in range(RNG.randrange(0, 5))
            ]
            assert hp.parse_locator(hp.build_locator(addrs)) == addrs

    def test_seq_ack_transform(self):
        for _ in range(ROUNDS):
            uid = RNG.getrandbits(32)
            assert hp.parse_seq(hp.build_seq(uid)) == uid
            ids = [RNG.getrandbits(32) for _ in range(RNG.randrange(0, 6))]
            assert hp.parse_ack(hp.build_ack(ids)) == ids
            suites = [RNG.getrandbits(16) for _ in range(RNG.randrange(0, 6))]
            assert hp.parse_transform(hp.build_transform(suites)) == suites


# (builder output, parser) pairs used by the truncation sweep below.
_PAIRS = [
    (lambda rng: hp.build_puzzle(1, 2, 3, rng.randbytes(8)), hp.parse_puzzle),
    (lambda rng: hp.build_solution(1, 3, rng.randbytes(8), rng.randbytes(8)), hp.parse_solution),
    (lambda rng: hp.build_dh(5, rng.randbytes(32)), hp.parse_dh),
    (lambda rng: hp.build_esp_info(1, 2), hp.parse_esp_info),
    (lambda rng: hp.build_host_id(rng.randbytes(33), b"host.example"), hp.parse_host_id),
    (lambda rng: hp.build_locator([(_v4(rng), 60.0), (_v4(rng), 7.0)]), hp.parse_locator),
    (lambda rng: hp.build_seq(9), hp.parse_seq),
]


class TestTruncationNeverEscapesStructError:
    @pytest.mark.parametrize("build, parse", _PAIRS, ids=lambda p: getattr(p, "__name__", "build"))
    def test_every_strict_prefix_rejected(self, build, parse):
        sweep_truncations(build(RNG), parse, hp.HipParseError)

    @pytest.mark.parametrize("build, parse", _PAIRS, ids=lambda p: getattr(p, "__name__", "build"))
    def test_corruption_parses_or_raises_parse_error(self, build, parse):
        rng = random.Random(0xC0DE)
        raw = build(rng)
        sweep_byte_flips(raw, parse, hp.HipParseError, rng)
        stomp_fields(raw, parse, hp.HipParseError, rng)

    def test_variable_stride_parsers_reject_ragged_lengths(self):
        full = hp.build_ack([1, 2, 3])
        for cut in range(len(full)):
            if cut % 4:
                with pytest.raises(hp.HipParseError):
                    hp.parse_ack(full[:cut])
            else:
                assert hp.parse_ack(full[:cut]) == [1, 2, 3][: cut // 4]
        full = hp.build_transform([1, 2, 3])
        for cut in range(len(full)):
            if cut % 2:
                with pytest.raises(hp.HipParseError):
                    hp.parse_transform(full[:cut])

    def test_locator_trailing_garbage_rejected(self):
        full = hp.build_locator([(_v4(RNG), 60.0)])
        with pytest.raises(hp.HipParseError):
            hp.parse_locator(full + b"\x00" * 3)

    def test_unknown_family_or_out_of_range_address_rejected(self):
        entry = struct.pack(">HBf", 1, 4, 60.0)
        for bad in (
            lambda: hp.parse_locator(struct.pack(">HBf", 1, 9, 60.0) + bytes(16)),
            lambda: hp.parse_locator(entry + b"\xff" * 16),
        ):
            with pytest.raises(hp.HipParseError, match="bad address"):
                bad()

    def test_dh_inflated_declared_length_rejected(self):
        raw = hp.build_dh(5, b"\x01" * 16)
        inflated = raw[:1] + struct.pack(">H", 200) + raw[3:]
        with pytest.raises(hp.HipParseError):
            hp.parse_dh(inflated)


class TestPacketRoundTrips:
    def _random_packet(self, rng: random.Random) -> hp.HipPacket:
        pkt = hp.HipPacket(
            packet_type=rng.choice(list(hp.PACKET_NAMES)),
            sender_hit=_hit(rng),
            receiver_hit=_hit(rng),
            controls=rng.getrandbits(16),
        )
        codes = rng.sample(
            [hp.ESP_INFO, hp.LOCATOR, hp.PUZZLE, hp.SOLUTION, hp.SEQ,
             hp.DIFFIE_HELLMAN, hp.HOST_ID, hp.HMAC_PARAM, hp.HIP_SIGNATURE],
            k=rng.randrange(0, 6),
        )
        for code in codes:
            pkt.add(code, rng.randbytes(rng.randrange(0, 64)))
        return pkt

    def test_serialize_parse_round_trip(self):
        for _ in range(ROUNDS):
            pkt = self._random_packet(RNG)
            raw = pkt.serialize()
            back = hp.HipPacket.parse(raw)
            assert back == pkt
            assert back.serialize() == raw

    def test_every_truncation_rejected_with_parse_error(self):
        pkt = self._random_packet(random.Random(7))
        while not pkt.params:
            pkt = self._random_packet(random.Random(8))
        sweep_truncations(pkt.serialize(), hp.HipPacket.parse, hp.HipParseError)

    def test_random_byte_flips_never_raise_struct_error(self):
        rng = random.Random(0xF1175)
        raw = self._random_packet(rng).serialize()
        sweep_byte_flips(raw, hp.HipPacket.parse, hp.HipParseError, rng)

    def test_length_field_stomps_never_raise_struct_error(self):
        rng = random.Random(0x57034)
        raw = self._random_packet(rng).serialize()
        stomp_fields(raw, hp.HipPacket.parse, hp.HipParseError, rng)

    def test_oversized_param_rejected_at_serialize(self):
        with pytest.raises(hp.HipParseError):
            hp.Param(hp.PUZZLE, b"\x00" * 65536).serialize()
        with pytest.raises(hp.HipParseError):
            hp.Param(-1, b"").serialize()
