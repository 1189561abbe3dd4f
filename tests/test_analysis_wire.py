"""Runtime wire-sanitizer tests.

Unit tests feed :class:`WireSanitizer` crafted byte strings (one per
contract clause), then the integration tests install the tap on the
simulated link and drive a real base exchange through it — clean traffic
must pass, a corrupted packet must raise at the send site.
"""

from __future__ import annotations

import struct
from types import SimpleNamespace

import pytest

from repro.analysis.wire import WireSanitizer, WireViolation, wire_sanitizer
from repro.hip import packets as hp
from repro.net.addresses import IPAddress
from repro.net.link import WIRE_TAPS

HIT_A = IPAddress(6, 0x2001 << 112 | 0xAAAA)
HIT_B = IPAddress(6, 0x2001 << 112 | 0xBBBB)


def _packet(params: list[hp.Param] | None = None) -> hp.HipPacket:
    pkt = hp.HipPacket(
        packet_type=hp.I2, sender_hit=HIT_A, receiver_hit=HIT_B,
        params=list(params or []),
    )
    return pkt


def _raw(params: list[hp.Param] | None = None) -> bytes:
    return _packet(params).serialize()


def check(raw: bytes) -> None:
    WireSanitizer().check_hip(raw)


class TestHeaderChecks:
    def test_valid_packet_passes(self):
        raw = _raw(
            [
                hp.Param(hp.PUZZLE, hp.build_puzzle(10, 2, 7, b"\x01" * 8)),
                hp.Param(hp.SEQ, hp.build_seq(3)),
            ]
        )
        check(raw)  # no exception

    def test_truncated_header(self):
        with pytest.raises(WireViolation, match="truncated HIP header: need 40 bytes"):
            check(_raw()[:39])

    def test_wrong_version(self):
        raw = bytearray(_raw())
        raw[3] = (9 << 4) | 1
        with pytest.raises(WireViolation, match="version 9"):
            check(bytes(raw))

    def test_length_field_mismatch(self):
        raw = bytearray(_raw())
        raw[1] += 1
        with pytest.raises(WireViolation, match="length field says 48, packet has 40"):
            check(bytes(raw))

    def test_unknown_packet_type(self):
        raw = bytearray(_raw())
        raw[2] = 250
        with pytest.raises(WireViolation, match="unknown packet type"):
            check(bytes(raw))


class TestTlvChecks:
    def test_nonzero_padding(self):
        # A 6-byte value leaves 6 padding bytes after the 4-byte TLV header.
        raw = bytearray(_raw([hp.Param(hp.PUZZLE, b"\x01" * 6)]))
        assert len(raw) == 56
        raw[55] = 0xFF
        with pytest.raises(WireViolation, match="non-zero parameter padding"):
            check(bytes(raw))

    def test_descending_type_codes(self):
        pkt = _packet()
        body = (
            hp.Param(hp.SOLUTION, b"\x02" * 20).serialize()
            + hp.Param(hp.PUZZLE, b"\x01" * 12).serialize()
        )
        raw = pkt._header(len(body)) + body
        with pytest.raises(WireViolation, match="parameters out of order"):
            check(raw)

    def test_overlong_declared_value(self):
        pkt = _packet()
        body = struct.pack(">HH", hp.PUZZLE, 12) + b"\x01" * 4
        raw = pkt._header(len(body)) + body
        with pytest.raises(WireViolation, match="truncated parameter value: need 12 bytes"):
            check(raw)

    def test_roundtrip_reports_parser_rejection(self):
        with pytest.raises(WireViolation, match="parser rejected"):
            check(b"\x00" * 39)


class TestTap:
    def test_ignores_non_hip_packets(self):
        tap = WireSanitizer()
        tap(SimpleNamespace(meta={}))
        assert tap.packets_seen == 1
        assert tap.hip_packets_checked == 0

    def test_checks_and_records_violations(self):
        tap = WireSanitizer()
        good = SimpleNamespace(meta={"hip_raw": _raw()})
        tap(good)
        assert tap.hip_packets_checked == 1
        assert tap.violations == []
        bad = SimpleNamespace(meta={"hip_raw": _raw()[:39]})
        with pytest.raises(WireViolation):
            tap(bad)
        assert len(tap.violations) == 1
        assert "truncated HIP header" in tap.violations[0]
        assert "1 violation" in tap.describe()

    def test_context_manager_installs_and_removes(self):
        before = len(WIRE_TAPS)
        with wire_sanitizer() as tap:
            assert tap in WIRE_TAPS
        assert len(WIRE_TAPS) == before
        assert tap not in WIRE_TAPS


class TestOnTheWire:
    def test_base_exchange_is_wire_clean(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        with wire_sanitizer() as tap:
            assoc = drive(sim, da.associate(db.hit))
        assert assoc.is_established
        # I1, R1, I2, R2 at minimum crossed the link under inspection.
        assert tap.hip_packets_checked >= 4
        assert tap.violations == []

    def test_teardown_is_wire_clean(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        with wire_sanitizer() as tap:
            drive(sim, da.associate(db.hit))
            da.close(db.hit)
            sim.run(until=sim.now + 5)
        assert da.assocs[db.hit].state == "CLOSED"
        assert tap.violations == []
        assert tap.hip_packets_checked >= 6  # BEX + CLOSE/CLOSE_ACK

    def test_corrupted_sender_trips_the_tap(self, hip_pair, drive, monkeypatch):
        """If the daemon ever serialized malformed bytes, the tap must fail
        the test at the send site — prove it by breaking the serializer."""
        sim, a, b, da, db = hip_pair

        real_serialize = hp.Param.serialize

        def bad_serialize(self):
            out = bytearray(real_serialize(self))
            if len(out) > 4 + len(self.data):  # has padding to corrupt
                out[-1] = 0xFF
            return bytes(out)

        monkeypatch.setattr(hp.Param, "serialize", bad_serialize)
        with wire_sanitizer() as tap:
            # The violation fires in whichever sim process sends the first
            # padded parameter; the engine re-raises it directly or wraps
            # it in its unhandled-crash RuntimeError.
            with pytest.raises((WireViolation, RuntimeError)):
                drive(sim, da.associate(db.hit))
        assert tap.violations
        assert "non-zero parameter padding" in tap.violations[0]

    @pytest.mark.smoke
    def test_smoke_marker_installs_tap(self):
        assert any(isinstance(tap, WireSanitizer) for tap in WIRE_TAPS)
