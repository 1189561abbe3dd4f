"""Runtime wire sanitizer: HIP TLV well-formedness on every sent packet.

Static rules check the code; this tap checks the *bytes*.  Installed into
:data:`repro.net.link.WIRE_TAPS` (opt-in, normally from the pytest fixture
``wire_sanitizer`` that tier-1 smoke runs enable), it observes every packet
entering a link queue and, for HIP control packets (identified by the
``hip_raw`` metadata the daemon attaches), asserts:

* the fixed 40-byte header is present, carries the supported version, and
  its length field matches the actual byte count;
* the TLV parameter block is well-formed — ascending type codes, in-bounds
  declared lengths, 8-byte alignment with zero padding;
* ``parse(raw).serialize() == raw`` — the wire image round-trips through
  the parser byte-for-byte, so parser and serializer cannot drift apart.

Violations raise :class:`WireViolation` (an ``AssertionError``) at the send
site, which is the earliest point the malformed bytes exist — the failing
test's traceback names the handler that built the packet.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.hip import packets as hp
from repro.net.link import WIRE_TAPS
from repro.net.wire import WireReader

_HEADER = struct.Struct(">BBBBHH16s16s")  # the fixed 40 bytes
_TLV_HEAD = struct.Struct(">HH")


class WireViolation(AssertionError):
    """A packet on the simulated wire broke the HIP wire-format contract."""


@dataclass
class WireSanitizer:
    """Link-layer tap; callable so it can sit directly in ``WIRE_TAPS``."""

    packets_seen: int = 0
    hip_packets_checked: int = 0
    violations: list[str] = field(default_factory=list)

    def __call__(self, packet) -> None:
        self.packets_seen += 1
        meta = getattr(packet, "meta", None)
        raw = meta.get("hip_raw") if meta else None
        if raw is None:
            return
        self.hip_packets_checked += 1
        try:
            self.check_hip(raw)
        except WireViolation as exc:
            self.violations.append(str(exc))
            raise

    # -- checks --------------------------------------------------------------
    def check_hip(self, raw: bytes) -> None:
        self._check_header(raw)
        self._check_tlvs(raw)
        self._check_roundtrip(raw)

    @staticmethod
    def _fail(message: str) -> None:
        raise WireViolation(f"HIP wire sanitizer: {message}")

    def _check_header(self, raw: bytes) -> None:
        if len(raw) < _HEADER.size:
            self._fail(f"packet is {len(raw)} bytes, below the 40-byte header")
        _nxt, length_field, ptype, ver, _csum, _controls, _src, _dst = WireReader(
            raw, WireViolation
        ).read(_HEADER, "HIP header")
        if (ver >> 4) != hp.HIP_VERSION:
            self._fail(f"version {ver >> 4}, expected {hp.HIP_VERSION}")
        declared = length_field * 8 + 8
        if declared != len(raw):
            self._fail(
                f"header length field declares {declared} bytes, packet has "
                f"{len(raw)}"
            )
        if ptype not in hp.PACKET_NAMES:
            self._fail(f"unknown packet type {ptype}")

    def _check_tlvs(self, raw: bytes) -> None:
        reader = WireReader(raw, WireViolation)
        reader.take(_HEADER.size, "HIP header")
        prev_code = -1
        while reader.remaining:
            code, plen = reader.read(_TLV_HEAD, "parameter header")
            if code < prev_code:
                self._fail(
                    f"parameter {code} follows {prev_code}; type codes must "
                    "ascend"
                )
            prev_code = code
            if plen > reader.remaining:
                self._fail(
                    f"parameter {code} declares {plen} value bytes but only "
                    f"{reader.remaining} remain"
                )
            reader.take(plen, f"parameter {code} value")
            if any(reader.take((-(4 + plen)) % 8, f"parameter {code} padding")):
                self._fail(f"parameter {code} has non-zero padding bytes")

    def _check_roundtrip(self, raw: bytes) -> None:
        try:
            parsed = hp.HipPacket.parse(raw)
        except hp.HipParseError as exc:
            self._fail(f"parser rejected sent bytes: {exc}")
            return  # unreachable; keeps type checkers happy
        again = parsed.serialize()
        if again != raw:
            diff = next(
                (i for i, (a, b) in enumerate(zip(raw, again)) if a != b),
                min(len(raw), len(again)),
            )
            self._fail(
                f"parse/serialize round-trip diverges at byte {diff} "
                f"({len(raw)} sent vs {len(again)} rebuilt)"
            )

    def describe(self) -> str:
        return (
            f"wire sanitizer: {self.hip_packets_checked}/{self.packets_seen} "
            f"HIP packets checked, {len(self.violations)} violation(s)"
        )


@contextmanager
def wire_sanitizer() -> Iterator[WireSanitizer]:
    """Install a :class:`WireSanitizer` tap for the duration of a block."""
    tap = WireSanitizer()
    WIRE_TAPS.append(tap)
    try:
        yield tap
    finally:
        WIRE_TAPS.remove(tap)
