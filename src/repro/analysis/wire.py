"""Runtime wire sanitizer: HIP TLV well-formedness on every sent packet.

Static rules check the code; this tap checks the *bytes*.  Installed into
:data:`repro.net.link.WIRE_TAPS` (opt-in, normally from the pytest fixture
``wire_sanitizer`` that tier-1 smoke runs enable), it observes every packet
entering a link queue and, for HIP control packets (identified by the
``hip_raw`` metadata the daemon attaches), asserts:

* :meth:`~repro.hip.packets.HipPacket.parse` accepts the bytes — the fixed
  40-byte header with the supported version and a length field matching
  the byte count, then ascending, in-bounds, zero-padded TLV parameters;
* the packet type is one the protocol defines, which the parser leaves to
  the daemon;
* ``parse(raw).serialize() == raw`` — the wire image round-trips through
  the parser byte-for-byte, so parser and serializer cannot drift apart.

Violations raise :class:`WireViolation` (an ``AssertionError``) at the send
site, which is the earliest point the malformed bytes exist — the failing
test's traceback names the handler that built the packet.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.hip import packets as hp
from repro.net.link import WIRE_TAPS


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
        """The parser's checks, a known packet type, and the round-trip."""
        try:
            parsed = hp.HipPacket.parse(raw)
        except hp.HipParseError as exc:
            raise WireViolation(
                f"HIP wire sanitizer: parser rejected sent bytes: {exc}"
            ) from exc
        if parsed.packet_type not in hp.PACKET_NAMES:
            self._fail(f"unknown packet type {parsed.packet_type}")
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

    @staticmethod
    def _fail(message: str) -> None:
        raise WireViolation(f"HIP wire sanitizer: {message}")

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
