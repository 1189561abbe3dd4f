"""HIP control-packet wire format (RFC 5201/5202/5203/5206).

Packets serialize to real bytes: a fixed 40-byte header (next-header, length,
type, version, checksum, controls, sender HIT, receiver HIT) followed by TLV
parameters padded to 8-byte boundaries and ordered by ascending type code.

The HMAC covers the packet with parameters up to (excluding) the HMAC
parameter; the signature covers everything up to (excluding) the SIGNATURE
parameter — both with the checksum field zeroed — matching the RFC's
construction so a single bit flip anywhere breaks verification in tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.net.addresses import IPAddress
from repro.net.wire import U16, U32, WireReader

HIP_VERSION = 1

# Packet types (RFC 5201 §5.3).
I1, R1, I2, R2 = 1, 2, 3, 4
UPDATE, NOTIFY, CLOSE, CLOSE_ACK = 16, 17, 18, 19

PACKET_NAMES = {
    I1: "I1", R1: "R1", I2: "I2", R2: "R2",
    UPDATE: "UPDATE", NOTIFY: "NOTIFY", CLOSE: "CLOSE", CLOSE_ACK: "CLOSE_ACK",
}

# Parameter type codes (RFC 5201 §5.2 and extensions).
ESP_INFO = 65
R1_COUNTER = 128
LOCATOR = 193
PUZZLE = 257
SOLUTION = 321
SEQ = 385
ACK = 449
DIFFIE_HELLMAN = 513
HIP_TRANSFORM = 577
HOST_ID = 705
NOTIFICATION = 832
ECHO_REQUEST_SIGNED = 897
ECHO_RESPONSE_SIGNED = 961
HMAC_PARAM = 61505
HIP_SIGNATURE = 61697
ECHO_REQUEST_UNSIGNED = 63661
ECHO_RESPONSE_UNSIGNED = 63425


class HipParseError(Exception):
    """Malformed HIP packet or parameter."""


#: Fixed header: next-header, length, type, version, checksum, controls,
#: sender HIT, receiver HIT.
_HEADER = struct.Struct(">BBBBHH16s16s")
_TLV_HEAD = struct.Struct(">HH")


@dataclass(frozen=True)
class Param:
    """One TLV parameter."""

    code: int
    data: bytes

    def serialize(self) -> bytes:
        if not 0 <= self.code <= 0xFFFF:
            raise HipParseError(f"parameter code {self.code} out of range")
        if len(self.data) > 0xFFFF:
            raise HipParseError(
                f"parameter {self.code} value is {len(self.data)} bytes; "
                "the TLV length field holds at most 65535"
            )
        tlv = struct.pack(">HH", self.code, len(self.data)) + self.data
        pad = (-len(tlv)) % 8
        return tlv + b"\x00" * pad


@dataclass
class HipPacket:
    """A HIP control packet."""

    packet_type: int
    sender_hit: IPAddress
    receiver_hit: IPAddress
    params: list[Param] = field(default_factory=list)
    controls: int = 0

    def add(self, code: int, data: bytes) -> None:
        self.params.append(Param(code, data))
        self.params.sort(key=lambda p: p.code)

    def get(self, code: int) -> bytes | None:
        for p in self.params:
            if p.code == code:
                return p.data
        return None

    def get_all(self, code: int) -> list[bytes]:
        return [p.data for p in self.params if p.code == code]

    @property
    def type_name(self) -> str:
        return PACKET_NAMES.get(self.packet_type, f"type-{self.packet_type}")

    # -- serialization -------------------------------------------------------------
    def _header(self, payload_len: int) -> bytes:
        # next-header = 59 (no next header), length in 8-byte units excluding
        # the first 8 bytes, checksum transmitted as zero in our overlay.
        total = 40 + payload_len
        length_field = (total - 8) // 8
        return (
            struct.pack(
                ">BBBBHH", 59, length_field, self.packet_type, HIP_VERSION << 4 | 1,
                0, self.controls,
            )
            + self.sender_hit.packed()
            + self.receiver_hit.packed()
        )

    def serialize(self) -> bytes:
        body = b"".join(p.serialize() for p in sorted(self.params, key=lambda p: p.code))
        if len(body) % 8:
            raise HipParseError("parameter block not 8-byte aligned")
        return self._header(len(body)) + body

    def bytes_for_param(self, excluded_code: int) -> bytes:
        """Packet bytes covering parameters strictly below ``excluded_code``.

        This is the input to both HMAC (excluded_code=HMAC_PARAM) and the
        signature (excluded_code=HIP_SIGNATURE), per the RFC construction.
        """
        included = [p for p in self.params if p.code < excluded_code]
        body = b"".join(p.serialize() for p in sorted(included, key=lambda p: p.code))
        return self._header(len(body)) + body

    @classmethod
    def parse(cls, data: bytes) -> "HipPacket":
        r = WireReader(data, HipParseError)
        _nxt, length_field, ptype, ver, _csum, controls, sender, receiver = r.read(
            _HEADER, "HIP header"
        )
        if (ver >> 4) != HIP_VERSION:
            raise HipParseError(f"unsupported HIP version {ver >> 4}")
        total = (length_field * 8) + 8
        if total != len(data):
            raise HipParseError(f"length field says {total}, packet has {len(data)} bytes")
        packet = cls(
            packet_type=ptype,
            sender_hit=IPAddress(6, int.from_bytes(sender, "big")),
            receiver_hit=IPAddress(6, int.from_bytes(receiver, "big")),
            controls=controls,
        )
        prev_code = -1
        while r.remaining:
            code, plen = r.read(_TLV_HEAD, "parameter header")
            if code < prev_code:
                raise HipParseError("parameters out of order")
            prev_code = code
            packet.params.append(Param(code, r.take(plen, "parameter value")))
            pad = (-(4 + plen)) % 8
            if pad and any(r.take(pad, "parameter padding")):
                raise HipParseError("non-zero parameter padding")
        return packet


# -- typed parameter builders/parsers ------------------------------------------------

_PUZZLE = struct.Struct(">BBH8s")
_SOLUTION = struct.Struct(">BBH8s8s")
_DH_HEAD = struct.Struct(">BH")
_ESP_INFO = struct.Struct(">HHII")
_HOST_ID_HEAD = struct.Struct(">HH")
_LOCATOR_ENTRY = struct.Struct(">Bf16s")


def _parse_fixed(data: bytes, layout: struct.Struct, what: str) -> tuple:
    """A parameter that is exactly one fixed layout."""
    r = WireReader(data, HipParseError)
    fields = r.read(layout, what)
    r.expect_end(what)
    return fields


def _parse_array(data: bytes, item: str, what: str) -> list[int]:
    """A parameter that is a whole number of ``item``-format integers."""
    r = WireReader(data, HipParseError)
    count = len(data) // struct.calcsize(item)
    values = list(r.read(struct.Struct(f">{count}{item}"), what))
    r.expect_end(what)
    return values


def _address(family: int, packed: bytes, what: str) -> IPAddress:
    """A wire (family, 16-byte value) pair; the family byte is the peer's."""
    try:
        return IPAddress(family, int.from_bytes(packed, "big"))
    except ValueError as exc:
        raise HipParseError(f"bad address in {what}: {exc}") from exc


def build_puzzle(k: int, lifetime_exp: int, opaque: int, i: bytes) -> bytes:
    return struct.pack(">BBH", k, lifetime_exp, opaque) + i


def parse_puzzle(data: bytes) -> tuple[int, int, int, bytes]:
    return _parse_fixed(data, _PUZZLE, "PUZZLE")


def build_solution(k: int, opaque: int, i: bytes, j: bytes) -> bytes:
    return struct.pack(">BBH", k, 0, opaque) + i + j


def parse_solution(data: bytes) -> tuple[int, int, bytes, bytes]:
    k, _res, opaque, i, j = _parse_fixed(data, _SOLUTION, "SOLUTION")
    return k, opaque, i, j


def build_dh(group_id: int, public: bytes) -> bytes:
    return struct.pack(">BH", group_id, len(public)) + public


def parse_dh(data: bytes) -> tuple[int, bytes]:
    r = WireReader(data, HipParseError)
    group_id, length = r.read(_DH_HEAD, "DIFFIE_HELLMAN header")
    public = r.take(length, "DIFFIE_HELLMAN public value")
    r.expect_end("DIFFIE_HELLMAN")
    return group_id, public


def build_esp_info(old_spi: int, new_spi: int) -> bytes:
    return struct.pack(">HHII", 0, 0, old_spi, new_spi)  # KEYMAT index 0: no rekeying


def parse_esp_info(data: bytes) -> tuple[int, int, int]:
    _res, keymat_index, old_spi, new_spi = _parse_fixed(data, _ESP_INFO, "ESP_INFO")
    return keymat_index, old_spi, new_spi


def build_host_id(public_key_bytes: bytes, domain_id: bytes = b"") -> bytes:
    return (
        struct.pack(">HH", len(public_key_bytes), len(domain_id))
        + public_key_bytes
        + domain_id
    )


def parse_host_id(data: bytes) -> tuple[bytes, bytes]:
    r = WireReader(data, HipParseError)
    hi_len, di_len = r.read(_HOST_ID_HEAD, "HOST_ID header")
    host_id = r.take(hi_len, "HOST_ID host identity")
    domain_id = r.take(di_len, "HOST_ID domain identifier")
    r.expect_end("HOST_ID")
    return host_id, domain_id


def build_locator(addrs: list[tuple[IPAddress, float]]) -> bytes:
    """LOCATOR: list of (address, preferred-lifetime)."""
    out = struct.pack(">H", len(addrs))
    for addr, lifetime in addrs:
        out += struct.pack(">Bf", addr.family, lifetime)
        out += addr.value.to_bytes(16, "big")  # v4 stored v4-mapped style
    return out


def parse_locator(data: bytes) -> list[tuple[IPAddress, float]]:
    r = WireReader(data, HipParseError)
    (count,) = r.read(U16, "LOCATOR count")
    out = []
    for _ in range(count):
        family, lifetime, packed = r.read(_LOCATOR_ENTRY, "LOCATOR entry")
        out.append((_address(family, packed, "LOCATOR"), lifetime))
    r.expect_end(f"the {count} declared LOCATOR entries")
    return out


def build_seq(update_id: int) -> bytes:
    return struct.pack(">I", update_id)


def parse_seq(data: bytes) -> int:
    return _parse_fixed(data, U32, "SEQ")[0]


def build_ack(update_ids: list[int]) -> bytes:
    return struct.pack(f">{len(update_ids)}I", *update_ids)


def parse_ack(data: bytes) -> list[int]:
    return _parse_array(data, "I", "ACK")


def build_transform(suite_ids: list[int]) -> bytes:
    return struct.pack(f">{len(suite_ids)}H", *suite_ids)


def parse_transform(data: bytes) -> list[int]:
    return _parse_array(data, "H", "transform")


# ESP transform suite ids (RFC 5202 §5.1.2).
SUITE_AES_CBC_HMAC_SHA1 = 1
SUITE_NULL_HMAC_SHA1 = 2
