"""Packet model: a stack of typed headers over a payload.

Headers, payload wrappers and packets are immutable
:class:`~repro.net.wire.WireValue` tuples; a packet's wire size is the sum
of its headers' ``header_len`` plus the payload size.  Payloads are either
real ``bytes`` (used for control traffic and all unit tests) or a
:class:`VirtualPayload` — a declared length without materialized bytes — so
bulk-transfer experiments (iperf, HTTP bodies) don't burn host memory while
still paying correct serialization, encryption and queueing costs.
"""

from __future__ import annotations

from typing import Union

from repro.net.addresses import IPAddress
from repro.net.wire import WireValue


class VirtualPayload(WireValue):
    """A payload of declared size whose bytes are never materialized."""

    __slots__ = ()
    size: int
    tag: str  # optional marker for debugging/assertions

    def __new__(cls, size: int, tag: str = "") -> "VirtualPayload":
        if size < 0:
            raise ValueError("negative payload size")
        return tuple.__new__(cls, (size, tag))

    def __len__(self) -> int:
        return self.size


# A payload is anything with a length: real bytes, a declared-size virtual
# payload, a tunneled Packet, or protocol wrappers (e.g. ESP ciphertext).
Payload = Union[bytes, VirtualPayload, "Packet"]


class Header(WireValue):
    """Base class for protocol headers; each has a ``header_len`` property."""

    __slots__ = ()


class IPHeader(Header):
    """IPv4 or IPv6 header (family follows the addresses)."""

    __slots__ = ()
    src: IPAddress
    dst: IPAddress
    proto: str  # "tcp" | "udp" | "icmp" | "esp" | "hip"
    ttl: int

    def __new__(cls, src: IPAddress, dst: IPAddress, proto: str, ttl: int = 64) -> "IPHeader":
        if src.family != dst.family:
            raise ValueError("IP src/dst family mismatch")
        return tuple.__new__(cls, (src, dst, proto, ttl))

    @property
    def family(self) -> int:
        return self.src.family

    @property
    def header_len(self) -> int:
        return 20 if self.src.family == 4 else 40


class UDPHeader(Header):
    __slots__ = ()
    src_port: int
    dst_port: int

    @property
    def header_len(self) -> int:
        return 8


class TCPHeader(Header):
    __slots__ = ()
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: frozenset[str] = frozenset()  # subset of {"SYN","ACK","FIN","RST","ECE","CWR"}
    window: int = 65535
    #: RFC 2018 SACK option: ``((start, end), ...)`` half-open received
    #: ranges above the cumulative ACK.  Empty for in-order traffic, so the
    #: common-case wire size is unchanged.
    sack: tuple = ()

    @property
    def header_len(self) -> int:
        if not self.sack:
            return 20
        # SACK option: kind(1) + length(1) + 8 bytes per block, padded to a
        # 4-byte boundary as TCP options are on the wire.
        opt = 2 + 8 * len(self.sack)
        return 20 + (opt + 3) // 4 * 4

    def has(self, flag: str) -> bool:
        return flag in self.flags


class ICMPHeader(Header):
    __slots__ = ()
    kind: str  # "echo-request" | "echo-reply"
    ident: int
    seq: int

    @property
    def header_len(self) -> int:
        return 8


class ESPHeader(Header):
    """ESP header+trailer accounting (SPI, sequence, IV, pad, ICV)."""

    __slots__ = ()
    spi: int
    seq: int
    iv_len: int = 16
    icv_len: int = 12  # HMAC-SHA1-96
    pad_len: int = 0

    @property
    def header_len(self) -> int:
        # SPI(4) + seq(4) + IV + pad + pad-len(1) + next-header(1) + ICV
        return 4 + 4 + self.iv_len + self.pad_len + 2 + self.icv_len


class HIPHeader(Header):
    """HIP control-packet header marker; the payload is the serialized packet."""

    __slots__ = ()
    packet_type: str  # "I1" | "R1" | "I2" | "R2" | "UPDATE" | "CLOSE" | ...

    @property
    def header_len(self) -> int:
        return 40  # fixed HIP header: nexthdr..checksum + sender/receiver HITs


class Packet(WireValue):
    """An immutable packet: header stack (outermost first) + payload.

    ``meta`` carries simulation-only annotations (timestamps, flow ids) that
    do not contribute to the wire size, nor to ``==`` and ``hash``.
    """

    __slots__ = ()
    headers: tuple[Header, ...]
    payload: Payload
    meta: dict

    def __new__(
        cls, headers: tuple[Header, ...], payload: Payload = b"", meta: dict | None = None
    ) -> "Packet":
        return tuple.__new__(cls, (headers, payload, {} if meta is None else meta))

    def __eq__(self, other: object) -> bool:
        return self.__class__ is other.__class__ and self[:2] == other[:2]  # type: ignore[index]

    def __hash__(self) -> int:
        return hash(self[:2])

    @property
    def size_bytes(self) -> int:
        size = len(self.payload)
        for header in self.headers:
            size += header.header_len
        return size

    @property
    def outer(self) -> Header:
        if not self.headers:
            raise ValueError("packet has no headers")
        return self.headers[0]

    def find(self, header_type: type) -> Header | None:
        """First header of the given type, outermost first."""
        for h in self.headers:
            if isinstance(h, header_type):
                return h
        return None

    def pushed(self, header: Header) -> "Packet":
        """New packet with ``header`` prepended (encapsulation)."""
        return Packet((header,) + self.headers, self.payload, self.meta)

    def popped(self) -> tuple[Header, "Packet"]:
        """Remove the outermost header; returns (header, inner packet)."""
        if not self.headers:
            raise ValueError("cannot pop from header-less packet")
        return self.headers[0], Packet(self.headers[1:], self.payload, self.meta)

    def with_meta(self, **kv) -> "Packet":
        merged = dict(self.meta)
        merged.update(kv)
        return Packet(self.headers, self.payload, merged)

    def __len__(self) -> int:
        """Packets can be payloads of other packets (tunneling: ESP, Teredo)."""
        return self.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "/".join(type(h).__name__.replace("Header", "") for h in self.headers)
        return f"<Packet {names} {self.size_bytes}B>"
