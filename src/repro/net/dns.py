"""DNS with HIP resource records (RFC 5205).

A :class:`DnsServer` owns a zone of A / AAAA / HIP records and answers UDP
queries on port 53; :class:`DnsResolver` is the client side.  HIP records
carry the Host Identity Tag, the full Host Identifier (public key) and
optional rendezvous server names, exactly the data the paper's DNS-proxy
deployment relies on.

Messages are encoded as a compact length-prefixed binary format — simpler
than RFC 1035 compression but byte-serialized and size-realistic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.net.addresses import IPAddress
from repro.net.udp import UdpSocket, UdpStack
from repro.net.wire import U8, U16, WireReader

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

DNS_PORT = 53


class DnsDecodeError(ValueError):
    """Malformed DNS wire message (truncated, oversized field, bad UTF-8)."""


_F32 = struct.Struct(">f")
_QUERY_HEAD = struct.Struct(">HB")
_RESPONSE_HEAD = struct.Struct(">HBH")


@dataclass(frozen=True)
class DnsRecord:
    """One resource record."""

    name: str
    rtype: str  # "A" | "AAAA" | "HIP"
    ttl: float = 300.0
    address: IPAddress | None = None  # A / AAAA
    hit: IPAddress | None = None  # HIP
    host_id: bytes = b""  # HIP: serialized public key
    rvs: tuple[str, ...] = ()  # HIP: rendezvous server names

    def __post_init__(self) -> None:
        if self.rtype in ("A", "AAAA"):
            if self.address is None:
                raise ValueError(f"{self.rtype} record requires an address")
            expect = 4 if self.rtype == "A" else 6
            if self.address.family != expect:
                raise ValueError(f"{self.rtype} record has family-{self.address.family} address")
        elif self.rtype == "HIP":
            if self.hit is None or self.hit.family != 6:
                raise ValueError("HIP record requires an IPv6 HIT")
        else:
            raise ValueError(f"unsupported record type {self.rtype!r}")


def _pack_str(s: str) -> bytes:
    data = s.encode("utf-8")
    return struct.pack(">H", len(data)) + data


def _unpack_str(r: WireReader, what: str) -> str:
    (n,) = r.read(U16, f"{what} length")
    try:
        return r.take(n, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DnsDecodeError(f"{what} is not valid UTF-8: {exc}") from exc


def encode_query(qname: str, qtype: str, qid: int) -> bytes:
    return struct.pack(">HB", qid, 0) + _pack_str(qname) + _pack_str(qtype)


def decode_query(data: bytes) -> tuple[int, str, str]:
    r = WireReader(data, DnsDecodeError)
    qid, kind = r.read(_QUERY_HEAD, "query header")
    if kind != 0:
        raise DnsDecodeError("not a query")
    qname = _unpack_str(r, "query name")
    qtype = _unpack_str(r, "query type")
    return qid, qname, qtype


def encode_response(qid: int, records: list[DnsRecord]) -> bytes:
    out = struct.pack(">HBH", qid, 1, len(records))
    for r in records:
        out += _pack_str(r.name) + _pack_str(r.rtype) + struct.pack(">f", r.ttl)
        if r.rtype in ("A", "AAAA"):
            assert r.address is not None
            out += struct.pack(">B", r.address.family) + r.address.packed()
        else:
            assert r.hit is not None
            out += r.hit.packed()
            out += struct.pack(">H", len(r.host_id)) + r.host_id
            out += struct.pack(">B", len(r.rvs))
            for name in r.rvs:
                out += _pack_str(name)
    return out


def decode_response(data: bytes) -> tuple[int, list[DnsRecord]]:
    r = WireReader(data, DnsDecodeError)
    qid, kind, count = r.read(_RESPONSE_HEAD, "response header")
    if kind != 1:
        raise DnsDecodeError("not a response")
    records: list[DnsRecord] = []
    for _ in range(count):
        name = _unpack_str(r, "record name")
        rtype = _unpack_str(r, "record type")
        (ttl,) = r.read(_F32, "TTL")
        if rtype in ("A", "AAAA"):
            (family,) = r.read(U8, "address family")
            expect = 4 if rtype == "A" else 6
            if family != expect:
                raise DnsDecodeError(f"family-{family} address in {rtype} record")
            packed = r.take(4 if family == 4 else 16, "address")
            addr = IPAddress(family, int.from_bytes(packed, "big"))
            records.append(DnsRecord(name=name, rtype=rtype, ttl=ttl, address=addr))
        elif rtype == "HIP":
            hit = IPAddress(6, int.from_bytes(r.take(16, "HIT"), "big"))
            (hid_len,) = r.read(U16, "host identifier length")
            host_id = r.take(hid_len, "host identifier")
            (n_rvs,) = r.read(U8, "rendezvous count")
            # Each rendezvous name costs at least its 2-byte length prefix;
            # reject counts the remaining bytes cannot possibly satisfy.
            if 2 * n_rvs > r.remaining:
                raise DnsDecodeError("rendezvous list runs past end of message")
            rvs = tuple(_unpack_str(r, "rendezvous name") for _ in range(n_rvs))
            records.append(
                DnsRecord(name=name, rtype=rtype, ttl=ttl, hit=hit,
                          host_id=host_id, rvs=rvs)
            )
        else:
            raise DnsDecodeError(f"bad record type {rtype!r} in response")
    return qid, records


@dataclass
class Zone:
    """A mutable set of records, indexed by (name, type)."""

    records: dict[tuple[str, str], list[DnsRecord]] = field(default_factory=dict)

    def add(self, record: DnsRecord) -> None:
        self.records.setdefault((record.name, record.rtype), []).append(record)

    def remove(self, name: str, rtype: str) -> None:
        self.records.pop((name, rtype), None)

    def lookup(self, name: str, rtype: str) -> list[DnsRecord]:
        return list(self.records.get((name, rtype), ()))


class DnsServer:
    """Authoritative server bound to a node's UDP port 53."""

    #: CPU seconds to answer one query: lookup + response build.
    answer_cost = 20e-6

    def __init__(self, node: "Node", udp: UdpStack, zone: Zone | None = None) -> None:
        self.node = node
        self.zone = zone or Zone()
        self.queries_served = 0
        self._sock = udp.bind(DNS_PORT)
        node.sim.process(self._serve(), name=f"dns-server-{node.name}")

    def _serve(self) -> Generator:
        while True:
            data, (src, src_port) = yield self._sock.recvfrom()
            try:
                qid, qname, qtype = decode_query(bytes(data))
            except DnsDecodeError:
                continue
            yield from self.node.cpu_work(self.answer_cost)
            answers = self.zone.lookup(qname, qtype)
            self.queries_served += 1
            self._sock.sendto(self._encode(qid, answers), src, src_port)

    def _encode(self, qid: int, answers: list[DnsRecord]) -> bytes:
        return encode_response(qid, answers)


class DnsResolver:
    """Stub resolver with a positive cache honouring record TTLs."""

    def __init__(self, node: "Node", udp: UdpStack, server_addr: IPAddress) -> None:
        self.node = node
        self.udp = udp
        self.server_addr = server_addr
        self._next_id = 1
        self._cache: dict[tuple[str, str], tuple[float, list[DnsRecord]]] = {}

    def query(self, qname: str, qtype: str, timeout: float = 2.0, retries: int = 2) -> Generator:
        """Process-generator: resolve; returns list of records (may be empty).

        Raises TimeoutError when the server never answers.
        """
        sim = self.node.sim
        cached = self._cache.get((qname, qtype))
        if cached is not None:
            expires, records = cached
            if sim.now < expires:
                return records
            del self._cache[(qname, qtype)]
        sock = self.udp.bind(0)
        try:
            for _attempt in range(retries + 1):
                qid = self._next_id
                self._next_id += 1
                sock.sendto(encode_query(qname, qtype, qid), self.server_addr, DNS_PORT)
                from repro.sim.events import AnyOf

                reply = sock.recvfrom()
                deadline = sim.timeout(timeout)
                winner, value = yield AnyOf(sim, [reply, deadline])
                if winner is reply:
                    data = bytes(value[0])
                    try:
                        rid, records = decode_response(data)
                    except DnsDecodeError:
                        continue  # hostile or corrupt response: retry
                    if rid != qid:
                        continue  # stale response; retry
                    self._check(data, qid, records)
                    if records:
                        ttl = min(r.ttl for r in records)
                        self._cache[(qname, qtype)] = (sim.now + ttl, records)
                    return records
            raise TimeoutError(f"DNS query {qname}/{qtype} timed out")
        finally:
            sock.close()

    def _check(self, data: bytes, qid: int, records: list[DnsRecord]) -> None:
        """Accept the answer ``data`` to query ``qid``, decoded to
        ``records``, or raise."""
