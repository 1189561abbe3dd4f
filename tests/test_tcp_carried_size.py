"""The wire size TCP hands the link.

``TcpConnection._send_segment`` knows the IP header length, the TCP header
length (SACK option padding included) and the payload length, so it passes
their sum through ``Node.send_ip_fast`` and ``Node._route_out`` to
``Serializer.send`` instead of having the link measure the packet again.
Every kind of segment must arrive there with exactly ``packet.size_bytes``.
A packet an output shim substitutes arrives with size 0, so the link
measures what really leaves.  The HIP daemon's ESP packets carry the size
it works out from the inner packet's, for either locator family.
"""

import random

import pytest

from repro.hip.daemon import HipDaemon
from repro.net.addresses import ipv6, prefix
from repro.net.link import Serializer
from repro.net.node import Node
from repro.net.packet import TCPHeader
from repro.net.tcp import TcpStack
from repro.net.topology import wire


@pytest.fixture
def sends(monkeypatch):
    """Every ``(packet, size)`` any serializer is handed, in order."""
    seen = []
    original = Serializer.send

    def spy(self, packet, size=0):
        seen.append((packet, size))
        return original(self, packet, size)

    monkeypatch.setattr(Serializer, "send", spy)
    return seen


def _tcp_sends(sends):
    return [
        (packet, size) for packet, size in sends
        if len(packet.headers) > 1 and isinstance(packet.headers[1], TCPHeader)
    ]


def _kind(packet) -> str:
    flags = packet.headers[1].flags
    if "RST" in flags or "FIN" in flags:
        return "RST" if "RST" in flags else "FIN"
    if "SYN" in flags:
        return "SYN-ACK" if "ACK" in flags else "SYN"
    return "data" if len(packet.payload) else "ACK"


def _lifecycle(sim, a, b, dst, nbytes=5000):
    """Handshake, ``nbytes`` one way, FIN both ways."""
    ta, tb = TcpStack(a), TcpStack(b)
    listener = tb.listen(80)

    def server():
        conn = yield listener.accept()
        yield from conn.recv_bytes(nbytes)
        conn.close()

    def client():
        conn = yield from ta.open_connection(dst, 80)
        conn.write(b"x" * nbytes)
        conn.close()
        yield conn.closed

    sim.process(server())
    sim.run(until=sim.process(client()))


def _check_every_kind(sends):
    kinds = set()
    for packet, size in _tcp_sends(sends):
        assert size == packet.size_bytes, (packet, size)
        kinds.add(_kind(packet))
    assert kinds == {"SYN", "SYN-ACK", "data", "ACK", "FIN"}


def test_every_segment_kind_carries_its_wire_size(sim, lan, sends):
    _, a, b = lan
    _lifecycle(sim, a, b, b.addresses()[0])
    _check_every_kind(sends)


def test_ipv6_segments_count_the_longer_ip_header(sim, sends):
    a, b = Node(sim, "a"), Node(sim, "b")
    ia, ib, _ = wire(sim, a, b, addr_a=ipv6("2001:db8::1"), addr_b=ipv6("2001:db8::2"))
    a.routes.add(prefix("2001:db8::/64"), ia)
    b.routes.add(prefix("2001:db8::/64"), ib)
    _lifecycle(sim, a, b, ipv6("2001:db8::2"))
    _check_every_kind(sends)
    assert all(p.headers[0].header_len == 40 for p, _ in _tcp_sends(sends))


def _established(sim, a, b):
    ta, tb = TcpStack(a), TcpStack(b)
    listener = tb.listen(80)
    conn = ta.connect(b.addresses()[0], 80)
    sim.run(until=0.01)
    ok, server = listener.backlog.try_get()
    assert ok and conn.state == server.state == "ESTABLISHED"
    return conn, server


def test_rst_carries_its_wire_size(sim, lan, sends):
    _, a, b = lan
    conn, _ = _established(sim, a, b)
    before = len(sends)
    conn.abort()
    sim.run(until=sim.now + 0.01)
    (packet, size), = _tcp_sends(sends[before:])
    assert _kind(packet) == "RST" and size == packet.size_bytes


def test_sack_blocks_count_their_padded_option(sim, lan, sends):
    """Out-of-order arrivals make the receiver ACK with 1, 2, then 3 SACK
    blocks (and 3 again: the cap); each option is padded to 4 bytes."""
    _, a, b = lan
    _, server = _established(sim, a, b)
    before = len(sends)
    base = server.rcv_nxt
    for i in range(1, 5):
        hdr = TCPHeader(src_port=server.remote_port, dst_port=server.local_port,
                        seq=base + 200 * i, ack=server.snd_nxt,
                        flags=frozenset({"ACK"}))
        server._on_segment(hdr, b"y" * 100)
    sim.run(until=sim.now + 0.01)
    acks = _tcp_sends(sends[before:])
    assert [len(p.headers[1].sack) for p, _ in acks] == [1, 2, 3, 3]
    assert [p.headers[1].header_len for p, _ in acks] == [32, 40, 48, 48]
    for packet, size in acks:
        assert size == packet.size_bytes


def _hip_transfer(sim, a, b, dst):
    ta, tb = TcpStack(a), TcpStack(b)
    listener = tb.listen(80)
    got = []

    def server():
        conn = yield listener.accept()
        got.append((yield from conn.recv_bytes(3000)))

    def client():
        conn = yield from ta.open_connection(dst, 80)
        conn.write(b"x" * 3000)

    sim.process(server())
    sim.process(client())
    sim.run(until=30)
    assert got == [b"x" * 3000]


def _esp_sends(sends):
    return [(p, size) for p, size in sends if p.headers[0].proto == "esp"]


@pytest.mark.parametrize("via", ["hit", "lsi"])
def test_hip_esp_packets_carry_their_wire_size(sim, hip_pair, sends, via):
    """TCP to a HIT or an LSI is consumed by the HIP shim; what reaches the
    link is ESP, sent with the size the daemon worked out from the inner
    packet's (or HIP control, measured at the link)."""
    _, a, b, da, db = hip_pair
    _hip_transfer(sim, a, b, db.hit if via == "hit" else da.lsi_for_peer(db.hit))
    assert not _tcp_sends(sends)  # no plaintext segment on any link
    esp = _esp_sends(sends)
    assert esp and all(size == p.size_bytes for p, size in esp)
    assert {p.headers[0].header_len for p, _ in esp} == {20}


def test_esp_over_ipv6_locators_counts_the_longer_outer_header(sim, sends, session_identities):
    a, b = Node(sim, "a"), Node(sim, "b")
    ia, ib, _ = wire(sim, a, b, addr_a=ipv6("2001:db8::1"), addr_b=ipv6("2001:db8::2"))
    a.routes.add(prefix("2001:db8::/64"), ia)
    b.routes.add(prefix("2001:db8::/64"), ib)
    da = HipDaemon(a, session_identities["a"], rng=random.Random(11))
    db = HipDaemon(b, session_identities["b"], rng=random.Random(22))
    da.add_peer(db.hit, [ipv6("2001:db8::2")])
    db.add_peer(da.hit, [ipv6("2001:db8::1")])
    _hip_transfer(sim, a, b, db.hit)
    esp = _esp_sends(sends)
    assert esp and all(size == p.size_bytes for p, size in esp)
    assert {p.headers[0].header_len for p, _ in esp} == {40}


def test_shim_substitute_drops_the_carried_size(sim, lan, sends):
    """A pass-through shim keeps TCP's size; a shim that returns another
    packet resets it to 0, and the link books the substitute's real size."""
    _, a, b = lan

    def pad_data(node, packet):
        if len(packet.headers) > 1 and isinstance(packet.payload, bytes) and packet.payload:
            return packet._replace(payload=packet.payload + b"pad")
        return packet

    a.add_output_shim(pad_data)
    conn, _ = _established(sim, a, b)
    conn.write(b"x" * 300)
    sim.run(until=sim.now + 0.1)
    out = [(p, size) for p, size in sends if p.headers[0].src == conn.local_addr]
    kinds = {_kind(p): (p, size) for p, size in out}
    assert set(kinds) == {"SYN", "ACK", "data"}
    data, data_size = kinds["data"]
    assert data.payload == b"x" * 300 + b"pad" and data_size == 0
    for kind in ("SYN", "ACK"):
        packet, size = kinds[kind]
        assert size == packet.size_bytes
    assert a.interfaces[0]._endpoint.tx_bytes == sum(p.size_bytes for p, _ in out)
