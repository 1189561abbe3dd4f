"""The per-packet IP path of ``Node``.

A sender keeps one ``IPHeader`` object per flow (``(src, dst, proto, ttl)``,
at most ``HEADER_CACHE_SIZE`` of them, oldest evicted first), so a HIP host
that alternates inner and outer sends builds each header once and every
forwarding cache downstream finds it by identity.  A forwarder forwards
inside ``Node._on_receive``: its ``forward_filters`` first, in registration
order, then the TTL check, the forwarding cache and the egress link.  On
the ESP transmit path the HIT the shim hands the lane is the object that
keys the daemon's associations, so a steady transfer compares no wire
value through the Python ``__eq__``.
"""

import collections

import pytest

from repro.net.addresses import ipv4, prefix
from repro.net.node import HEADER_CACHE_SIZE, Node
from repro.net.packet import IPHeader, Packet, UDPHeader
from repro.net.tcp import TcpStack
from repro.net.topology import wire
from repro.net.wire import WireValue


@pytest.fixture
def built(monkeypatch):
    """The fields of every ``IPHeader`` built through its class, in order."""
    seen = []
    original = IPHeader.__new__

    def counting(cls, src, dst, proto, ttl=64):
        seen.append((src, dst, proto, ttl))
        return original(cls, src, dst, proto, ttl)

    monkeypatch.setattr(IPHeader, "__new__", staticmethod(counting))
    return seen


def _lsi_transfer(sim, a, b, dst, rounds):
    """Open a TCP connection from ``a`` to ``dst`` on ``b`` and move 20 kB
    per round; ``rounds`` is a list of callables, one run before each."""
    ta, tb = TcpStack(a), TcpStack(b)
    listener = tb.listen(80)
    got, conn = [], {}

    def server():
        peer = yield listener.accept()
        for _ in rounds:
            got.append((yield from peer.recv_bytes(20_000)))

    def client():
        conn["c"] = yield from ta.open_connection(dst, 80)

    sim.process(server())
    sim.process(client())
    sim.run(until=5)
    for i, before in enumerate(rounds):
        before()
        conn["c"].write(bytes([i]) * 20_000)
        sim.run(until=sim.now + 5)
    assert got == [bytes([i]) * 20_000 for i in range(len(rounds))]


def test_hip_host_builds_each_distinct_header_once(sim, hip_pair, built):
    """Inner TCP headers (to the LSI) and outer ESP headers (to the locator)
    alternate on both hosts; each distinct header is still built once: every
    build is one a sender's header cache or a receiver's rebuilt inner
    header (``Association.rx_headers``) still holds."""
    _, a, b, da, db = hip_pair
    _lsi_transfer(sim, a, b, da.lsi_for_peer(db.hit), [lambda: None] * 2)
    held = [*a._ip_hdrs.values(), *b._ip_hdrs.values()] + [
        ip for d in (da, db) for assoc in d.assocs.values() for ip in assoc.rx_headers.values()
    ]
    assert {ip.proto for ip in held} == {"tcp", "esp", "hip"}
    assert len(built) == len(held)


def test_steady_lsi_transfer_calls_no_python_eq(sim, hip_pair, monkeypatch):
    """Once the association and the connection are up, neither host's send
    path nor the receive path compares a wire value through ``__eq__``."""
    _, a, b, da, db = hip_pair
    calls = []
    original = WireValue.__eq__

    def counting(self, other):
        calls.append(type(self).__name__)
        return original(self, other)

    def watch():
        monkeypatch.setattr(WireValue, "__eq__", counting)

    _lsi_transfer(sim, a, b, da.lsi_for_peer(db.hit), [lambda: None, watch])
    assert da.data_packets_sent and db.data_packets_sent
    assert calls == []


def test_header_cache_is_bounded_and_evicts_oldest_first(sim, lan, built):
    _, a, _b = lan
    dsts = [ipv4(f"10.0.0.{host}") for host in range(10, 10 + HEADER_CACHE_SIZE + 1)]
    for dst in dsts:
        a.send_ip_fast(dst, "udp", (UDPHeader(1, 2),), b"")
        assert len(a._ip_hdrs) <= HEADER_CACHE_SIZE
    assert len(a._ip_hdrs) == HEADER_CACHE_SIZE
    assert [key[1] for key in a._ip_hdrs] == dsts[1:]  # the first went first
    a.send_ip_fast(dsts[-1], "udp", (UDPHeader(1, 2),), b"")  # cached: not rebuilt
    a.send_ip_fast(dsts[0], "udp", (UDPHeader(1, 2),), b"")  # evicted: rebuilt
    assert [fields[1] for fields in built] == dsts + [dsts[0]]


@pytest.fixture
def routed(sim):
    """a -- router -- b; b counts what reaches it."""
    a = Node(sim, "a")
    router = Node(sim, "router", forwarding=True)
    b = Node(sim, "b")
    ia, ra, _ = wire(sim, a, router, addr_a=ipv4("10.0.1.1"))
    rb, ib, _ = wire(sim, router, b, addr_b=ipv4("10.0.2.1"))
    a.routes.add(prefix("0.0.0.0/0"), ia)
    router.routes.add(prefix("10.0.1.0/24"), ra)
    router.routes.add(prefix("10.0.2.0/24"), rb)
    b.routes.add(prefix("0.0.0.0/0"), ib)
    got = []
    b.register_protocol("udp", lambda n, p, i: got.append(p))
    return a, router, got


def _send(sim, a, dst="10.0.2.1", ttl=64, port=6):
    a.send_ip(ipv4(dst), "udp", Packet((UDPHeader(src_port=5, dst_port=port),)), ttl=ttl)
    sim.run()


def test_forward_filters_run_in_order_before_the_ttl_check(sim, routed):
    a, router, got = routed
    calls = []
    refused = collections.Counter()

    def first(packet):
        calls.append(("first", packet.outer.ttl))
        return True

    def second(packet):
        calls.append(("second", packet.outer.ttl))
        if packet.headers[1].dst_port == 7:
            refused["port 7"] += 1
            return False
        return True

    router.forward_filters += [first, second]
    _send(sim, a, ttl=1)  # both filters see it, then the TTL check drops it
    assert calls == [("first", 1), ("second", 1)]
    assert router.dropped_ttl == 1
    _send(sim, a, ttl=1, port=7)  # refused before the TTL check
    assert router.dropped_ttl == 1 and refused["port 7"] == 1
    _send(sim, a, port=7)
    _send(sim, a)
    assert [p.headers[1].dst_port for p in got] == [6]
    assert refused["port 7"] == 2
    assert (router.dropped_no_route, router.dropped_no_handler) == (0, 0)
    assert len(calls) == 8


def test_false_from_the_first_filter_skips_the_rest(sim, routed):
    a, router, got = routed
    later = []
    router.forward_filters += [lambda p: False, lambda p: later.append(p) or True]
    _send(sim, a)
    assert got == [] and later == []


def test_forward_drops_still_counted(sim, routed):
    """TTL expiry and a destination with no route both end at the router in
    its own counters; neither reaches b."""
    a, router, got = routed
    _send(sim, a, ttl=1)
    _send(sim, a, dst="10.0.3.1")
    _send(sim, a, dst="10.0.3.1")  # the miss is not cached
    assert (router.dropped_ttl, router.dropped_no_route) == (1, 2)
    assert got == []
    _send(sim, a)
    assert len(got) == 1 and got[0].outer.ttl == 63
