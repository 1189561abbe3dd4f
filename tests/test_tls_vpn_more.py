"""Additional SSL-VPN daemon coverage: failure paths and accounting."""

import random

import pytest

from repro.crypto.rsa import RsaKeyPair
from repro.net.addresses import IPAddress, ipv4
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.tls.vpn import SslVpnDaemon, VPN_SUBNET, VpnError, VpnRecordHeader

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


@pytest.fixture(scope="module")
def keys():
    gen = random.Random(31)
    return RsaKeyPair.generate(512, gen), RsaKeyPair.generate(512, gen)


def vpn_addr(n: int) -> IPAddress:
    return IPAddress(4, VPN_SUBNET.network.value + n)


@pytest.fixture
def vpn_pair(sim, keys):
    key_a, key_b = keys
    a, b = lan_pair(sim, "a", "b")
    va = SslVpnDaemon(a, vpn_addr(10), key_a, rng=random.Random(1))
    vb = SslVpnDaemon(b, vpn_addr(11), key_b, rng=random.Random(2))
    va.add_peer(vpn_addr(11), B, key_b.public)
    vb.add_peer(vpn_addr(10), A, key_a.public)
    return sim, a, b, va, vb


class TestVpnDetails:
    def test_record_header_overhead(self):
        header = VpnRecordHeader(seq=1, pad_len=8)
        # 5 record + 16 IV + 20 MAC + 8 pad + 8 UDP.
        assert header.header_len == 57

    def test_wire_packets_are_vpn_protocol(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        protos = []
        endpoint = a.interface("eth0")._endpoint
        original = endpoint.send

        def spy(packet, size=0):
            protos.append(packet.outer.proto)
            return original(packet, size)

        endpoint.send = spy
        ta, tb = TcpStack(a), TcpStack(b)

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            yield from conn.recv_bytes(3)

        def client():
            conn = yield sim.process(ta.open_connection(vpn_addr(11), 80))
            conn.write(b"abc")

        sim.process(server())
        sim.process(client())
        sim.run(until=30)
        assert set(protos) == {"sslvpn"}

    def test_wrong_server_key_rejected_by_client(self, sim, keys):
        """Client keyed to the wrong public key: server can't decrypt, the
        finished check never passes, the tunnel times out."""
        key_a, key_b = keys
        wrong = RsaKeyPair.generate(512, random.Random(99))
        a, b = lan_pair(sim, "a", "b")
        va = SslVpnDaemon(a, vpn_addr(10), key_a, rng=random.Random(1))
        vb = SslVpnDaemon(b, vpn_addr(11), key_b, rng=random.Random(2))
        va.add_peer(vpn_addr(11), B, wrong.public)  # wrong trust
        vb.add_peer(vpn_addr(10), A, key_a.public)

        def flow():
            with pytest.raises(VpnError):
                yield from va.connect(vpn_addr(11), timeout=10.0)
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True

    def test_tunnel_reused_across_connections(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        ta, tb = TcpStack(a), TcpStack(b)
        done = []

        def server():
            listener = tb.listen(80)
            while True:
                conn = yield listener.accept()
                sim.process(serve_one(conn))

        def serve_one(conn):
            data = yield from conn.recv_bytes(2)
            done.append(bytes(data))

        def client():
            for i in range(3):
                conn = yield sim.process(ta.open_connection(vpn_addr(11), 80))
                conn.write(b"%02d" % i)
                conn.close()
                yield sim.timeout(0.2)

        sim.process(server())
        sim.process(client())
        sim.run(until=30)
        assert sorted(done) == [b"00", b"01", b"02"]
        assert va.meter.ops.get("vpn.asym.encrypt") == 1  # one handshake total

    def test_bidirectional_counters(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        from repro.net.icmp import IcmpStack, ping

        icmp_a, _ = IcmpStack(a), IcmpStack(b)
        proc = sim.process(ping(icmp_a, vpn_addr(11), count=4, timeout=10.0))
        sim.run(until=proc)
        assert va.packets_sent >= 4
        assert va.packets_received >= 4
        assert vb.packets_sent >= 4
        assert vb.packets_received >= 4

    def test_queue_limit_bounds_pending_packets(self, sim, keys):
        key_a, key_b = keys
        a, b = lan_pair(sim, "a", "b")
        va = SslVpnDaemon(a, vpn_addr(10), key_a, rng=random.Random(1),
                          queue_limit=4)
        # Peer never configured: handshake can't start, packets queue.
        from repro.net.packet import Packet, UDPHeader

        for i in range(10):
            a.send_ip(vpn_addr(11), "udp",
                      Packet(headers=(UDPHeader(src_port=1, dst_port=2),)))
        sim.run(until=1)
        tunnel = va.tunnels.get(vpn_addr(11))
        assert tunnel is not None
        assert len(tunnel.queued) <= 4

    @pytest.mark.parametrize("body", [b"\x00", bytes(32), bytes(32 + 63), bytes(32 + 65)],
                             ids=["1-byte", "random-only", "short-ct", "long-ct"])
    def test_key_body_of_wrong_size_dropped_before_rsa_is_charged(self, vpn_pair, body):
        """An off-path sender must not buy a private-key operation with a
        body that cannot be a premaster under the server's 512-bit key."""
        from repro.net.packet import Packet

        sim, a, b, va, vb = vpn_pair
        ctl = Packet(headers=(), payload=body).with_meta(vpn_ctl="key")
        a.send_ip(B, "sslvpn", ctl)
        sim.run(until=1)
        assert vb.drops == 1
        assert "vpn.asym.decrypt" not in vb.meter.ops
        assert vpn_addr(10) not in vb.tunnels


def test_record_claiming_a_peers_vpn_address_from_another_host_is_dropped(vpn_pair):
    """A co-tenant's well-formed record whose meta names an established
    peer's VPN address is not that peer's traffic: the tunnel is chosen by
    the outer source locator, and an unregistered locator is a drop."""
    from repro.net.addresses import Prefix
    from repro.net.node import Node
    from repro.net.packet import IPHeader, Packet, UDPHeader
    from repro.net.topology import wire
    from repro.net.udp import UdpStack

    sim, a, b, va, vb = vpn_pair
    c = Node(sim, "c")
    c_addr, b_addr = ipv4("10.0.1.3"), ipv4("10.0.1.2")
    c_iface, b_iface, _ = wire(sim, c, b, addr_a=c_addr, addr_b=b_addr)
    c.routes.add(Prefix(b_addr, 32), c_iface)
    b.routes.add(Prefix(c_addr, 32), b_iface)
    sock = UdpStack(b).bind(9)
    got = []

    def listen():
        while True:
            payload, _ = yield sock.recvfrom()
            got.append(payload)

    sim.process(listen())
    sim.run(until=sim.process(va.connect(vpn_addr(11))))
    assert vb.tunnels[vpn_addr(10)].is_established
    inner = Packet(
        headers=(IPHeader(src=vpn_addr(10), dst=vpn_addr(11), proto="udp"),
                 UDPHeader(src_port=1, dst_port=9)),
        payload=b"forged",
    )
    forged = Packet(
        headers=(VpnRecordHeader(seq=1, pad_len=1),), payload=inner,
    ).with_meta(vpn_src=vpn_addr(10))
    drops, received = vb.drops, vb.packets_received
    c.send_ip(b_addr, "sslvpn", forged)
    sim.run(until=sim.now + 1)
    assert got == []
    assert vb.drops == drops + 1
    assert vb.packets_received == received


def test_simultaneous_open_delivers_both_first_datagrams(vpn_pair):
    """Both ends send at t=0 and each starts a handshake as client.  The
    smaller address takes the other's key as server; the larger ignores its
    peer's key and completes as client.  So both ends key the tunnel from one
    premaster after one RSA decrypt, and the server's way into ESTABLISHED
    sends what queued meanwhile, as the client's does: neither datagram is
    stranded."""
    from repro.net.udp import UdpStack

    sim, a, b, va, vb = vpn_pair
    got: dict[str, list] = {"a": [], "b": []}
    socks = {}
    for name, node in (("a", a), ("b", b)):
        socks[name] = sock = UdpStack(node).bind(9)

        def listen(sock=sock, name=name):
            while True:
                payload, _ = yield sock.recvfrom()
                got[name].append(payload)

        sim.process(listen())
    socks["a"].sendto(b"from a", vpn_addr(11), 9)
    socks["b"].sendto(b"from b", vpn_addr(10), 9)
    sim.run(until=10)
    assert va.tunnels[vpn_addr(11)].is_established and vb.tunnels[vpn_addr(10)].is_established
    assert got == {"a": [b"from b"], "b": [b"from a"]}
    assert va.tunnels[vpn_addr(11)].queued == vb.tunnels[vpn_addr(10)].queued == []
    ta, tb = va.tunnels[vpn_addr(11)], vb.tunnels[vpn_addr(10)]
    assert ta.master_secret.reveal() == tb.master_secret.reveal()
    assert ta.verify_data == tb.verify_data
    decrypts = [d.meter.ops.get("vpn.asym.decrypt", 0) for d in (va, vb)]
    assert sum(decrypts) == 1
    assert (ta.role, tb.role) == ("server", "client")


def test_own_handshake_started_while_answering_a_key_keeps_the_servers_secret(vpn_pair):
    """``b`` opens the tunnel; ``a`` sends its first datagram while it is
    still decrypting ``b``'s key, so its own handshake starts as client.
    The key wins: ``a`` ends as server and its client handshake, still
    charging its RSA work, sends no key and derives no secret of its own."""
    from repro.net.udp import UdpStack

    sim, a, b, va, vb = vpn_pair
    sock_a, sock_b = UdpStack(a).bind(9), UdpStack(b).bind(9)
    charge = va._charge

    def charge_then_send(kind, cost):
        if kind == "vpn.asym.decrypt":
            sock_a.sendto(b"from a", vpn_addr(11), 9)
        yield from charge(kind, cost)

    va._charge = charge_then_send
    got = []

    def listen():
        payload, _ = yield sock_b.recvfrom()
        got.append(payload)

    sim.process(listen())
    sim.process(vb.connect(vpn_addr(10)))
    sim.run(until=10)
    ta, tb = va.tunnels[vpn_addr(11)], vb.tunnels[vpn_addr(10)]
    assert (ta.role, tb.role) == ("server", "client")
    assert ta.master_secret.reveal() == tb.master_secret.reveal()
    assert got == [b"from a"]
    assert "vpn.asym.decrypt" not in vb.meter.ops


def test_established_client_ignores_a_key(vpn_pair):
    """Only a server re-answers a key: a client's tunnel keeps its secret and
    buys no RSA decrypt for a key from its server's locator."""
    from repro.crypto.secret import Secret
    from repro.net.packet import Packet

    sim, a, b, va, vb = vpn_pair
    tunnel = sim.run(until=sim.process(va.connect(vpn_addr(11))))
    secret = tunnel.master_secret.reveal()
    body = bytes(32) + va.keypair.public.encrypt(Secret(bytes(48)), random.Random(5))
    b.send_ip(A, "sslvpn", Packet((), body).with_meta(vpn_ctl="key"))
    sim.run(until=sim.now + 1.0)
    assert (tunnel.role, tunnel.is_established) == ("client", True)
    assert tunnel.master_secret.reveal() == secret
    assert "vpn.asym.decrypt" not in va.meter.ops


def test_full_pending_queue_counts_each_overflow_as_a_drop(vpn_pair):
    """A pending tunnel holds ``queue_limit`` packets; each one beyond is a
    counted drop, as HIP counts ``drops_queue_full``."""
    from repro.net.udp import UdpStack

    sim, a, b, va, vb = vpn_pair
    va.queue_limit = 4
    got = []
    rx = UdpStack(b).bind(9)

    def listen():
        while True:
            payload, _ = yield rx.recvfrom()
            got.append(payload)

    sim.process(listen())
    tx = UdpStack(a).bind(0)
    for i in range(10):  # all before the handshake has begun
        tx.sendto(bytes([i]), vpn_addr(11), 9)
    sim.run(until=10)
    assert got == [bytes([i]) for i in range(4)]
    assert (va.drops, vb.drops) == (6, 0)
