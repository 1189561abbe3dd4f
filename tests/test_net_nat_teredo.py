"""NAT and Teredo tunneling tests."""

import pytest

from repro.net.addresses import ipv4, prefix
from repro.net.icmp import IcmpStack, ping
from repro.net.nat import NatBox
from repro.net.node import Node
from repro.net.tcp import TcpStack
from repro.net.teredo import (
    TeredoClient,
    TeredoServer,
    make_teredo_address,
    parse_teredo_address,
)
from repro.net.topology import wire
from repro.net.udp import UdpStack
from repro.sim import Simulator


@pytest.fixture
def natted_net(sim):
    return build_natted_net(sim)


def build_natted_net(sim):
    """client_a behind NAT; server and client_b public.

    Returns dict of nodes; all given UDP stacks.
    """
    client_a = Node(sim, "clientA")
    nat = NatBox(sim, "nat", external_addr=ipv4("198.51.100.1"))
    core = Node(sim, "core", forwarding=True)
    server = Node(sim, "server")
    client_b = Node(sim, "clientB")

    ia, nat_in = wire(sim, client_a, nat, addr_a=ipv4("192.168.0.2"), delay_s=1e-3)[:2]
    nat_in.add_address(ipv4("192.168.0.1"))
    nat_out, core_1 = wire(sim, nat, core, delay_s=2e-3)[:2]
    core_2, srv_if = wire(sim, core, server, addr_b=ipv4("203.0.113.1"), delay_s=2e-3)[:2]
    core_3, b_if = wire(sim, core, client_b, addr_b=ipv4("203.0.113.2"), delay_s=2e-3)[:2]

    nat.set_outside(nat_out)
    nat.mark_inside(nat_in)

    client_a.routes.add(prefix("0.0.0.0/0"), ia)
    nat.routes.add(prefix("192.168.0.0/24"), nat_in)
    nat.routes.add(prefix("0.0.0.0/0"), nat_out)
    core.routes.add(prefix("198.51.100.0/24"), core_1)
    core.routes.add(prefix("203.0.113.1/32"), core_2)
    core.routes.add(prefix("203.0.113.2/32"), core_3)
    server.routes.add(prefix("0.0.0.0/0"), srv_if)
    client_b.routes.add(prefix("0.0.0.0/0"), b_if)

    return {
        "a": client_a, "nat": nat, "server": server, "b": client_b,
        "udp_a": UdpStack(client_a), "udp_srv": UdpStack(server),
        "udp_b": UdpStack(client_b),
    }


class TestNat:
    def test_outbound_rewritten_and_reply_translated(self, sim, natted_net, drive):
        net = natted_net
        echo_port = 7

        def server_proc():
            sock = net["udp_srv"].bind(echo_port)
            data, (src, port) = yield sock.recvfrom()
            # The server must see the NAT's external address, not 192.168/16.
            assert src == ipv4("198.51.100.1")
            sock.sendto(b"reply:" + bytes(data), src, port)

        def client_proc():
            sock = net["udp_a"].bind(0)
            sock.sendto(b"hi", ipv4("203.0.113.1"), echo_port)
            data, _ = yield sock.recvfrom()
            return bytes(data)

        sim.process(server_proc())
        proc = sim.process(client_proc())
        assert sim.run(until=proc) == b"reply:hi"

    def test_unsolicited_inbound_dropped(self, sim, natted_net):
        net = natted_net
        sock = net["udp_srv"].bind(0)
        sock.sendto(b"attack", ipv4("198.51.100.1"), 1024)
        sim.run(until=1)
        assert net["nat"].dropped_unsolicited == 1

    def test_mapping_is_stable(self, sim, natted_net):
        """Endpoint-independent: same internal socket -> same external port."""
        net = natted_net
        seen_ports = []

        def server_proc():
            sock = net["udp_srv"].bind(7)
            for _ in range(2):
                _, (_, port) = yield sock.recvfrom()
                seen_ports.append(port)

        def client_proc():
            sock = net["udp_a"].bind(0)
            sock.sendto(b"1", ipv4("203.0.113.1"), 7)
            yield sim.timeout(0.1)
            sock.sendto(b"2", ipv4("203.0.113.1"), 7)

        sim.process(server_proc())
        sim.process(client_proc())
        sim.run(until=2)
        assert len(seen_ports) == 2 and seen_ports[0] == seen_ports[1]

    def test_tcp_through_nat(self, sim, natted_net):
        net = natted_net
        ta = TcpStack(net["a"])
        ts = TcpStack(net["server"])
        got = {}

        def server_proc():
            listener = ts.listen(80)
            conn = yield listener.accept()
            data = yield from conn.recv_bytes(5)
            got["data"] = data
            conn.write(b"OK")

        def client_proc():
            conn = yield sim.process(ta.open_connection(ipv4("203.0.113.1"), 80))
            conn.write(b"hello")
            got["reply"] = yield from conn.recv_bytes(2)

        sim.process(server_proc())
        sim.process(client_proc())
        sim.run(until=10)
        assert got == {"data": b"hello", "reply": b"OK"}


class TestTeredoAddress:
    def test_derive_and_parse_roundtrip(self):
        addr = make_teredo_address(ipv4("203.0.113.1"), ipv4("198.51.100.1"), 4096)
        server, mapped, port = parse_teredo_address(addr)
        assert server == ipv4("203.0.113.1")
        assert mapped == ipv4("198.51.100.1")
        assert port == 4096

    def test_prefix_is_teredo(self):
        from repro.net.addresses import is_teredo

        addr = make_teredo_address(ipv4("1.2.3.4"), ipv4("5.6.7.8"), 1)
        assert is_teredo(addr)

    def test_parse_rejects_non_teredo(self):
        from repro.net.addresses import ipv6

        with pytest.raises(ValueError):
            parse_teredo_address(ipv6("2001:10::1"))

    def test_requires_ipv4_inputs(self):
        from repro.net.addresses import ipv6

        with pytest.raises(ValueError):
            make_teredo_address(ipv6("::1"), ipv4("1.2.3.4"), 1)


class TestTeredoService:
    def test_qualification_embeds_nat_mapping(self, sim, natted_net, drive):
        net = natted_net
        TeredoServer(net["server"], net["udp_srv"])
        client = TeredoClient(net["a"], net["udp_a"], ipv4("203.0.113.1"))
        addr = drive(sim, client.qualify())
        server, mapped, _port = parse_teredo_address(addr)
        assert server == ipv4("203.0.113.1")
        assert mapped == ipv4("198.51.100.1")  # the NAT's external address

    def test_qualification_timeout_without_server(self, sim, natted_net):
        net = natted_net
        client = TeredoClient(net["a"], net["udp_a"], ipv4("203.0.113.9"))

        def flow():
            with pytest.raises(TimeoutError):
                yield sim.process(client.qualify(timeout=0.5))
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True

    def test_ping_natted_to_public_over_teredo(self, sim, natted_net, drive):
        net = natted_net
        TeredoServer(net["server"], net["udp_srv"])
        ta = TeredoClient(net["a"], net["udp_a"], ipv4("203.0.113.1"))
        tb = TeredoClient(net["b"], net["udp_b"], ipv4("203.0.113.1"))
        icmp_a, _icmp_b = IcmpStack(net["a"]), IcmpStack(net["b"])

        def flow():
            yield sim.process(ta.qualify())
            addr_b = yield sim.process(tb.qualify())
            rtts = yield sim.process(ping(icmp_a, addr_b, count=3, interval=0.05))
            return rtts

        rtts = drive(sim, flow())
        assert all(r is not None for r in rtts)
        assert ta.packets_encapsulated >= 3
        assert tb.packets_decapsulated >= 3

    def test_teredo_rtt_exceeds_native(self, sim, natted_net, drive):
        """Userspace encap/decap cost makes Teredo RTT visibly worse."""
        net = natted_net
        TeredoServer(net["server"], net["udp_srv"])
        ta = TeredoClient(net["a"], net["udp_a"], ipv4("203.0.113.1"))
        tb = TeredoClient(net["b"], net["udp_b"], ipv4("203.0.113.1"))
        icmp_a = IcmpStack(net["a"])
        IcmpStack(net["b"])

        def flow():
            yield sim.process(ta.qualify())
            addr_b = yield sim.process(tb.qualify())
            native = yield sim.process(ping(icmp_a, ipv4("203.0.113.2"), count=3))
            teredo = yield sim.process(ping(icmp_a, addr_b, count=3))
            return native, teredo

        native, teredo = drive(sim, flow())
        assert min(teredo) > max(native)

    def test_tcp_over_teredo(self, sim, natted_net):
        net = natted_net
        TeredoServer(net["server"], net["udp_srv"])
        ta = TeredoClient(net["a"], net["udp_a"], ipv4("203.0.113.1"))
        tb = TeredoClient(net["b"], net["udp_b"], ipv4("203.0.113.1"))
        tcp_a, tcp_b = TcpStack(net["a"]), TcpStack(net["b"])
        got = {}

        def flow():
            yield sim.process(ta.qualify())
            addr_b = yield sim.process(tb.qualify())
            listener = tcp_b.listen(80)

            def server_side():
                conn = yield listener.accept()
                data = yield from conn.recv_bytes(9)
                got["data"] = data
                conn.write(b"tunneled")

            sim.process(server_side())
            conn = yield sim.process(tcp_a.open_connection(addr_b, 80))
            got["reply"] = yield from conn.recv_bytes(8) if conn.write(b"over v6!!") is None else None

        sim.process(flow())
        sim.run(until=30)
        assert got.get("data") == b"over v6!!"
        assert got.get("reply") == b"tunneled"


class TestTeredoHostileInput:
    """Regressions for the RA hardening: a truncated or corrupt router
    advertisement must never kill the client's qualification loop."""

    def test_parse_ra_roundtrip(self):
        import struct

        from repro.net.teredo import parse_ra

        ra = b"\x02" + ipv4("198.51.100.1").packed() + struct.pack(">H", 4242)
        assert parse_ra(ra) == (ipv4("198.51.100.1"), 4242)

    def test_parse_ra_rejects_wrong_lengths(self):
        from repro.net.teredo import TeredoParseError, parse_ra

        for n in (0, 1, 5, 7, 40):  # total length 1 + n != 7
            with pytest.raises(TeredoParseError):
                parse_ra(b"\x02" + b"\x00" * n)

    def test_hostile_ra_ignored_during_qualification(self, sim, natted_net, drive):
        import struct

        from repro.net.teredo import TEREDO_PORT

        net = natted_net
        sock = net["udp_srv"].bind(TEREDO_PORT)

        def hostile_then_honest_server():
            _data, (src, port) = yield sock.recvfrom()
            # A truncated RA used to escape as struct.error from _await_ra
            # and kill the qualification process.
            sock.sendto(b"\x02\x01", src, port)
            sock.sendto(b"\x02" + src.packed() + struct.pack(">H", port), src, port)

        sim.process(hostile_then_honest_server())
        client = TeredoClient(net["a"], net["udp_a"], ipv4("203.0.113.1"))
        addr = drive(sim, client.qualify())
        server, mapped, _port = parse_teredo_address(addr)
        assert server == ipv4("203.0.113.1")
        assert mapped == ipv4("198.51.100.1")
