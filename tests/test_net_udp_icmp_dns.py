"""UDP and ICMP tests."""

import pytest

from repro.net.addresses import ipv4
from repro.net.icmp import IcmpStack, ping
from repro.net.topology import lan_pair
from repro.net.udp import UdpStack

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


class TestUdp:
    def test_datagram_roundtrip(self, lan, drive):
        sim, a, b = lan
        ua, ub = UdpStack(a), UdpStack(b)
        server = ub.bind(5000)

        def flow():
            client = ua.bind(0)
            client.sendto(b"ping", B, 5000)
            data, (src, port) = yield server.recvfrom()
            server.sendto(b"pong", src, port)
            reply, _ = yield client.recvfrom()
            return bytes(data), bytes(reply)

        assert drive(sim, flow()) == (b"ping", b"pong")

    def test_unbound_port_drops(self, lan):
        sim, a, b = lan
        ua, ub = UdpStack(a), UdpStack(b)
        ua.bind(1234).sendto(b"x", B, 9999)
        sim.run()
        assert ub.rx_dropped == 1

    def test_double_bind_rejected(self, lan):
        _sim, a, _b = lan
        ua = UdpStack(a)
        ua.bind(53)
        with pytest.raises(OSError):
            ua.bind(53)

    def test_ephemeral_ports_unique(self, lan):
        _sim, a, _b = lan
        ua = UdpStack(a)
        ports = {ua.bind(0).port for _ in range(50)}
        assert len(ports) == 50
        assert all(p >= 49152 for p in ports)

    def test_close_releases_port(self, lan):
        _sim, a, _b = lan
        ua = UdpStack(a)
        sock = ua.bind(7000)
        sock.close()
        ua.bind(7000)  # no error

    def test_send_on_closed_socket_rejected(self, lan):
        _sim, a, _b = lan
        ua = UdpStack(a)
        sock = ua.bind(7000)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.sendto(b"x", B, 1)


class TestIcmp:
    def test_ping_rtt_matches_path_delay(self, lan, drive):
        sim, a, b = lan
        icmp_a, _icmp_b = IcmpStack(a), IcmpStack(b)
        rtts = drive(sim, ping(icmp_a, B, count=5, interval=0.01))
        assert len(rtts) == 5
        for rtt in rtts:
            assert rtt is not None
            # 2 x 100 us propagation + serialization + reply cost.
            assert 2e-4 < rtt < 1e-3

    def test_ping_unreachable_times_out(self, lan, drive):
        sim, a, b = lan
        icmp_a = IcmpStack(a)
        # no ICMP stack on b at all -> no replies
        rtts = drive(sim, ping(icmp_a, ipv4("10.0.0.99"), count=2,
                               interval=0.01, timeout=0.2))
        assert rtts == [None, None]

    def test_echo_reply_counter(self, lan, drive):
        sim, a, b = lan
        icmp_a, icmp_b = IcmpStack(a), IcmpStack(b)
        drive(sim, ping(icmp_a, B, count=3, interval=0.01))
        assert icmp_b.echo_replies_sent == 3
