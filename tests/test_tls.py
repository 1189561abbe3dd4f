"""SSL-VPN tunnel tests."""

import random

import pytest

from repro.crypto.rsa import RsaKeyPair
from repro.net.addresses import IPAddress, ipv4
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.sim import Simulator
from repro.tls.vpn import SslVpnDaemon, VPN_SUBNET, VpnError

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


@pytest.fixture(scope="module")
def server_keypair():
    return RsaKeyPair.generate(512, random.Random(77))


class TestSslVpn:
    @pytest.fixture
    def vpn_pair(self, sim, server_keypair):
        a, b = lan_pair(sim, "a", "b")
        key_a = server_keypair
        key_b = RsaKeyPair.generate(512, random.Random(88))
        vpn_a_addr = IPAddress(4, VPN_SUBNET.network.value + 10)
        vpn_b_addr = IPAddress(4, VPN_SUBNET.network.value + 11)
        va = SslVpnDaemon(a, vpn_a_addr, key_a, rng=random.Random(1))
        vb = SslVpnDaemon(b, vpn_b_addr, key_b, rng=random.Random(2))
        va.add_peer(vpn_b_addr, B, key_b.public)
        vb.add_peer(vpn_a_addr, A, key_a.public)
        return sim, a, b, va, vb

    def test_tunnel_establishes(self, vpn_pair, drive):
        sim, a, b, va, vb = vpn_pair
        tunnel = drive(sim, va.connect(vb.vpn_addr))
        assert tunnel.is_established
        # Both ends derived the same master secret from the real RSA exchange.
        peer_master = vb.tunnels[va.vpn_addr].master_secret
        assert tunnel.master_secret.reveal() == peer_master.reveal()

    def test_tcp_through_tunnel(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        ta, tb = TcpStack(a), TcpStack(b)
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(10)
            got["peer"] = conn.remote_addr

        def client():
            conn = yield sim.process(ta.open_connection(vb.vpn_addr, 80))
            conn.write(b"vpn bytes!")

        sim.process(server())
        sim.process(client())
        sim.run(until=30)
        assert got.get("data") == b"vpn bytes!"
        assert got.get("peer") == va.vpn_addr  # server sees tunnel addressing

    def test_unknown_peer_fails(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        stranger = IPAddress(4, VPN_SUBNET.network.value + 99)

        def flow():
            with pytest.raises(VpnError):
                yield from va.connect(stranger, timeout=5.0)
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True

    def test_first_packets_queued_not_dropped(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        from repro.net.icmp import IcmpStack, ping

        icmp_a, _ = IcmpStack(a), IcmpStack(b)
        proc = sim.process(ping(icmp_a, vb.vpn_addr, count=2, interval=0.05,
                                timeout=10.0))
        rtts = sim.run(until=proc)
        assert all(r is not None for r in rtts)

    def test_per_packet_costs_metered(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        from repro.net.icmp import IcmpStack, ping

        icmp_a, _ = IcmpStack(a), IcmpStack(b)
        proc = sim.process(ping(icmp_a, vb.vpn_addr, count=5, timeout=10.0))
        sim.run(until=proc)
        assert va.meter.ops.get("vpn.record.out", 0) >= 5
        assert vb.meter.ops.get("vpn.record.in", 0) >= 5
        assert va.meter.ops.get("vpn.asym.encrypt") == 1  # handshake once

    def test_address_validation(self, sim, server_keypair):
        node = Simulator and lan_pair(sim, "x", "y")[0]
        with pytest.raises(ValueError):
            SslVpnDaemon(node, ipv4("9.9.9.9"), server_keypair, rng=random.Random(1))
