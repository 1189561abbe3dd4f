"""HIP mobility tests: the RFC 5206 UPDATE readdress with nonce echo."""

import random

import pytest

from repro.hip.daemon import HipDaemon
from repro.net.addresses import ipv4, prefix
from repro.net.icmp import IcmpStack, ping
from repro.net.node import Node
from repro.net.topology import wire


@pytest.fixture
def tri_net(sim, session_identities):
    """Three HIP hosts on a star around a router, each with two addresses
    available for mobility experiments."""
    router = Node(sim, "router", forwarding=True)
    hosts = {}
    daemons = {}
    addrs = {"a": "10.0.1.2", "b": "10.0.2.2", "c": "10.0.3.2"}
    for i, name in enumerate(("a", "b", "c")):
        node = Node(sim, name)
        iface, r_if, _ = wire(sim, node, router, addr_a=ipv4(addrs[name]),
                              delay_s=1e-3)
        node.routes.add(prefix("0.0.0.0/0"), iface)
        router.routes.add(prefix(f"10.0.{i + 1}.0/24"), r_if)
        hosts[name] = node
        daemons[name] = HipDaemon(
            node, session_identities[name], rng=random.Random(i + 1)
        )
    for x in ("a", "b", "c"):
        for y in ("a", "b", "c"):
            if x != y:
                daemons[x].add_peer(daemons[y].hit, [ipv4(addrs[y])])
    return sim, router, hosts, daemons, addrs


class TestMobility:
    def test_locator_update_survives_readdress(self, tri_net, drive):
        sim, router, hosts, daemons, addrs = tri_net
        da, db = daemons["a"], daemons["b"]
        drive(sim, da.associate(db.hit))

        # Host a moves: new address on a new interface, reachable via router.
        new_addr = ipv4("10.0.9.2")
        node_a = hosts["a"]
        iface, r_if, _ = wire(sim, node_a, router, addr_a=new_addr, delay_s=1e-3)
        router.routes.add(prefix("10.0.9.0/24"), r_if)
        node_a.routes.add(prefix("0.0.0.0/0"), iface)
        da.move_to(new_addr)
        sim.run(until=sim.now + 5)

        # Peer must now address us at the new locator...
        assert db.assocs[da.hit].peer_locator == new_addr
        # ...and data still flows over the association.
        icmp_b, _ = IcmpStack(hosts["b"]), IcmpStack(node_a)
        rtts = drive(sim, ping(icmp_b, da.hit, count=2, interval=0.01))
        assert all(r is not None for r in rtts)

    def test_update_requires_valid_hmac(self, tri_net, drive):
        sim, router, hosts, daemons, addrs = tri_net
        da, db = daemons["a"], daemons["b"]
        drive(sim, da.associate(db.hit))
        assoc_at_b = db.assocs[da.hit]
        original = assoc_at_b.peer_locator
        # Forge an UPDATE with a bad HMAC by corrupting a's key first.
        from repro.hip import packets as hp
        from repro.crypto.hmac_kdf import hmac_digest

        forged = hp.HipPacket(packet_type=hp.UPDATE, sender_hit=da.hit,
                              receiver_hit=db.hit)
        forged.add(hp.LOCATOR, hp.build_locator([(ipv4("10.0.66.6"), 120.0)]))
        forged.add(hp.SEQ, hp.build_seq(999))
        forged.add(hp.HMAC_PARAM, b"\x00" * 20)
        forged.add(hp.HIP_SIGNATURE, b"\x00" * 64)
        da._send_control(forged, ipv4(addrs["b"]))
        sim.run(until=sim.now + 3)
        assert assoc_at_b.peer_locator == original  # forgery ignored

    def test_verified_address_committed_only_after_echo(self, tri_net, drive):
        sim, router, hosts, daemons, addrs = tri_net
        da, db = daemons["a"], daemons["b"]
        drive(sim, da.associate(db.hit))
        # Announce an address where a is NOT reachable: the nonce echo can
        # never return, so b must keep the old locator.
        da.move_to(ipv4("10.0.77.7"))
        sim.run(until=sim.now + 5)
        assert db.assocs[da.hit].peer_locator == ipv4(addrs["a"])
