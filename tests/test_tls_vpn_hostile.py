"""Hostile input to the SSL VPN: a packet belongs to the host that sent it.

The daemon names the peer of every packet, control as well as data, by the
outer source locator ``add_peer`` registered; nothing a sender writes into
the packet's annotations is read.  A packet from any other locator is a
counted drop before any private-key operation or tunnel — and never a
crashed receive worker.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.secret import Secret
from repro.net.addresses import Prefix, ipv4
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.topology import wire
from repro.sim import Simulator
from tests.conftest import build_vpn_pair, run_proc, vpn_addr

VA, VB = vpn_addr(10), vpn_addr(11)
C_ADDR, B_ADDR = ipv4("10.0.1.3"), ipv4("10.0.1.2")


def with_stranger(keys):
    """``build_vpn_pair`` plus a host ``c`` wired to ``b`` that no daemon
    registered as a peer.  Returns (sim, a, b, c, va, vb)."""
    sim, a, b, va, vb = build_vpn_pair(Simulator(), keys)
    c = Node(sim, "c")
    c_iface, b_iface, _ = wire(sim, c, b, addr_a=C_ADDR, addr_b=B_ADDR)
    c.routes.add(Prefix(B_ADDR, 32), c_iface)
    b.routes.add(Prefix(C_ADDR, 32), b_iface)
    return sim, a, b, c, va, vb


def well_formed_key(vb) -> bytes:
    """A ``key`` body the server can decrypt: client random + premaster
    RSA-encrypted under the server's public key."""
    premaster = Secret(bytes(range(48)))
    return bytes(32) + vb.keypair.public.encrypt(premaster, random.Random(5))


@pytest.mark.parametrize(
    "meta",
    [{}, {"vpn_src": [VA]}, {"vpn_src": VA}],
    ids=["no-vpn-src", "unhashable-vpn-src", "names-a-registered-peer"],
)
def test_control_from_an_unregistered_locator_is_a_counted_drop(vpn_keys, meta):
    sim, a, b, c, va, vb = with_stranger(vpn_keys)
    for kind, body in (("hello", bytes(32)), ("key", well_formed_key(vb)),
                       ("finished", bytes(12))):
        c.send_ip(B_ADDR, "sslvpn", Packet((), body).with_meta(vpn_ctl=kind, **meta))
    sim.run(until=1.0)
    assert vb.drops == 3
    assert "vpn.asym.decrypt" not in vb.meter.ops
    assert vb.tunnels == {}
    # The receive worker is still serving: the registered peer gets through.
    assert run_proc(sim, va.connect(VB)).is_established
    assert vb.meter.ops["vpn.asym.decrypt"] == 1


def test_control_from_a_registered_locator_needs_no_annotation(vpn_keys):
    """The peer's own ``key`` and ``finished``, with nothing naming a sender,
    key the tunnel: the locator alone names the peer."""
    sim, a, b, va, vb = build_vpn_pair(Simulator(), vpn_keys)
    sent = []
    endpoint = a.interface("eth0")._endpoint
    original = endpoint.send

    def spy(packet, size=0):
        sent.append(dict(packet.meta))
        return original(packet, size)

    endpoint.send = spy
    assert run_proc(sim, va.connect(VB)).is_established
    assert vb.tunnels[VA].is_established and vb.drops == 0
    assert sent == [{"vpn_ctl": "hello"}, {"vpn_ctl": "key"}]
