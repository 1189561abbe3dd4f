"""A co-tenant's malformed packets are dropped at dispatch, never a crash.

A rival VM on the ``security="hip"`` RUBiS cloud sends the database VM, in
the middle of a closed-loop run, one packet per (protocol, shape) whose
header stack does not match its IP ``proto``: no transport header at all,
or the wrong one.  ``Node`` checks the transport header type each protocol
registered before calling its handler, so every one of them lands in
``dropped_malformed`` and the legitimate requests still succeed.
"""

import pytest

from repro.apps.workload import ClosedLoopClients
from repro.metrics import RECORDER
from repro.net.addresses import ipv4
from repro.net.icmp import IcmpStack
from repro.net.node import Node
from repro.net.packet import ESPHeader, HIPHeader, ICMPHeader, TCPHeader, UDPHeader
from repro.net.udp import UdpStack
from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud
from repro.sim.engine import Simulator

PROTOS = ("tcp", "udp", "icmp", "esp", "hip")


def shapes(proto: str) -> list[tuple]:
    """Header stacks (after IP) that do not belong to ``proto``."""
    wrong = UDPHeader(4000, 5000) if proto == "tcp" else TCPHeader(4000, 5000)
    return [(), (wrong,)]


def test_rival_vm_malformed_packets_are_dropped_mid_run():
    dep = build_rubis_cloud(seed=5, security="hip", n_web=1, extra_tenants=1)
    sim = dep.sim
    db = dep.db_vm
    # The db VM runs TCP and HIP/ESP already; give it UDP and ICMP too, so
    # every protocol under test has a registered handler to protect.
    UdpStack(db)
    IcmpStack(db)
    [rival] = [vm for vm in dep.provider.instances if vm.tenant.name == "rival-0"]
    target = db.primary_address
    hostile = [(proto, headers) for proto in PROTOS for headers in shapes(proto)]

    def attack() -> None:
        for proto, headers in hostile:
            assert rival.send_ip_fast(target, proto, headers, b"\x00" * 32)

    clients = ClosedLoopClients(
        dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
        n_clients=3, rng=dep.rngs.stream("hostile"), timeout=2.0, warmup=0.2,
    )
    with RECORDER.recording(capacity=500_000):
        sim.call_later(0.4, attack)
        result = sim.run(until=sim.process(clients.run(1.0)))
        drops = [ev for ev in RECORDER.events() if ev.event == "malformed_drop"]
    sim.run(until=sim.now + 0.5)

    assert db.dropped_malformed == len(hostile) == len(drops)
    assert sorted(ev.fields["proto"] for ev in drops) == sorted(p for p, _ in hostile)
    assert result.successes > 0 and result.failures == 0
    daemon = dep.daemons["db0"]
    assert daemon._rx_lane.idle and daemon.drops_esp == 0


@pytest.mark.parametrize("proto", PROTOS)
def test_each_protocol_handler_sees_only_its_header(proto):
    """The chokepoint, one protocol at a time: a matching packet reaches the
    handler, both malformed shapes do not."""
    header = {
        "tcp": TCPHeader(1, 2), "udp": UDPHeader(1, 2),
        "icmp": ICMPHeader("echo-reply", 1, 1), "esp": ESPHeader(1, 1),
        "hip": HIPHeader("I1"),
    }[proto]
    sim = Simulator()
    node = Node(sim, "n")
    addr = ipv4("10.0.0.1")
    node.add_interface("eth0", addr)
    seen = []
    node.register_protocol(proto, lambda n, p, i: seen.append(p), type(header))
    for headers in shapes(proto) + [(header,)]:
        node.send_ip_fast(addr, proto, headers, b"")
    assert node.dropped_malformed == 2
    assert [p.headers[1:] for p in seen] == [(header,)]
    sim.close()
