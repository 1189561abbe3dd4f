"""Every edge of both protocol machines, executed on live daemons.

``HipDaemon._transition`` / ``SslVpnDaemon._transition`` refuse any move the
tables beside ``HipState`` / ``TunnelState`` do not list, so an *extra* edge
cannot happen.  This module is the other direction: each scenario below
walks part of a table on a real daemon pair (asserting what the daemon must
do along the way — errors raised, queues cleared, SPIs released), and the
union of the ``(frm, to)`` pairs the flight recorder saw must equal the
table exactly.  A table edge no scenario reaches is dead spec; add the
scenario or delete the edge.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.hip import daemon as hipd
from repro.hip.daemon import HIP_TRANSITIONS, Association, HipError, HipState
from repro.hip.identity import hit_from_public_key
from repro.metrics import RECORDER
from repro.net.addresses import ipv4
from repro.net.icmp import IcmpStack
from repro.net.packet import HIPHeader
from repro.sim import Simulator
from repro.tls import vpn
from repro.tls.vpn import TUNNEL_TRANSITIONS, Tunnel, TunnelState, VpnError
from tests.conftest import build_hip_pair, build_vpn_pair, run_proc, vpn_addr

B, NOBODY = ipv4("10.0.0.2"), ipv4("10.0.0.250")

# Both daemons back off 0.5, 1, 2, ... seconds between retransmissions.
HIP_BACKOFF_S = sum(hipd.RETRY_BASE_S * 2**n for n in range(hipd.I1_RETRIES + 1))
VPN_BACKOFF_S = sum(vpn.RETRY_BASE_S * 2**n for n in range(vpn.HANDSHAKE_RETRIES))


def drop_inbound(node, proto: str, doomed) -> list:
    """Lose every ``proto`` packet arriving at ``node`` that ``doomed(packet)``
    selects; returns the list the dropped packets are collected in."""
    deliver, header = node._protocol_handlers[proto]
    dropped: list = []

    def lossy(n, packet, iface) -> None:
        if doomed(packet):
            dropped.append(packet)
        else:
            deliver(n, packet, iface)

    node._protocol_handlers[proto] = (lossy, header)
    return dropped


def live_process_names(sim: Simulator) -> set[str]:
    return {proc.name for proc in sim._processes.values() if proc.is_alive}


def raises_at(sim: Simulator, generator, error: type[Exception], match: str) -> float:
    """Drive ``generator``; it must raise ``error``.  Returns the sim time."""

    def flow():
        with pytest.raises(error, match=match):
            yield from generator
        return sim.now

    return run_proc(sim, flow())


# ----------------------------------------------------------- HIP scenarios --


def hip_type(packet) -> str:
    return packet.headers[1].packet_type


def hip_bex_then_close(ids) -> None:
    sim, a, b, da, db = build_hip_pair(Simulator(), ids)
    run_proc(sim, da.associate(db.hit))
    assert da.assocs[db.hit].is_established and db.assocs[da.hit].is_established
    da.close(db.hit)
    assert da.assocs[db.hit].state == HipState.CLOSING
    sim.run(until=sim.now + 1.0)
    assert da.assocs[db.hit].state == db.assocs[da.hit].state == HipState.CLOSED
    assert not da._sa_in_by_spi and not db._sa_in_by_spi


def hip_no_locator(ids) -> None:
    sim, a, b, da, db = build_hip_pair(Simulator(), ids)
    stranger = hit_from_public_key(b"nobody")
    raises_at(sim, da.associate(stranger), HipError, "no locator")
    assert da.assocs[stranger].state == HipState.FAILED


def hip_i1_blackholed(ids) -> None:
    """I1-SENT -> FAILED: nobody answers at the peer's locator."""
    sim, a, b, da, db = build_hip_pair(Simulator(), ids)
    da.hosts[db.hit] = [NOBODY]
    sim.process(IcmpStack(a).echo(db.hit, timeout=1.0))  # queues behind the BEX
    sim.run(until=0.1)
    failed = da.assocs[db.hit]
    assert failed.state == HipState.I1_SENT and len(failed.queued) == 1
    # Exhausted retransmissions end the wait, well before the 30 s deadline.
    when = raises_at(sim, da.associate(db.hit), HipError, "I1 retransmissions exhausted")
    assert when == pytest.approx(HIP_BACKOFF_S)
    assert failed.state == HipState.FAILED and failed.queued == []
    assert "hip-i1-rtx" not in live_process_names(sim)
    # The path heals: the next associate() starts over and completes.
    da.hosts[db.hit] = [B]
    fresh = run_proc(sim, da.associate(db.hit))
    assert fresh is not failed and fresh.is_established


def hip_r2_never_arrives(ids) -> None:
    """I2-SENT -> FAILED, and the responder staying up through every
    retransmitted I2 (ESTABLISHED -> ESTABLISHED)."""
    sim, a, b, da, db = build_hip_pair(Simulator(), ids)
    icmp_a, _ = IcmpStack(a), IcmpStack(b)
    dropped = drop_inbound(a, "hip", lambda packet: hip_type(packet) == "R2")
    sim.process(icmp_a.echo(db.hit, timeout=1.0))
    when = raises_at(sim, da.associate(db.hit), HipError, "I2 retransmissions exhausted")
    assert HIP_BACKOFF_S < when < HIP_BACKOFF_S + 0.1  # + the I1/R1 round trip
    failed = da.assocs[db.hit]
    assert failed.state == HipState.FAILED and failed.queued == []
    assert "hip-i2-rtx" not in live_process_names(sim)
    # One R2 per I2 (the original and each retransmission), one live SPI.
    assert len(dropped) == 1 + hipd.I2_RETRIES
    assert db.assocs[da.hit].is_established and len(db._sa_in_by_spi) == 1
    # The path heals; the responder takes the new exchange on its
    # established association.
    a._protocol_handlers["hip"] = (da._on_hip_packet, HIPHeader)
    fresh = run_proc(sim, da.associate(db.hit))
    assert fresh is not failed and fresh.is_established
    assert len(db._sa_in_by_spi) == 1 and len(da._sa_in_by_spi) == 1
    assert run_proc(sim, icmp_a.echo(db.hit)) is not None


def hip_lost_r2(ids) -> None:
    """RFC 5201 §4.4.2: an ESTABLISHED responder that receives a valid
    (retransmitted) I2 sends R2 again and stays up."""
    sim, a, b, da, db = build_hip_pair(Simulator(), ids)
    icmp_a, icmp_b = IcmpStack(a), IcmpStack(b)
    dropped = drop_inbound(
        a, "hip", lambda packet: hip_type(packet) == "R2" and not dropped
    )
    assoc = run_proc(sim, da.associate(db.hit))
    assert len(dropped) == 1
    assert assoc.is_established and db.assocs[da.hit].is_established
    assert db.bex_completed == 1  # the re-sent R2 completed no second exchange
    # The SA pair of the lost R2 is superseded, not leaked.
    assert len(db._sa_in_by_spi) == 1 and len(da._sa_in_by_spi) == 1
    assert assoc.sa_out.spi == db.assocs[da.hit].sa_in.spi
    assert run_proc(sim, icmp_a.echo(da.lsi_for_peer(db.hit))) is not None
    assert run_proc(sim, icmp_b.echo(db.lsi_for_peer(da.hit))) is not None


def hip_crossing_exchanges(ids) -> None:
    """I1-SENT -> ESTABLISHED (RFC 5201 §6.7 / §6.9): both ends start a base
    exchange at the same instant.  The smaller HIT drops the peer's I1 and
    stays initiator; the larger answers the I2 on its *pending* association,
    so its own waiter and queued packets complete too."""
    sim, a, b, da, db = build_hip_pair(Simulator(), ids)
    icmp_a, icmp_b = IcmpStack(a), IcmpStack(b)
    callers = [sim.process(da.associate(db.hit)), sim.process(db.associate(da.hit))]
    queued = sim.process(icmp_a.echo(db.hit, timeout=1.0))  # waits out the BEX
    sim.run(until=1.0)
    assert callers[0].value is da.assocs[db.hit] and callers[1].value is db.assocs[da.hit]
    small, large = (da, db) if da.hit < db.hit else (db, da)
    roles = small.assocs[large.hit].role, large.assocs[small.hit].role
    assert roles == ("initiator", "responder")
    assert small.bex_completed == large.bex_completed == 1
    assert len(da._sa_in_by_spi) == len(db._sa_in_by_spi) == 1
    assert not {"hip-i1-rtx", "hip-i2-rtx"} & live_process_names(sim)
    assert queued.value is not None
    assert run_proc(sim, icmp_a.echo(da.lsi_for_peer(db.hit))) is not None
    assert run_proc(sim, icmp_b.echo(db.lsi_for_peer(da.hit))) is not None
    assert da.drops_esp == db.drops_esp == 0
    assert da.data_packets_sent == db.data_packets_received == 3


HIP_SCENARIOS = (
    hip_bex_then_close,
    hip_no_locator,
    hip_i1_blackholed,
    hip_r2_never_arrives,
    hip_lost_r2,
    hip_crossing_exchanges,
)


# ----------------------------------------------------------- VPN scenarios --


VA, VB = vpn_addr(10), vpn_addr(11)


def vpn_ctl(packet) -> str | None:
    return packet.meta.get("vpn_ctl")


def vpn_handshake(keys) -> None:
    sim, a, b, va, vb = build_vpn_pair(Simulator(), keys)
    tunnel = run_proc(sim, va.connect(VB))
    assert tunnel.is_established and vb.tunnels[VA].is_established
    assert tunnel.master_secret.reveal() == vb.tunnels[VA].master_secret.reveal()


def vpn_unknown_peer(keys) -> None:
    sim, a, b, va, vb = build_vpn_pair(Simulator(), keys)
    raises_at(sim, va.connect(vpn_addr(99)), VpnError, "unknown VPN peer")
    assert va.tunnels[vpn_addr(99)].state == TunnelState.FAILED


def vpn_server_silent(keys) -> None:
    """HELLO-SENT -> FAILED: no ``finished`` ever comes back."""
    sim, a, b, va, vb = build_vpn_pair(Simulator(), keys)
    drop_inbound(a, "sslvpn", lambda packet: vpn_ctl(packet) == "finished")
    sim.process(IcmpStack(a).echo(VB, timeout=1.0))
    when = raises_at(sim, va.connect(VB), VpnError, "retransmissions exhausted")
    assert VPN_BACKOFF_S < when < VPN_BACKOFF_S + 0.1
    assert va.tunnels[VB].state == TunnelState.FAILED and va.tunnels[VB].queued == []
    assert f"vpn-hs-{a.name}" not in live_process_names(sim)


def vpn_lost_finished(keys) -> None:
    """ESTABLISHED -> ESTABLISHED: the client retransmits ``key``; the server
    re-derives the same secrets on the same tunnel and answers again."""
    sim, a, b, va, vb = build_vpn_pair(Simulator(), keys)
    dropped = drop_inbound(
        a, "sslvpn", lambda packet: vpn_ctl(packet) == "finished" and not dropped
    )
    echo = sim.process(IcmpStack(a).echo(VB, timeout=5.0))  # queues behind the handshake
    IcmpStack(b)
    tunnel = run_proc(sim, va.connect(VB))
    first_secret = vb.tunnels[VA].master_secret.reveal()
    assert len(dropped) == 1 and tunnel.is_established
    assert list(vb.tunnels) == [VA] and tunnel.master_secret.reveal() == first_secret
    # The queued echo request crossed once, and so did its reply.
    assert sim.run(until=echo) is not None
    assert (va.packets_sent, vb.packets_received) == (1, 1)
    assert (vb.packets_sent, va.packets_received) == (1, 1)


def vpn_unregistered_locator(keys) -> None:
    """A valid ``key`` from a host the server was never told about is not a
    peer's: every control packet from its locator is a counted drop, before
    any RSA decrypt or tunnel on the server."""
    sim, a, b, va, vb = build_vpn_pair(Simulator(), keys, server_knows_client=False)
    raises_at(sim, va.connect(VB), VpnError, "retransmissions exhausted")
    sim.run(until=sim.now + 1.0)  # the last retransmitted key is still in flight
    assert va.tunnels[VB].state == TunnelState.FAILED and vb.tunnels == {}
    # hello, key and every retransmitted key
    assert vb.drops == 2 + vpn.HANDSHAKE_RETRIES
    assert "vpn.asym.decrypt" not in vb.meter.ops


VPN_SCENARIOS = (
    vpn_handshake,
    vpn_unknown_peer,
    vpn_server_silent,
    vpn_lost_finished,
    vpn_unregistered_locator,
)


# ------------------------------------------------------------------ the tests --


def name_of(scenario) -> str:
    return scenario.__name__


@pytest.mark.parametrize("scenario", HIP_SCENARIOS, ids=name_of)
def test_hip_scenario(scenario, session_identities):
    scenario(session_identities)


@pytest.mark.parametrize("scenario", VPN_SCENARIOS, ids=name_of)
def test_vpn_scenario(scenario, vpn_keys):
    scenario(vpn_keys)


def recorded_edges(scenarios, arg, layer: str, event: str) -> set:
    RECORDER.clear()
    with RECORDER.recording():
        for scenario in scenarios:
            scenario(arg)
        seen = {(ev.fields["frm"], ev.fields["to"]) for ev in RECORDER.events(layer, event)}
    assert RECORDER.dropped == 0  # the ring held every event of every scenario
    RECORDER.clear()
    return seen


def test_hip_recorded_edges_equal_table(session_identities):
    seen = recorded_edges(HIP_SCENARIOS, session_identities, "hip", "bex_state")
    assert seen == HIP_TRANSITIONS
    assert len(HIP_TRANSITIONS) == 12


def test_vpn_recorded_edges_equal_table(vpn_keys):
    seen = recorded_edges(VPN_SCENARIOS, vpn_keys, "vpn", "tunnel_state")
    assert seen == TUNNEL_TRANSITIONS
    assert len(TUNNEL_TRANSITIONS) == 6


@pytest.mark.parametrize(
    "record, enum, table",
    [(Association, HipState, HIP_TRANSITIONS), (Tunnel, TunnelState, TUNNEL_TRANSITIONS)],
    ids=["hip", "vpn"],
)
def test_every_state_is_in_the_table_and_reachable(record, enum, table):
    assert {state for edge in table for state in edge} == set(enum)
    [initial] = [f.default for f in fields(record) if f.name == "state"]
    reached, frontier = {initial}, [initial]
    while frontier:
        here = frontier.pop()
        for frm, to in table:
            if frm == here and to not in reached:
                reached.add(to)
                frontier.append(to)
    assert reached == set(enum)
