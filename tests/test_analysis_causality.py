"""The lookahead contract, checked where it can break.

Each check a runtime tap used to make in tests only is now a raise at the
product chokepoint where the thing happens: the portal refuses a send that
breaks its shard's earliest-output-time promise, the coordinator refuses an
envelope that lands inside a committed window or less than one lookahead
after its send, and an error inside a shard (a schedule into the past, say)
surfaces as a ``ShardError`` naming the shard and its clock.  Every envelope
crosses as frame bytes in both worker modes, so no destination ever holds
the sender's packet object; the one way left for builders to share objects
is module-level state, which ISO001/ISO004 flag.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_source
from repro.net.addresses import Prefix, ipv4
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.topology import wire, wire_cross_shard
from repro.net.udp import UdpStack
from repro.sim.shard import (
    Envelope,
    LookaheadError,
    ShardedSimulation,
    ShardError,
)
from tests.test_shard import CROSS_DELAY, build_ticker, echo_builders

LOOKAHEAD = CROSS_DELAY


def _packet() -> Packet:
    return Packet(headers=(), payload=b"x" * 64)


class _Sink:
    """Minimal ingress landing point; keeps what it receives."""

    def __init__(self, mark=False):
        self.mark = mark
        self.received = []

    def receive(self, packet):
        if self.mark:
            packet.meta["seen_by"] = "sink"
        self.received.append(packet)


def _sink_builder(shard, port_id="x->sink", mark=False):
    shard.sink = _Sink(mark)
    shard.open_ingress(port_id, shard.sink)
    shard.result_fn = lambda: None


def _sender_builder(shard, n_packets=3):
    """Hands packets it keeps to a portal, one every quarter lookahead."""
    portal = shard.open_egress("x->sink", "sink", 1e9, LOOKAHEAD)
    shard.sent = [_packet() for _ in range(n_packets)]
    for i, packet in enumerate(shard.sent):
        shard.sim.call_later((i + 1) * LOOKAHEAD / 4, portal.send, packet)
    shard.result_fn = lambda: None


def _sender_sink_sim(mark=False):
    return ShardedSimulation(
        {
            "src": (_sender_builder, {}),
            "sink": (_sink_builder, {"mark": mark}),
        },
        seed=3,
        lookahead=LOOKAHEAD,
    )


# ------------------------------------------------------------------- clean --


def test_clean_echo_run_is_silent():
    sharded = ShardedSimulation(echo_builders(), 42)
    results = sharded.run(1.0)
    assert results["left"]["echoed"] == 20
    assert sharded.envelopes_routed == 40


# ----------------------------------------------------------- late envelope --


def _late_envelope_builder(shard, arrival_frac):
    """A buggy portal: hand-computes an arrival ``arrival_frac`` lookaheads
    after the send clock (< 1.0 violates the conservative contract)."""
    portal = shard.open_egress("x->sink", "sink", 1e9, LOOKAHEAD)
    sim = shard.sim

    def corrupt():
        shard._env_seq += 1
        portal.out.append(
            Envelope(
                arrival=sim.now + arrival_frac * LOOKAHEAD,
                src_shard=shard.name,
                src_index=shard.index,
                seq=shard._env_seq,
                dst_shard="sink",
                port_id="x->sink",
                packet=_packet(),
                sent_now=sim.now,
            )
        )

    sim.call_later(LOOKAHEAD / 4, corrupt)
    shard.result_fn = lambda: None


def _late_envelope_sim(arrival_frac, parallel=False):
    return ShardedSimulation(
        {
            "bad": (_late_envelope_builder, {"arrival_frac": arrival_frac}),
            "sink": (_sink_builder, {}),
        },
        seed=1,
        lookahead=LOOKAHEAD,
        parallel=parallel,
    )


def test_late_envelope_raises_with_shard_and_time():
    sharded = _late_envelope_sim(arrival_frac=0.85)
    with pytest.raises(LookaheadError) as exc:
        sharded.run(LOOKAHEAD * 4)
    msg = str(exc.value)
    assert "shard 'bad' through 'x->sink'" in msg
    assert "sent at t=0.000500 arrives at t=0.002200" in msg


def test_late_envelope_accumulates_when_not_strict():
    # arrival_frac=0.85 lands past the first barrier (2 ms), so only the
    # sent_now + lookahead bound catches it; the coordinator refuses it in
    # a forked run too.  Exactly one lookahead after the send is legal.
    _late_envelope_sim(arrival_frac=1.0).run(LOOKAHEAD * 4)
    sharded = _late_envelope_sim(arrival_frac=0.85, parallel=True)
    with pytest.raises(LookaheadError, match="less than the lookahead"):
        sharded.run(LOOKAHEAD * 4)
    assert sharded.windows == 1
    for worker in sharded.workers.values():
        assert not worker._proc.is_alive()


# ---------------------------------------------------------- broken promise --

VM_ADDR, BORDER_LAN, BORDER_WAN = ipv4("10.9.0.2"), ipv4("10.9.0.1"), ipv4("10.9.1.1")
FAR_ADDR = ipv4("10.9.1.2")
SEND_EVERY = 10e-3


def _vm_behind_border_builder(shard, hop_delay, promise_slack=0.0):
    """A VM that promises its send timer although it is two hops from the
    portal: VM -> (in-shard link, ``hop_delay``) -> border -> portal.

    While a datagram is on the in-shard link the timer is already re-armed,
    so a barrier falling in that gap reads a promise one period too late
    (the unsound prototype DESIGN.md describes).  ``promise_slack`` instead
    overstates the promise of a VM that *is* the border (``hop_delay=0``).
    """
    sim = shard.sim
    border = Node(sim, "border", forwarding=True)
    out = wire_cross_shard(
        shard, border, BORDER_WAN, out_port="src->sink", in_port="sink->src",
        dst_shard="sink", delay_s=LOOKAHEAD,
    )
    border.routes.add(Prefix(FAR_ADDR, 32), out)
    if hop_delay:
        sender = Node(sim, "vm")
        vm_if, _border_if, _link = wire(
            sim, sender, border, VM_ADDR, BORDER_LAN, delay_s=hop_delay
        )
        sender.routes.add(Prefix(FAR_ADDR, 32), vm_if)
    else:
        sender = border
    sock = UdpStack(sender).bind(7300)
    next_fire = [0.0]

    def tx():
        while True:
            next_fire[0] = sim.now + SEND_EVERY
            yield sim.timeout(SEND_EVERY)
            sock.sendto(b"x" * 64, FAR_ADDR, 7300)

    sim.process(tx())
    shard.egress_promise(lambda: next_fire[0] + promise_slack)
    shard.result_fn = lambda: None


def _broken_promise_sim(parallel=False, sink=None, **src_kw):
    return ShardedSimulation(
        {
            "src": (_vm_behind_border_builder, src_kw),
            "sink": sink or (_sink_builder, {"port_id": "src->sink"}),
        },
        seed=1,
        lookahead=LOOKAHEAD,
        parallel=parallel,
    )


def _busy_sink_builder(shard):
    _sink_builder(shard, port_id="src->sink")
    build_ticker(shard, n_ticks=10_000, promise=None)


@pytest.mark.parametrize("parallel", [False, True])
def test_broken_promise_is_a_loud_lookahead_error(parallel):
    # The VM fires at 10 ms inside the window ending 12 ms and re-arms for
    # 20 ms; its datagram reaches the portal at 13 ms, after the barrier at
    # 12 ms read "20 ms" as the promise.  The portal refuses the send.
    sharded = _broken_promise_sim(parallel=parallel, hop_delay=1.5 * LOOKAHEAD)
    with pytest.raises(LookaheadError) as exc:
        sharded.run(0.1)
    msg = str(exc.value)
    assert "shard 'src' sent through 'src->sink' at t=0.013" in msg
    assert "after promising no output before t=0.020000" in msg
    if parallel:
        for worker in sharded.workers.values():
            assert not worker._proc.is_alive()


def test_broken_promise_is_reported_by_the_sanitizer():
    # Reported by the portal at the send, not by a barrier afterwards: the
    # shard's clock stamps the error, the portal's own error is its cause,
    # and no envelope was ever routed.
    sharded = _broken_promise_sim(hop_delay=1.5 * LOOKAHEAD)
    with pytest.raises(LookaheadError) as exc:
        sharded.run(0.1)
    assert str(exc.value).startswith(
        "shard 'src' worker failed: LookaheadError at t=0.013"
    )
    assert isinstance(exc.value.__cause__, LookaheadError)
    assert "'src->sink'" in str(exc.value.__cause__)
    assert sharded.envelopes_routed == 0


def test_broken_promise_in_forked_worker_names_shard_and_kind():
    # The portal raises in the child; the reply keeps the error's kind
    # across the pipe, and the siblings are reaped.
    sharded = _broken_promise_sim(parallel=True, hop_delay=1.5 * LOOKAHEAD)
    with pytest.raises(LookaheadError) as exc:
        sharded.run(0.1)
    assert str(exc.value).startswith(
        "shard 'src' worker failed: LookaheadError at t=0.013"
    )
    for worker in sharded.workers.values():
        assert not worker._proc.is_alive()


def test_latent_broken_promise_is_found_at_the_send():
    # The border itself sends (same event, no in-flight gap) but overstates
    # its promise by half a lookahead.  A busy peer with no promise keeps
    # every window short, so each envelope would still land after its
    # barrier and the run would come out right by luck; the portal refuses
    # the first send all the same.
    sink = (_busy_sink_builder, {})
    sharded = _broken_promise_sim(
        sink=sink, hop_delay=0.0, promise_slack=LOOKAHEAD / 2
    )
    with pytest.raises(LookaheadError) as exc:
        sharded.run(0.1)
    msg = str(exc.value)
    assert "shard 'src' sent through 'src->sink' at t=0.010000" in msg
    assert "after promising no output before t=0.011000" in msg
    assert sharded.envelopes_routed == 0


def test_kept_promise_is_silent():
    sharded = _broken_promise_sim(hop_delay=0.0)
    sharded.run(0.1)
    assert sharded.envelopes_routed == 10
    assert sharded.windows <= 2 * sharded.envelopes_routed + 2


# ------------------------------------------------------ schedule-in-the-past --


def _past_schedule_builder(shard):
    sim = shard.sim

    def rewind():
        sim.call_at(sim.now - 1.0, lambda: None)

    sim.call_later(LOOKAHEAD / 2, rewind)
    shard.result_fn = lambda: None


def _negative_delay_builder(shard):
    sim = shard.sim
    sim.call_later(LOOKAHEAD / 2, lambda: sim.call_later(-0.5, lambda: None))
    shard.result_fn = lambda: None


def test_schedule_into_the_past_raises_with_shard_and_time():
    # The engine's own ValueError, named after the shard and stamped with
    # its clock; the original is the cause.
    sharded = ShardedSimulation(
        {"rewinder": (_past_schedule_builder, {})},
        seed=1,
        lookahead=LOOKAHEAD,
    )
    with pytest.raises(ShardError) as exc:
        sharded.run(LOOKAHEAD * 2)
    assert str(exc.value).startswith(
        "shard 'rewinder' worker failed: ValueError at t=0.001000: "
        "call_at into the past"
    )
    assert isinstance(exc.value.__cause__, ValueError)


def test_negative_delay_is_a_past_schedule():
    # Forked: the error crosses the pipe as text, still naming the shard.
    sharded = ShardedSimulation(
        {"solo": (_negative_delay_builder, {})},
        seed=3,
        lookahead=LOOKAHEAD,
        parallel=True,
    )
    with pytest.raises(ShardError) as exc:
        sharded.run(LOOKAHEAD * 2)
    assert str(exc.value).startswith(
        "shard 'solo' worker failed: ValueError at t=0.001000: "
        "negative timer delay"
    )
    assert not isinstance(exc.value, LookaheadError)


# ---------------------------------------------------------- smuggled object --


def test_object_smuggled_across_shards_is_flagged():
    # Inline, where source and destination share a process: the packet the
    # destination receives is decoded from the frame, never the object the
    # source handed to its portal.
    sharded = _sender_sink_sim()
    sent = sharded.workers["src"].shard.sent
    received = sharded.workers["sink"].shard.sink.received
    sharded.run(LOOKAHEAD * 4)
    assert len(received) == len(sent) == 3
    for got, original in zip(received, sent):
        assert got == original
        assert got is not original


def test_smuggled_receiver_and_closure_are_flagged():
    # What is left: builders sharing a receiver through module-level state,
    # or a closure capturing a module-level Simulator.
    source = textwrap.dedent(
        """
        from repro.sim.engine import Simulator

        _RECEIVERS = []
        FOREIGN = Simulator()

        def build_a(shard):
            _RECEIVERS.append(shard)

        def build_b(shard):
            def poke():
                return FOREIGN.now

            shard.sim.call_later(0.1, poke)
        """
    )
    found = analyze_source(
        source, "src/repro/scenarios/fake.py", rules={"ISO001", "ISO004"}
    )
    assert {f.rule for f in found if not f.suppressed} == {"ISO001", "ISO004"}


def test_portal_crossing_transfers_ownership():
    # The destination owns what it receives: annotating it reaches neither
    # the sender's packet nor the coordinator's copy the digest folds.
    plain = _sender_sink_sim()
    plain.run(LOOKAHEAD * 4)
    marking = _sender_sink_sim(mark=True)
    sent = marking.workers["src"].shard.sent
    received = marking.workers["sink"].shard.sink.received
    marking.run(LOOKAHEAD * 4)
    assert all(p.meta["seen_by"] == "sink" for p in received)
    assert not any("seen_by" in p.meta for p in sent)
    assert marking.boundary_digest == plain.boundary_digest


def test_sanitizer_survives_parallel_fork():
    # Both transports carry the same bytes: a forked run equals the inline
    # one bit for bit, frame byte counts included.
    inline = ShardedSimulation(echo_builders(), 42)
    inline_res = inline.run(1.0)
    forked = ShardedSimulation(echo_builders(), 42, parallel=True)
    forked_res = forked.run(1.0)
    assert forked_res == inline_res
    assert forked.boundary_digest == inline.boundary_digest
    a, b = inline.sync_stats(), forked.sync_stats()
    assert a["frame_bytes_tx"] == b["frame_bytes_tx"] > 0
    assert a["frame_bytes_rx"] == b["frame_bytes_rx"] > 0
