"""Runtime causality-sanitizer tests.

A clean sharded run stays silent; four deliberately broken toy shards —
a late envelope, a broken earliest-output-time promise, a schedule into the
past, and an object smuggled across a portal-less boundary — each produce a
violation naming the offending shard and its simulated time.
"""

from __future__ import annotations

import pytest

from repro.analysis.causality import (
    CausalitySanitizer,
    CausalityViolation,
    causality_sanitizer,
)
from repro.net.addresses import Prefix, ipv4
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.topology import wire, wire_cross_shard
from repro.net.udp import UdpStack
from repro.sim import shard as shard_mod
from repro.sim.shard import (
    Envelope,
    LookaheadError,
    Shard,
    ShardedSimulation,
    ShardError,
)
from tests.test_shard import CROSS_DELAY, build_ticker, echo_builders

LOOKAHEAD = CROSS_DELAY


def _packet() -> Packet:
    return Packet(headers=(), payload=b"x" * 64)


class _Sink:
    """Minimal ingress landing point."""

    def __init__(self):
        self.received = 0

    def receive(self, packet):
        self.received += 1


def _sink_builder(shard, port_id="x->sink"):
    shard.open_ingress(port_id, _Sink())
    shard.result_fn = lambda: None


# ------------------------------------------------------------------- clean --


def test_clean_echo_run_is_silent():
    with causality_sanitizer() as tap:
        sharded = ShardedSimulation(echo_builders(), 42)
        results = sharded.run(1.0)
    assert results["left"]["echoed"] == 20
    assert not tap.violations
    assert tap.shards_seen == 2
    assert tap.envelopes_checked == sharded.envelopes_routed == 40
    assert tap.schedules_checked > 0
    assert "0 violation(s)" in tap.describe()


def test_context_manager_installs_and_removes_tap():
    assert not shard_mod.CAUSALITY_TAPS
    with causality_sanitizer() as tap:
        assert shard_mod.CAUSALITY_TAPS == [tap]
    assert not shard_mod.CAUSALITY_TAPS


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


def _late_envelope_sim(arrival_frac):
    return ShardedSimulation(
        {
            "bad": (_late_envelope_builder, {"arrival_frac": arrival_frac}),
            "sink": (_sink_builder, {}),
        },
        seed=1,
        lookahead=LOOKAHEAD,
    )


def test_late_envelope_raises_with_shard_and_time():
    sharded = _late_envelope_sim(arrival_frac=0.85)
    with causality_sanitizer():
        with pytest.raises(CausalityViolation) as exc:
            sharded.run(LOOKAHEAD * 4)
    msg = str(exc.value)
    assert "late-envelope" in msg
    assert "shard 'bad'" in msg
    assert "t=" in msg


def test_late_envelope_accumulates_when_not_strict():
    # arrival_frac=0.85 puts the arrival past the window barrier (so the
    # coordinator's own LookaheadError stays quiet) but inside the
    # sent_now + lookahead bound — only the sanitizer sees it.
    sharded = _late_envelope_sim(arrival_frac=0.85)
    with causality_sanitizer(strict=False) as tap:
        sharded.run(LOOKAHEAD * 4)
    [violation] = tap.violations
    assert violation.kind == "late-envelope"
    assert violation.shard == "bad"
    assert violation.time == pytest.approx(LOOKAHEAD / 4)


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
    # 20 ms; its datagram reaches the portal at 13 ms, inside the window
    # the barrier at 12 ms stretched to 22 ms on the strength of "20 ms".
    sharded = _broken_promise_sim(parallel=parallel, hop_delay=1.5 * LOOKAHEAD)
    with pytest.raises(LookaheadError) as exc:
        sharded.run(0.1)
    msg = str(exc.value)
    assert "shard 'src' sent through 'src->sink' at t=0.013" in msg
    assert "after promising no output before t=0.020000" in msg
    assert "inside the window ending" in msg
    assert isinstance(exc.value, ShardError)
    if parallel:
        for worker in sharded.workers.values():
            assert not worker._proc.is_alive()


def test_broken_promise_is_reported_by_the_sanitizer():
    with causality_sanitizer(strict=False) as tap:
        sharded = _broken_promise_sim(hop_delay=1.5 * LOOKAHEAD)
        with pytest.raises(LookaheadError):
            sharded.run(0.1)
    broken = [v for v in tap.violations if v.kind == "promise-broken"]
    assert broken and broken[0].shard == "src"
    assert broken[0].time == pytest.approx(0.013, abs=1e-4)
    assert "'src->sink'" in broken[0].detail


def test_broken_promise_in_forked_worker_names_shard_and_kind():
    # Strict taps are inherited across the fork: the send itself raises in
    # the child and surfaces as a ShardError, siblings reaped.
    with causality_sanitizer():
        sharded = _broken_promise_sim(parallel=True, hop_delay=1.5 * LOOKAHEAD)
        with pytest.raises(ShardError, match="promise-broken") as exc:
            sharded.run(0.1)
    assert "shard 'src'" in str(exc.value)
    for worker in sharded.workers.values():
        assert not worker._proc.is_alive()


def test_latent_broken_promise_is_found_at_the_send():
    # The border itself sends (same event, no in-flight gap) but overstates
    # its promise by half a lookahead.  A busy peer with no promise keeps
    # every window short, so each envelope still lands after its barrier and
    # the coordinator's check has nothing to see — the run is correct by
    # luck.  The sanitizer checks the send against the promise itself.
    sink = (_busy_sink_builder, {})
    with causality_sanitizer(strict=False) as tap:
        sharded = _broken_promise_sim(
            sink=sink, hop_delay=0.0, promise_slack=LOOKAHEAD / 2
        )
        sharded.run(0.1)
    assert sharded.envelopes_routed == 10
    kinds = {v.kind for v in tap.violations}
    assert kinds == {"promise-broken"}
    assert all(v.shard == "src" for v in tap.violations)


def test_kept_promise_is_silent():
    with causality_sanitizer() as tap:
        sharded = _broken_promise_sim(hop_delay=0.0)
        sharded.run(0.1)
    assert not tap.violations
    assert sharded.envelopes_routed == 10
    assert sharded.windows <= 2 * sharded.envelopes_routed + 2


# ------------------------------------------------------ schedule-in-the-past --


def _past_schedule_builder(shard):
    sim = shard.sim

    def rewind():
        sim.call_at(sim.now - 1.0, lambda: None)

    sim.call_later(LOOKAHEAD / 2, rewind)
    shard.result_fn = lambda: None


def test_schedule_into_the_past_raises_with_shard_and_time():
    # The sanitizer must be installed at construction: on_shard wraps each
    # shard's call_later/call_at as the shard is built.
    with causality_sanitizer():
        sharded = ShardedSimulation(
            {"rewinder": (_past_schedule_builder, {})},
            seed=1,
            lookahead=LOOKAHEAD,
        )
        with pytest.raises(CausalityViolation) as exc:
            sharded.run(LOOKAHEAD * 2)
    msg = str(exc.value)
    assert "past-schedule" in msg
    assert "shard 'rewinder'" in msg
    assert "t=" in msg


def test_negative_delay_is_a_past_schedule():
    with causality_sanitizer() as tap:
        shard = Shard("solo", 0, seed=3)
        with pytest.raises(CausalityViolation) as exc:
            shard.sim.call_later(-0.5, lambda: None)
    assert "past-schedule" in str(exc.value)
    assert tap.violations[0].shard == "solo"
    shard.sim.close()


# ---------------------------------------------------------- smuggled object --


def test_object_smuggled_across_shards_is_flagged():
    # An object owned by shard "a" scheduled into shard "b" without ever
    # crossing a portal: the inline-mode aliasing bug the forked mode can't
    # even express.
    with causality_sanitizer() as tap:
        shard_a = Shard("a", 0, seed=3)
        shard_b = Shard("b", 1, seed=3)
        contraband = tap.track(_packet(), "a")
        with pytest.raises(CausalityViolation) as exc:
            shard_b.sim.call_later(0.1, lambda p: None, contraband)
        msg = str(exc.value)
        assert "smuggled-object" in msg
        assert "shard 'b'" in msg and "'a'" in msg
        assert "t=" in msg
        shard_a.sim.close()
        shard_b.sim.close()


def test_smuggled_receiver_and_closure_are_flagged():
    with causality_sanitizer(strict=False) as tap:
        shard_a = Shard("a", 0, seed=3)
        shard_b = Shard("b", 1, seed=3)
        # Bound method whose receiver belongs to the other shard.
        sink = tap.track(_Sink(), "a")
        shard_b.sim.call_later(0.1, sink.receive)
        # Closure capturing the other shard's simulator.
        foreign_sim = shard_a.sim  # tagged by on_shard

        def poke():
            return foreign_sim.now

        shard_b.sim.call_later(0.1, poke)
        shard_a.sim.close()
        shard_b.sim.close()
    kinds = [v.kind for v in tap.violations]
    assert kinds == ["smuggled-object", "smuggled-object"]
    assert all(v.shard == "b" for v in tap.violations)


def test_portal_crossing_transfers_ownership():
    # The sanctioned path: after routing, the packet belongs to the
    # destination shard — re-scheduling it there is legal.
    with causality_sanitizer() as tap:
        sharded = ShardedSimulation(echo_builders(), 42)
        sharded.run(0.1)
    # Every packet that crossed is now owned by whichever shard it landed
    # in; no violation was recorded for the echo-back path.
    assert not tap.violations
    assert tap.envelopes_checked > 0


def test_sanitizer_survives_parallel_fork():
    # Taps are inherited across the worker fork; a clean run must stay
    # clean and bit-identical to the unsanitized run.
    with causality_sanitizer():
        sanitized = ShardedSimulation(echo_builders(), 42, parallel=True)
        sanitized_res = sanitized.run(1.0)
    plain = ShardedSimulation(echo_builders(), 42, parallel=True)
    plain_res = plain.run(1.0)
    assert sanitized_res == plain_res
    assert sanitized.boundary_digest == plain.boundary_digest


def test_describe_counts():
    tap = CausalitySanitizer()
    assert "0 shard(s)" in tap.describe()
    assert "0 violation(s)" in tap.describe()
