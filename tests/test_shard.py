"""Sharded simulation: lookahead validation, envelope routing, determinism.

The conservative-lookahead contract: inline workers and process workers must
route the identical envelope stream (refereed by
``ShardedSimulation.boundary_digest``, pinned to the retired reference
engine's golden value) and produce identical per-shard results — and those
results must match the monolithic single-heap twin of the same topology.
"""

import gc
import hashlib
import pickle

import pytest

from repro.metrics import METRICS
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
    _ProcessWorker,
    _Worker,
    canonical_envelope,
    decode_envelopes,
    encode_envelopes,
)
from tests.test_replay_golden import load_golden
from tests.wire_fuzz import sweep_truncations

LEFT_ADDR = ipv4("10.7.0.1")
RIGHT_ADDR = ipv4("10.7.0.2")
CROSS_DELAY = 2e-3
ECHO_PORT = 7000


INF = float("inf")


def build_left(shard, n_packets=20, delay_s=CROSS_DELAY, dst_shard="right",
               promises=False):
    """Sender shard: jittered UDP pings across the portal, counts echoes.

    ``promises=True`` registers the honest earliest-output-time promise: the
    node owns the portal, so a ping enters it in the event that fires it and
    the next ping's fire time (``inf`` after the last) is a sound bound.
    """
    sim = shard.sim
    node = Node(sim, "left")
    iface = wire_cross_shard(
        shard, node, LEFT_ADDR, out_port="l->r", in_port="r->l",
        dst_shard=dst_shard, delay_s=delay_s,
    )
    node.routes.add(Prefix(RIGHT_ADDR, 32), iface)
    sock = UdpStack(node).bind(ECHO_PORT)
    rng = shard.rngs.stream("tx")
    stats = {"sent": 0, "echoed": 0}

    next_tx = [0.0]

    def tx():
        for i in range(n_packets):
            gap = rng.random() * 0.01
            next_tx[0] = sim.now + gap
            yield sim.timeout(gap)
            sock.sendto(bytes([i % 251]) * 64, RIGHT_ADDR, ECHO_PORT)
            stats["sent"] += 1
        next_tx[0] = INF

    def rx():
        while True:
            yield sock.recvfrom()
            stats["echoed"] += 1

    sim.process(tx())
    sim.process(rx())
    if promises:
        shard.egress_promise(lambda: next_tx[0])
    shard.result_fn = lambda: dict(stats)


def build_right(shard, delay_s=CROSS_DELAY, promises=False):
    """Echo shard: bounces every datagram back through the portal.

    It only ever reacts to an inbound envelope, which the coordinator's
    pending-arrival term covers, so its honest promise is ``inf``.
    """
    sim = shard.sim
    node = Node(sim, "right")
    iface = wire_cross_shard(
        shard, node, RIGHT_ADDR, out_port="r->l", in_port="l->r",
        dst_shard="left", delay_s=delay_s,
    )
    node.routes.add(Prefix(LEFT_ADDR, 32), iface)
    sock = UdpStack(node).bind(ECHO_PORT)
    stats = {"received": 0}

    def echo():
        while True:
            payload, (src, sport) = yield sock.recvfrom()
            stats["received"] += 1
            sock.sendto(payload, src, sport)

    sim.process(echo())
    if promises:
        shard.egress_promise(lambda: INF)
    shard.result_fn = lambda: dict(stats)


def echo_builders(promises=False, **left_kw):
    return {
        "left": (build_left, {"promises": promises, **left_kw}),
        "right": (build_right, {"promises": promises}),
    }


def booked(run):
    """``(run(), increments)``: every METRICS counter ``run`` moved.

    Garbage is collected first: a simulation an earlier test left unclosed
    still holds suspended processes, and when the collector finalizes one
    (a proxy handler parked on a read runs ``finally: conn.close()``) it
    sends a segment and bumps the process-global counters in the middle of
    whatever run is being booked.
    """
    gc.collect()
    before = {c.name: c.value for c in METRICS.counters()}
    result = run()
    moved = {c.name: c.value - before.get(c.name, 0) for c in METRICS.counters()}
    return result, {name: n for name, n in moved.items() if n}


def run_echo(seed=42, until=1.0, builders=None, **kwargs):
    if builders is None:
        builders = echo_builders()
    sharded = ShardedSimulation(builders, seed, **kwargs)
    results = sharded.run(until)
    return sharded, results


def test_echo_across_portal_completes():
    sharded, results = run_echo()
    assert results["left"]["sent"] == 20
    assert results["right"]["received"] == 20
    assert results["left"]["echoed"] == 20
    assert sharded.envelopes_routed == 40  # 20 pings + 20 echoes
    assert sharded.lookahead == CROSS_DELAY


def test_process_workers_match_inline():
    inline, inline_res = run_echo(parallel=False)
    procs, procs_res = run_echo(parallel=True)
    assert procs_res == inline_res
    assert procs.boundary_digest == inline.boundary_digest
    assert procs.windows == inline.windows


def echo_golden_row():
    sharded, results = run_echo()
    return {
        "boundary_digest": sharded.boundary_digest,
        "windows": sharded.windows,
        "results": results,
    }


def test_reference_engine_matches_fast_path():
    """The retired reference engine's last ``run_echo`` output (frozen in
    tests/golden/replay_digests.json) is what the surviving engine routes."""
    assert echo_golden_row() == load_golden()["shard_echo"]


def test_seed_changes_boundary_digest():
    a, _ = run_echo(seed=1)
    b, _ = run_echo(seed=2)
    assert a.boundary_digest != b.boundary_digest  # jitter differs per seed


def test_lookahead_must_not_exceed_link_delay():
    with pytest.raises(LookaheadError):
        ShardedSimulation(echo_builders(), 42, lookahead=10 * CROSS_DELAY)


def test_lookahead_must_be_positive():
    with pytest.raises(LookaheadError):
        ShardedSimulation(echo_builders(), 42, lookahead=0.0)


def test_zero_delay_portal_rejected():
    # A zero-delay cross-shard link leaves no lookahead window at all.
    with pytest.raises(LookaheadError):
        ShardedSimulation(echo_builders(delay_s=0.0), 42)


def test_egress_to_unknown_shard_rejected():
    with pytest.raises(ShardError):
        ShardedSimulation(echo_builders(dst_shard="nowhere"), 42)


def test_egress_without_matching_ingress_rejected():
    builders = {"left": (build_left, {})}  # no "right" shard at all
    with pytest.raises(ShardError):
        ShardedSimulation(builders, 42)


def test_link_counters_aggregate_across_workers():
    """Regression: a forked worker's METRICS writes died with the child, and
    only the link counters were carried home, so ``parallel=True`` booked
    no engine, UDP or other layer's counts.  Every reply carries the
    shard's counter increments, so both modes book identical totals."""
    _, inline = booked(lambda: run_echo(parallel=False))
    _, forked = booked(lambda: run_echo(parallel=True))
    assert inline == forked
    assert inline["link.tx_packets"] >= 40  # 20 pings + 20 echoes crossed
    assert inline["link.tx_bytes"] > 0
    assert inline["sim.steps"] > 0


def build_burst(shard, n_packets, queue_packets):
    """Sender shard: one same-instant burst of ``n_packets`` datagrams into a
    portal whose queue holds ``queue_packets``."""
    sim = shard.sim
    node = Node(sim, "left")
    iface = wire_cross_shard(
        shard, node, LEFT_ADDR, out_port="l->r", in_port="r->l",
        dst_shard="right", delay_s=CROSS_DELAY, queue_packets=queue_packets,
    )
    node.routes.add(Prefix(RIGHT_ADDR, 32), iface)
    sock = UdpStack(node).bind(ECHO_PORT)
    accepted = [0]

    def burst():
        for _ in range(n_packets):
            accepted[0] += sock.sendto(b"x" * 64, RIGHT_ADDR, ECHO_PORT)

    sim.call_at(1e-3, burst)
    shard.result_fn = lambda: {"accepted": accepted[0]}


@pytest.mark.parametrize("parallel", [False, True])
def test_portal_queue_overflow_books_queue_drops(parallel):
    """Regression: a full portal queue used to count the drop only on the
    portal itself — no ``link.queue_drops`` in the shard ledger, no
    ``queue_drop`` trace record — so a cross-zone overflow showed zero drops
    in METRICS.  One packet serializes, four wait, fifteen are dropped."""
    from repro.metrics import RECORDER

    drops = METRICS.counter("link.queue_drops")
    before = drops.value
    builders = {
        "left": (build_burst, {"n_packets": 20, "queue_packets": 4}),
        "right": (build_right, {}),
    }
    with RECORDER.recording():
        RECORDER.clear()
        _, results = run_echo(builders=builders, parallel=parallel)
        recorded = RECORDER.tally().get("link.queue_drop", 0)
    assert results["left"]["accepted"] == 5
    assert results["right"]["received"] == 5
    assert drops.value - before == 15
    # The flight recorder is per process: a forked shard's records stay in
    # the child, the inline shard's land here.
    assert recorded == (0 if parallel else 15)


# --- adaptive lookahead -------------------------------------------------------


def test_adaptive_digest_matches_static():
    """The digest referee must be invariant under the window schedule: an
    adaptive run digests the identical canonical envelope stream as the
    static-lookahead run, with no more windows than the static schedule."""
    adaptive, adaptive_res = run_echo(adaptive=True)
    static, static_res = run_echo(adaptive=False)
    assert adaptive_res == static_res
    assert adaptive.boundary_digest == static.boundary_digest
    assert adaptive.windows <= static.windows
    assert adaptive.stretched_windows > 0  # jittered pings leave idle gaps


def test_adaptive_process_matches_adaptive_inline():
    inline, inline_res = run_echo(parallel=False, adaptive=True)
    procs, procs_res = run_echo(parallel=True, adaptive=True)
    assert procs_res == inline_res
    assert procs.boundary_digest == inline.boundary_digest
    assert procs.windows == inline.windows


class _Recording(ShardedSimulation):
    """Logs every barrier with the peeks and EOTs read at it and the
    envelopes routed there, to re-derive what the coordinator computed."""

    def __init__(self, *args, **kwargs):
        self.log = []
        super().__init__(*args, **kwargs)

    def _sync_window(self, window_end):
        outs = super()._sync_window(window_end)
        self.log.append((window_end, tuple(self._peeks), tuple(self._eots), list(outs)))
        return outs


@pytest.mark.parametrize(
    "parallel, adaptive", [(False, False), (False, True), (True, False), (True, True)]
)
def test_digest_is_the_sorted_canonical_envelope_stream(parallel, adaptive):
    """The boundary digest is a SHA-256 over every routed envelope's
    canonical form in global ``(arrival, src_index, seq)`` order, whatever
    the schedule or transport."""
    sharded = _Recording(echo_builders(), 42, parallel=parallel, adaptive=adaptive)
    sharded.run(1.0)
    routed = [env for *_, outs in sharded.log for env in outs]
    routed.sort(key=lambda env: (env.arrival, env.src_index, env.seq))
    assert len({(e.arrival, e.src_index, e.seq) for e in routed}) == len(routed) == 40
    stream = hashlib.sha256(b"".join(canonical_envelope(env) for env in routed))
    assert sharded.boundary_digest == stream.hexdigest()
    assert sharded.boundary_digest == load_golden()["shard_echo"]["boundary_digest"]


@pytest.mark.parametrize("adaptive", [False, True])
def test_window_schedule_is_the_lookahead_bound(adaptive):
    """Every barrier re-derived: one lookahead past the last, or (adaptive)
    one lookahead past the earliest possible send, ``min(EOTs, routed
    arrivals)``, when that is later; capped at ``until``; and no envelope
    routed at a barrier lands before it."""
    until = 1.0
    sharded = _Recording(echo_builders(promises=True), 42, adaptive=adaptive)
    sharded.run(until)
    lookahead = sharded.lookahead
    expected, stretched = min(lookahead, until), 0
    for end, peeks, eots, outs in sharded.log:
        assert end == expected
        assert all(env.arrival >= end for env in outs)
        next_arrival = min((env.arrival for env in outs), default=INF)
        if next_arrival == INF and min(peeks) == INF:
            break
        next_t = min(min(eots), next_arrival)
        expected = end + lookahead
        if adaptive and next_t + lookahead > expected:
            expected = next_t + lookahead
            stretched += 1
        expected = min(expected, until)
    assert (end, stretched) == (sharded.log[-1][0], sharded.stretched_windows)
    assert (stretched > 0) == adaptive


def test_sync_stats_shape():
    sharded, _ = run_echo(parallel=False)
    stats = sharded.sync_stats()
    assert stats["windows"] == sharded.windows
    assert stats["envelopes_routed"] == 40
    assert stats["envelopes_per_window"] == pytest.approx(
        40 / sharded.windows
    )
    assert set(stats["per_shard"]) == {"left", "right"}
    assert stats["window_wall_s"] > 0.0
    for row in stats["per_shard"].values():
        assert set(row) == {
            "busy_s", "cpu_s", "idle_fraction", "frame_bytes_tx", "frame_bytes_rx",
        }
        assert row["cpu_s"] > 0.0  # timed inside the worker, as forked
        assert row["idle_fraction"] is None  # no barrier to wait on inline


def test_sync_stats_report_the_same_keys_in_both_transports():
    inline, _ = run_echo(parallel=False)
    forked, _ = run_echo(parallel=True)
    a, b = inline.sync_stats(), forked.sync_stats()
    assert a.keys() == b.keys()
    for stats in (a, b):
        for row in stats["per_shard"].values():
            assert row.keys() == a["per_shard"]["left"].keys()
            assert row["busy_s"] > 0.0
            assert row["cpu_s"] > 0.0
    # The same bytes cross both transports.
    assert a["frame_bytes_tx"] == b["frame_bytes_tx"] > 0
    assert a["frame_bytes_rx"] == b["frame_bytes_rx"] > 0


def test_sync_stats_forked_reports_cpu_beside_wall():
    sharded, _ = run_echo(parallel=True)
    for row in sharded.sync_stats()["per_shard"].values():
        # CPU time given to the worker, next to the wall time it spent in
        # its windows; both accumulate over every window of the run.
        assert row["busy_s"] > 0.0
        assert row["cpu_s"] > 0.0
        assert 0.0 <= row["idle_fraction"] <= 1.0


# --- earliest-output-time promises ---------------------------------------------

BEACON_ADDRS = {"za": ipv4("10.8.0.1"), "zb": ipv4("10.8.0.2")}
BEACON_PORT = 7100


def build_beacon(shard, peer, promise):
    """One zone of a two-zone heartbeat pair, busy with local work.

    A 1 ms local ticker keeps the next live event within a millisecond of
    every barrier — the condition under which ``peek + lookahead`` windows
    never stretch — while the only portal traffic is a 50 ms beacon the
    node sends itself.  ``promise`` registers the beacon's next fire time.
    """
    sim = shard.sim
    me = shard.name
    node = Node(sim, me)
    iface = wire_cross_shard(
        shard, node, BEACON_ADDRS[me], out_port=f"{me}->{peer}",
        in_port=f"{peer}->{me}", dst_shard=peer, delay_s=CROSS_DELAY,
    )
    node.routes.add(Prefix(BEACON_ADDRS[peer], 32), iface)
    sock = UdpStack(node).bind(BEACON_PORT)
    rng = shard.rngs.stream("beacon")
    stats = {"sent": 0, "heard": 0, "ticks": 0}
    next_fire = [0.0]

    def tx():
        next_fire[0] = gap = rng.random() * 0.05  # desynchronised start
        yield sim.timeout(gap)
        while True:
            sock.sendto(b"beacon:%d" % stats["sent"], BEACON_ADDRS[peer],
                        BEACON_PORT)
            stats["sent"] += 1
            next_fire[0] = sim.now + 0.05
            yield sim.timeout(0.05)

    def rx():
        while True:
            yield sock.recvfrom()
            stats["heard"] += 1

    def tick():
        stats["ticks"] += 1
        sim.call_later(1e-3, tick)

    sim.process(tx())
    sim.process(rx())
    sim.call_later(1e-3, tick)
    if promise:
        shard.egress_promise(lambda: next_fire[0])
    shard.result_fn = lambda: dict(stats)


def run_beacons(promise, until=1.0, **kwargs):
    builders = {
        "za": (build_beacon, {"peer": "zb", "promise": promise}),
        "zb": (build_beacon, {"peer": "za", "promise": promise}),
    }
    sharded = ShardedSimulation(builders, 42, **kwargs)
    return sharded, sharded.run(until)


@pytest.mark.parametrize("parallel", [False, True])
def test_promise_collapses_windows_to_envelope_count(parallel):
    """The barrier waits for the next possible cross-shard *send*: with the
    beacon's timer promised, a busy shard's window count follows the
    envelope count instead of ``sim_s / lookahead`` — and the simulation is
    the one the static schedule and the promise-less run compute."""
    promised, promised_res = run_beacons(promise=True, parallel=parallel)
    static, static_res = run_beacons(promise=True, adaptive=False)
    plain, plain_res = run_beacons(promise=False)
    assert promised.envelopes_routed == 40
    assert promised.windows <= 2 * promised.envelopes_routed + 2
    assert plain.windows > 300  # peek-bound: 1.0 s in 2-3 ms windows
    assert static.windows == 500  # adaptive=False ignores the promise
    for other, other_res in ((static, static_res), (plain, plain_res)):
        assert promised_res == other_res
        assert promised.boundary_digest == other.boundary_digest
        assert promised.envelopes_routed == other.envelopes_routed
    assert promised_res["za"]["ticks"] >= 999  # the local work all ran


def test_echo_window_counts_without_promises_are_unchanged():
    """No promise registered means ``eot = peek``: the echo scenarios keep
    the window schedule they had before promises existed."""
    adaptive, _ = run_echo()
    static, _ = run_echo(adaptive=False)
    assert (adaptive.windows, adaptive.stretched_windows) == (43, 42)
    assert static.windows == 59


@pytest.mark.parametrize("parallel", [False, True])
def test_echo_with_promises_matches_without(parallel):
    promised, promised_res = run_echo(
        builders=echo_builders(promises=True), parallel=parallel
    )
    plain, plain_res = run_echo()
    assert promised_res == plain_res
    assert promised.boundary_digest == plain.boundary_digest
    assert promised.windows <= plain.windows


# --- early exit ---------------------------------------------------------------


def _check_exit_only_when_drained(parallel, promises):
    sharded, results = run_echo(
        until=1000.0, parallel=parallel,
        builders=echo_builders(n_packets=3, promises=promises),
    )
    # All traffic completed before exit: nothing was abandoned in flight.
    assert results["left"]["sent"] == 3
    assert results["right"]["received"] == 3
    assert results["left"]["echoed"] == 3
    assert sharded.envelopes_routed == 6
    # And the loop exited long before the nominal horizon's window count
    # (1000 s / 2 ms lookahead = 500k static windows).
    assert sharded.windows < 1000
    return sharded


def _check_exit_waits_for_later_window_envelope(parallel, promises):
    builders = {
        "left": (build_left,
                 {"n_packets": 1, "delay_s": 50e-3, "promises": promises}),
        "right": (build_right, {"delay_s": 50e-3, "promises": promises}),
    }
    sharded = ShardedSimulation(builders, 42, lookahead=2e-3, parallel=parallel)
    results = sharded.run(1000.0)
    assert results["right"]["received"] == 1
    assert results["left"]["echoed"] == 1
    assert sharded.envelopes_routed == 2
    return sharded


@pytest.mark.parametrize("parallel", [False, True])
def test_early_exit_only_when_drained(parallel):
    """``run(until=...)`` with a huge horizon must stop as soon as every
    shard is idle AND nothing is in flight — but not a window earlier."""
    sharded = _check_exit_only_when_drained(parallel, promises=False)
    assert sharded.windows == 10  # unchanged by the EOT barrier


@pytest.mark.parametrize("parallel", [False, True])
def test_early_exit_waits_for_later_window_envelope(parallel):
    """The trap: every peek is ``inf`` while an envelope is still in flight,
    arriving many windows later (50 ms link delay, 2 ms lookahead).  The
    coordinator must keep running until it lands, not exit at the first
    all-idle barrier."""
    sharded = _check_exit_waits_for_later_window_envelope(parallel, promises=False)
    assert sharded.windows == 4  # unchanged by the EOT barrier


@pytest.mark.parametrize("parallel", [False, True])
def test_early_exit_is_keyed_on_peeks_not_promises(parallel):
    """Both early-exit scenarios again with promises registered: the echo
    shard reports ``eot = inf`` throughout and the sender does once its last
    ping is out, while echoes are still in flight or still to be answered.
    (``inf`` on the *sender* before that would be an unsound promise, and
    raises ``LookaheadError`` as it should.)"""
    _check_exit_only_when_drained(parallel, promises=True)
    _check_exit_waits_for_later_window_envelope(parallel, promises=True)


def build_ticker(shard, n_ticks, promise):
    """No portals, ``n_ticks`` local 1 ms timers, and a constant promise."""
    sim = shard.sim
    stats = {"ticks": 0}

    def tick():
        stats["ticks"] += 1
        if stats["ticks"] < n_ticks:
            sim.call_later(1e-3, tick)

    if n_ticks:
        sim.call_later(1e-3, tick)
    if promise is not None:
        shard.egress_promise(lambda: promise)
    shard.result_fn = lambda: dict(stats)


@pytest.mark.parametrize("parallel", [False, True])
def test_local_work_under_an_inf_promise_is_not_abandoned(parallel):
    """``eot = inf`` everywhere says "no output ever", not "nothing left to
    do": a shard with local work runs one window straight to ``until``."""
    builders = {
        "busy": (build_ticker, {"n_ticks": 50, "promise": INF}),
        "idle": (build_ticker, {"n_ticks": 0, "promise": INF}),
    }
    sharded = ShardedSimulation(builders, 42, lookahead=2e-3, parallel=parallel)
    results = sharded.run(0.1)
    assert results["busy"]["ticks"] == 50
    assert sharded.windows == 2  # [0, lookahead], then [lookahead, until]


# --- worker failure containment ----------------------------------------------


def build_bomb(shard, fuse_s=0.05):
    """A shard whose simulation raises mid-run (inside ``advance``)."""
    build_right(shard)

    def boom():
        raise RuntimeError("bomb went off")

    shard.sim.call_later(fuse_s, boom)


def test_failing_worker_stops_siblings():
    """Regression: a worker failing mid-window used to leak its live forked
    siblings.  Every worker process must be gone after ``run()`` raises."""
    builders = {
        "left": (build_left, {}),
        "right": (build_bomb, {}),
    }
    sharded = ShardedSimulation(builders, 42, parallel=True)
    with pytest.raises(ShardError, match="bomb went off"):
        sharded.run(1.0)
    for worker in sharded.workers.values():
        assert not worker._proc.is_alive()


def build_left_with_goodbye(shard):
    """The pinging shard, plus a process whose finalizer sends one datagram
    over an in-shard link when ``Simulator.close()`` abandons it."""
    build_left(shard)
    sim = shard.sim
    near, far = Node(sim, "near"), Node(sim, "far")
    iface, _, _ = wire(sim, near, far, addr_a=ipv4("10.8.0.1"), addr_b=ipv4("10.8.0.2"))
    near.routes.add(Prefix(ipv4("10.8.0.2"), 32), iface)
    sock = UdpStack(near).bind(ECHO_PORT)

    def goodbye():
        try:
            yield sim.event()
        finally:
            sock.sendto(b"bye", ipv4("10.8.0.2"), ECHO_PORT)

    sim.process(goodbye())


def test_failed_window_commits_no_counts_in_either_mode():
    """A window that raises commits none of its counter increments — not the
    failing shard's, not its siblings' — the windows before it commit all
    of theirs, and closing the failed shards books nothing (a forked child
    never runs its finalizers), under both transports alike."""

    def failed(parallel):
        builders = {"left": (build_left_with_goodbye, {}), "right": (build_bomb, {})}
        sharded = ShardedSimulation(builders, 42, parallel=parallel)
        with pytest.raises(ShardError, match="bomb went off"):
            sharded.run(1.0)

    _, inline = booked(lambda: failed(False))
    _, forked = booked(lambda: failed(True))
    assert inline == forked
    assert inline["link.tx_packets"] > 0  # pings before the bomb's window


def test_failing_worker_inline_mode_raises():
    builders = {
        "left": (build_left, {}),
        "right": (build_bomb, {}),
    }
    sharded = ShardedSimulation(builders, 42, parallel=False)
    with pytest.raises(ShardError) as exc:
        sharded.run(1.0)
    assert str(exc.value) == (
        "shard 'right' worker failed: RuntimeError at t=0.050000: bomb went off"
    )
    assert isinstance(exc.value.__cause__, RuntimeError)


def test_failed_inline_run_closes_every_shard():
    """Regression: an inline worker's ``stop()`` did nothing, so after a
    failed run no shard's simulator was closed and its suspended processes
    were left for the garbage collector to finalize at some later point."""
    builders = {
        "left": (build_left, {}),
        "right": (build_bomb, {}),
    }
    sharded = ShardedSimulation(builders, 42)
    sims = [worker.shard.sim for worker in sharded.workers.values()]
    with pytest.raises(Exception, match="bomb went off"):
        sharded.run(1.0)
    for sim in sims:
        assert not sim._processes
        assert not sim._heap


def test_failing_builder_inline_is_a_named_shard_error():
    def bad_builder(shard):
        raise ValueError("builder exploded")

    builders = {
        "left": (build_left, {}),
        "right": (bad_builder, {}),
    }
    with pytest.raises(ShardError) as exc:
        ShardedSimulation(builders, 42)
    assert str(exc.value) == "shard 'right' worker failed: ValueError: builder exploded"
    assert isinstance(exc.value.__cause__, ValueError)


def test_failing_builder_stops_siblings():
    """A builder crash during construction must not leak the already-forked
    sibling workers either."""

    def bad_builder(shard):
        raise ValueError("builder exploded")

    builders = {
        "left": (build_left, {}),
        "right": (bad_builder, {}),
    }
    with pytest.raises(ShardError, match="builder exploded"):
        ShardedSimulation(builders, 42, parallel=True)


def test_dead_child_raises_named_shard_error():
    """Regression: a blocking recv on a dead child used to deadlock.  The
    liveness check must fail fast with a ShardError naming the shard."""
    sharded = ShardedSimulation(echo_builders(), 42, parallel=True)
    victim = sharded.workers["right"]
    victim._proc.terminate()
    victim._proc.join(timeout=5)
    with pytest.raises(ShardError, match="right"):
        sharded.run(1.0)
    for worker in sharded.workers.values():
        assert not worker._proc.is_alive()


def test_stop_is_idempotent_on_dead_child():
    sharded = ShardedSimulation(echo_builders(), 42, parallel=True)
    for worker in sharded.workers.values():
        worker._proc.terminate()
        worker._proc.join(timeout=5)
    for worker in sharded.workers.values():
        worker.stop()
        worker.stop()  # second stop must be a clean no-op


# --- hostile window frames ----------------------------------------------------


def _tap_sends(worker, mangle):
    """Route every command the coordinator sends ``worker`` through
    ``mangle(msg)`` (the same hook under both transports)."""
    send = worker._send

    def tampered(msg):
        send(mangle(msg))

    worker._send = tampered


def _first_loaded_window():
    """``(number, bytes)`` of the first window command that carries an
    envelope to the echo shard in a clean run."""
    sharded = ShardedSimulation(echo_builders(), 42)
    windows = []

    def record(msg):
        if msg[:1] == b"W":
            # The envelopes this command carries are still pending.
            windows.append((msg, len(sharded._pending[1])))
        return msg

    _tap_sends(sharded.workers["right"], record)
    sharded.run(1.0)
    for number, (msg, n_envelopes) in enumerate(windows, 1):
        if n_envelopes:
            return number, msg
    raise AssertionError("no window carried an envelope")


def _run_with_window(parallel, number, replacement):
    """Run the echo pair, sending ``replacement`` in place of the echo
    shard's window command ``number``; every worker must be stopped after."""
    sharded = ShardedSimulation(echo_builders(), 42, parallel=parallel)
    seen = [0]

    def swap(msg):
        if msg[:1] == b"W":
            seen[0] += 1
            if seen[0] == number:
                return replacement
        return msg

    _tap_sends(sharded.workers["right"], swap)
    try:
        sharded.run(1.0)
    finally:
        for worker in sharded.workers.values():
            if parallel:
                assert not worker._proc.is_alive()
            else:
                assert not worker.shard.sim._processes


def test_truncated_window_command_is_a_shard_error_inline():
    number, msg = _first_loaded_window()
    sweep_truncations(
        msg, lambda cut: _run_with_window(False, number, cut), ShardError
    )


@pytest.mark.parametrize("parallel", [False, True])
def test_corrupt_window_command_is_a_named_shard_error(parallel):
    """A live worker's window command cut short or bit-flipped mid-run ends
    in a ``ShardError`` naming the shard, with its sibling stopped."""
    number, msg = _first_loaded_window()
    corrupted = [msg[:cut] for cut in (0, 9, len(msg) // 2, len(msg) - 1)]
    # The command byte, and the top bit of the pickle's protocol number.
    for pos, bit in ((0, 0x01), (2, 0x80)):
        flipped = bytearray(msg)
        flipped[pos] ^= bit
        corrupted.append(bytes(flipped))
    for bad in corrupted:
        with pytest.raises(ShardError) as exc:
            _run_with_window(parallel, number, bad)
        assert str(exc.value).startswith(
            "shard 'right' worker failed: ShardError at t="
        )
        assert not isinstance(exc.value, LookaheadError)


# --- envelope frame codec -----------------------------------------------------


def test_envelope_frame_roundtrip():
    envelopes = [
        Envelope(
            arrival=0.125 + i * 1e-9, src_shard="left", src_index=0,
            seq=i + 1, dst_shard="right", port_id="l->r",
            packet=Packet(headers=(), payload=bytes([i]) * 32),
            sent_now=0.1,
        )
        for i in range(5)
    ]
    buf = encode_envelopes(envelopes)
    decoded, offset = decode_envelopes(buf)
    assert offset == len(buf)
    assert decoded == envelopes
    # Arrival doubles survive bit-exactly (the determinism-critical field).
    assert [e.arrival for e in decoded] == [e.arrival for e in envelopes]


def test_envelope_frame_roundtrip_empty():
    buf = encode_envelopes([])
    decoded, offset = decode_envelopes(buf)
    assert decoded == []
    assert offset == len(buf)


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("tag", [b"P", b"W", b"F"])
def test_message_with_a_trailing_byte_is_a_named_shard_error(
    monkeypatch, parallel, tag
):
    """A window command, or a ports or result reply, with one byte after its
    end is refused, not served or read as if it ended there."""
    if tag == b"W":
        number, msg = _first_loaded_window()
        with pytest.raises(ShardError) as exc:
            _run_with_window(parallel, number, msg + b"\0")
        assert str(exc.value).startswith("shard 'right' worker failed: ShardError at t=")
        assert "trailing" in str(exc.value)
        return
    for cls in (_Worker, _ProcessWorker):

        def recv(self, recv=cls._recv):
            msg = recv(self)
            return msg + b"\0" if msg[:1] == tag else msg

        monkeypatch.setattr(cls, "_recv", recv)
    reply = "ports" if tag == b"P" else "result"
    with pytest.raises(ShardError, match=f"shard 'left' sent a corrupt {reply} reply: .*trailing"):
        run_echo(parallel=parallel)


def test_envelope_frame_cut_short_corrupt_or_trailing_is_a_shard_error():
    frame = encode_envelopes(
        [
            Envelope(
                arrival=0.5, src_shard="left", src_index=0, seq=1,
                dst_shard="right", port_id="l->r",
                packet=Packet(headers=(), payload=b"x" * 8),
            )
        ]
    )
    sweep_truncations(frame, decode_envelopes, ShardError)
    with pytest.raises(ShardError, match="corrupt"):
        decode_envelopes(b"\xff" + frame[1:])
    with pytest.raises(ShardError, match="1 trailing bytes"):
        decode_envelopes(frame + b"\0")
    with pytest.raises(ShardError, match="corrupt envelope rows"):
        decode_envelopes(pickle.dumps([("not", "a row")]))


def test_hostile_window_command_or_reply_is_a_named_shard_error(monkeypatch):
    """Whatever the codec: a window command or reply cut at any byte, a
    corrupt pickle, a metric name that is not utf-8 or a metric key that
    does not parse ends in a ShardError naming the shard, and none of them
    books a counter."""
    sharded = ShardedSimulation(echo_builders(), 42)
    worker = sharded.workers["left"]
    sent = []
    _tap_sends(worker, lambda msg: sent.append(msg) or msg)
    try:
        worker.start_window(0.05, [])
        command, reply = sent[0], worker._recv()
        del worker._send  # back to the untapped transport
        counts = dict(worker.collect_window()[5])
        assert counts["sim.steps"] > 0 and counts["link.tx_packets"] > 0

        def send(raw):
            worker._send(raw)

        def collect(raw):
            worker._reply = raw
            worker.collect_window()

        def named(call):
            """``call``, whose ShardError must name the shard."""

            def run(raw):
                try:
                    call(raw)
                except ShardError as exc:
                    assert str(exc).startswith("shard 'left' "), exc
                    raise

            return run

        def hostile():
            sweep_truncations(command, named(send), ShardError)
            sweep_truncations(reply, named(collect), ShardError)
            # Not a pickle opcode; a pickle protocol this Python does not
            # know; a byte after the end.
            served = "^shard 'left' worker failed: ShardError at t=0.050000: corrupt"
            for bad in (b"\xff" + command[2:], b"\x80\x85" + command[3:]):
                with pytest.raises(ShardError, match=served):
                    send(command[:1] + bad)
            corrupt_reply = "^shard 'left' sent a corrupt window reply: "
            for bad in (b"\xff" + reply[2:], b"\x80\x85" + reply[3:], reply[1:] + b"\0"):
                with pytest.raises(ShardError, match=corrupt_reply + "corrupt"):
                    collect(reply[:1] + bad)
            assert reply.count(b"sim.steps") == 1
            with pytest.raises(ShardError, match="^shard 'left' .*utf-8"):
                collect(reply.replace(b"sim.steps", b"\xffim.steps"))
            # A histogram increment's key must parse: a bucket index or "ns".
            rewind = METRICS.rewind
            for key in ("tcp.rtt_s#x", "tcp.rtt_s#", "#5", "link.tx_packets#5"):
                monkeypatch.setattr(METRICS, "rewind", lambda: [*rewind(), (key, 1)])
                worker.start_window(0.05, [])
                monkeypatch.undo()
                with pytest.raises(ShardError, match=corrupt_reply + ".*metric"):
                    worker.collect_window()
                assert key not in {c.name for c in METRICS.counters()}

        names = {c.name for c in METRICS.counters()}
        assert booked(hostile)[1] == {}
        assert {c.name for c in METRICS.counters()} == names
    finally:
        sharded._stop_workers()


def test_envelope_frame_interns_strings():
    """The pickle memo stores each shard/port id once, not per envelope."""
    envelopes = [
        Envelope(
            arrival=float(i), src_shard="left", src_index=0, seq=i,
            dst_shard="right", port_id="l->r",
            packet=Packet(headers=(), payload=b"x"),
        )
        for i in range(100)
    ]
    buf = encode_envelopes(envelopes)
    assert buf.count(b"l->r") == 1


# --- scale-scenario equivalence ----------------------------------------------


def test_scale_scenario_sharded_matches_monolithic():
    """The RUBiS scale scenario: per-zone stats from the sharded build must
    equal the monolithic twin's bit-for-bit (same RNG namespaces, same
    zone-local event order), and so must every METRICS counter and every
    histogram summary, inline and forked alike."""
    from repro.scenarios.rubis_scale import (
        ScaleParams,
        build_scale_monolithic,
        scale_builders,
    )

    p = ScaleParams(
        n_zones=2, n_clients=2, n_web=1, n_filler_vms=2,
        n_racks=1, hosts_per_rack=2, media_prob=0.25, media_window=65536,
    )
    until = 3.0

    def sharded_run(parallel):
        sharded = ShardedSimulation(scale_builders(p), 7, parallel=parallel)
        return sharded, sharded.run(until)

    def monolithic_run():
        sim, zones = build_scale_monolithic(7, p)
        sim.run(until=until)
        mono_res = {z.name: z.stats.as_dict() for z in zones}
        sim.close()
        return mono_res

    def observed(run):
        """``booked(run)`` plus the summary of every histogram ``run`` fed."""
        METRICS.reset()
        result = booked(run)
        hists = METRICS.snapshot()["histograms"].items()
        return (*result, {name: s for name, s in hists if s["count"]})

    (sharded, shard_res), inline_counts, inline_hists = observed(
        lambda: sharded_run(False)
    )
    (_, forked_res), forked_counts, forked_hists = observed(lambda: sharded_run(True))
    mono_res, mono_counts, mono_hists = observed(monolithic_run)

    assert shard_res == forked_res == mono_res
    assert inline_counts == forked_counts
    assert inline_hists == forked_hists == mono_hists
    assert inline_hists["tcp.rtt_s"]["count"] > 0
    assert inline_hists["proxy.request_s"]["count"] > 0
    # sim.steps counts heap pops, and a sharded run's barriers settle dead
    # entries through peek_live(), which pops them without counting a step.
    def booked_by_the_model(counts):
        return {
            name: n for name, n in counts.items()
            if name != "sim.steps" and not name.startswith("shard.sync.")
        }

    assert booked_by_the_model(inline_counts) == booked_by_the_model(mono_counts)
    assert inline_counts["tcp.segments_sent"] > 0
    assert sum(z["sessions"] for z in shard_res.values()) > 0
    assert sum(z["errors"] for z in shard_res.values()) == 0
    assert sum(z["heartbeats_recv"] for z in shard_res.values()) > 0
    assert sharded.envelopes_routed > 0  # heartbeats crossed the boundary
    # The border routers promise their heartbeat timers, so the barrier
    # count follows the envelopes (3.0 s / 5 ms = 600 static windows).
    assert sharded.windows <= 2 * sharded.envelopes_routed + 2


def test_fleet_sharded_matches_monolithic():
    """Zone-spanning tenant fleets: cross-shard UDP chat (including multi-hop
    forwarding through intermediate zones) must produce identical stats in
    the sharded build and the monolithic twin."""
    from repro.scenarios.rubis_scale import (
        ScaleParams,
        build_scale_monolithic,
        scale_builders,
    )

    p = ScaleParams(
        n_zones=3, n_clients=1, n_web=1, n_filler_vms=2,
        n_racks=1, hosts_per_rack=2,
        n_fleets=3, fleet_size=3, fleet_placement="scatter",
    )
    until = 2.0
    sharded = ShardedSimulation(scale_builders(p), 7)
    shard_res = sharded.run(until)

    sim, zones = build_scale_monolithic(7, p)
    sim.run(until=until)
    mono_res = {z.name: z.stats.as_dict() for z in zones}
    sim.close()

    assert shard_res == mono_res
    assert sum(z["fleet_sent"] for z in shard_res.values()) > 0
    assert sum(z["fleet_recv"] for z in shard_res.values()) > 0


def test_fleet_transit_through_heartbeat_only_zone_matches_monolithic():
    """A 4-zone ring with one scattered fleet: members sit in z0, z1, z2 and
    the z2 -> z0 leg ties on the ring and goes clockwise through z3, which
    hosts no fleet member and so promises only its heartbeat timer.  The
    transit must come out of z3 exactly as the single-heap twin forwards
    it, stat for stat."""
    from repro.scenarios.rubis_scale import (
        ScaleParams,
        build_scale_monolithic,
        plan_fleet,
        scale_builders,
    )

    p = ScaleParams(
        n_zones=4, n_clients=1, n_web=1, n_filler_vms=2,
        n_racks=1, hosts_per_rack=2,
        n_fleets=1, fleet_size=3, fleet_placement="scatter",
    )
    assert sorted(z for z, _h, _a in plan_fleet(p).members.values()) == [0, 1, 2]
    until = 2.0
    sharded = ShardedSimulation(scale_builders(p), 7)
    shard_res = sharded.run(until)

    sim, zones = build_scale_monolithic(7, p)
    sim.run(until=until)
    mono_res = {z.name: z.stats.as_dict() for z in zones}
    sim.close()

    assert shard_res == mono_res
    assert shard_res["z0"]["fleet_recv"] > 0  # the two-hop leg delivered
    assert shard_res["z3"]["fleet_sent"] == shard_res["z3"]["fleet_recv"] == 0


def test_fleet_placement_decides_the_window_schedule():
    """Scattered fleet VMs are several hops from their portal, so their
    zones promise ``peek_live`` and keep the peek-bound schedule; affinity
    placement leaves only the heartbeat promises and the windows collapse."""
    import dataclasses

    from repro.scenarios.rubis_scale import ScaleParams, scale_builders

    base = ScaleParams(
        n_zones=2, n_clients=1, n_web=1, n_filler_vms=2,
        n_racks=1, hosts_per_rack=2, n_fleets=2, fleet_size=2,
    )
    runs = {}
    for placement in ("affinity", "scatter"):
        p = dataclasses.replace(base, fleet_placement=placement)
        runs[placement] = ShardedSimulation(scale_builders(p), 7)
        runs[placement].run(1.0)
    affinity, scatter = runs["affinity"], runs["scatter"]
    assert affinity.windows <= 2 * affinity.envelopes_routed + 2
    assert scatter.windows > 100  # about 1.0 s / 5 ms


def test_fleet_affinity_placement_cuts_cross_shard_traffic():
    """The shard-aware placement pass must route fewer envelopes across
    shard boundaries than the scatter baseline on the same fleet load."""
    import dataclasses

    from repro.scenarios.rubis_scale import ScaleParams, plan_fleet, scale_builders

    base = ScaleParams(
        n_zones=3, n_clients=1, n_web=1, n_filler_vms=2,
        n_racks=1, hosts_per_rack=2, n_fleets=3, fleet_size=3,
    )
    counts = {}
    for placement in ("affinity", "scatter"):
        p = dataclasses.replace(base, fleet_placement=placement)
        sharded = ShardedSimulation(scale_builders(p), 7)
        sharded.run(2.0)
        counts[placement] = sharded.envelopes_routed
    assert counts["affinity"] < counts["scatter"]
    affinity_quality = plan_fleet(base).quality
    scatter_quality = plan_fleet(
        dataclasses.replace(base, fleet_placement="scatter")
    ).quality
    assert (
        affinity_quality["cross_weight_fraction"]
        < scatter_quality["cross_weight_fraction"]
    )
