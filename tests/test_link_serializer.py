"""The closed-form link serializer and the forwarding cache.

``Serializer`` computes a FIFO link's schedule at acceptance instead of
running a transmit timer.  These tests hold it to the timer model it
replaced (a straight-line reference written out below), to the shared loss
stream's draw order, to the cross-shard portal that shares its arithmetic,
and to its bookkeeping; the last group covers the per-``RouteTable``
forwarding cache that hands a transit hop its rewritten header and egress.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.metrics import METRICS
from repro.net.addresses import ipv4, prefix
from repro.net.link import Link, LinkEndpoint
from repro.net.node import Node
from repro.net.packet import IPHeader, Packet, UDPHeader, VirtualPayload
from repro.net.routing import FORWARD_CACHE_SIZE
from repro.net.topology import lan_pair, wire
from repro.sim import RngStreams, Simulator
from repro.sim.shard import Shard

SRC, DST = ipv4("10.0.0.1"), ipv4("10.0.0.2")


def timer_model(arrivals, sizes, bandwidth_bps, delay_s, queue_packets, ecn_threshold):
    """The transmit-timer serializer, written as one pass over the arrivals.

    An idle link starts a packet at its arrival; a busy one queues it (or
    drops it when ``queue_packets`` already wait, marking CE when at least
    ``ecn_threshold`` wait).  A transmission completing at ``done`` hands
    the next queued packet the serializer at ``done`` and delivers at
    ``done + delay_s``.  A completion at the same instant as an arrival
    fires after it (the arrival was scheduled first).  Returns
    ``(deliveries {index: time}, drops, ce)``.
    """
    deliveries: dict[int, float] = {}
    drops: set[int] = set()
    ce: set[int] = set()
    waiting: deque[int] = deque()
    current, done = None, None

    def complete_before(t):
        nonlocal current, done
        while done is not None and done < t:
            deliveries[current] = done + delay_s
            if waiting:
                current = waiting.popleft()
                done = done + sizes[current] * 8.0 / bandwidth_bps
            else:
                current = done = None

    for i, t in enumerate(arrivals):
        complete_before(t)
        if done is None:
            current, done = i, t + sizes[i] * 8.0 / bandwidth_bps
        elif len(waiting) >= queue_packets:
            drops.add(i)
        else:
            if ecn_threshold is not None and len(waiting) >= ecn_threshold:
                ce.add(i)
            waiting.append(i)
    complete_before(float("inf"))
    return deliveries, drops, ce


def bursty_arrivals(rng: random.Random, n: int) -> list[float]:
    """Arrival times mixing idle gaps, back-to-back packets and same-instant
    bursts long enough to overrun a small queue."""
    t, out = 0.0, []
    while len(out) < n:
        kind = rng.random()
        if kind < 0.1:
            out += [t] * rng.randint(5, 20)  # burst in one instant
        elif kind < 0.6:
            t += rng.expovariate(1e5)  # ~10 us: queues build
        else:
            t += rng.expovariate(2e3)  # ~0.5 ms: the link drains
        out.append(t)
    return out[:n]


def probe(i: int, size: int, src=SRC, dst=DST) -> Packet:
    """A packet of ``size`` wire bytes tagged with its index."""
    return Packet(
        (IPHeader(src=src, dst=dst, proto="probe"),),
        VirtualPayload(size - 20),
        {"i": i},
    )


def endpoint_with_sink(sim, **kw):
    """A lone ``LinkEndpoint`` delivering into a node that records
    ``index -> (arrival time, CE mark)``."""
    ep = LinkEndpoint(sim, **kw)
    node = Node(sim, "sink")
    ep.peer = node.add_interface("eth0", DST)
    seen: dict[int, tuple[float, bool]] = {}
    node.register_protocol(
        "probe", lambda n, p, i: seen.__setitem__(p.meta["i"], (sim.now, "ce" in p.meta))
    )
    return ep, seen


# -- (a) differential against the timer model --------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_matches_timer_model_exactly(seed):
    rng = random.Random(seed)
    n = 400
    arrivals = bursty_arrivals(rng, n)
    sizes = [rng.randint(40, 1500) for _ in range(n)]
    params = dict(bandwidth_bps=rng.choice([10e6, 100e6, 1e9]),
                  delay_s=rng.choice([0.0, 50e-6, 1e-3]),
                  queue_packets=8, ecn_threshold=3)
    sim = Simulator()
    ep, seen = endpoint_with_sink(sim, **params)
    accepted: dict[int, bool] = {}
    for i, (t, size) in enumerate(zip(arrivals, sizes)):
        sim.call_at(t, lambda i=i, size=size: accepted.__setitem__(i, ep.send(probe(i, size))))
    sim.run()

    deliveries, drops, ce = timer_model(arrivals, sizes, **params)
    assert drops, "the bursts never overran the queue"
    assert ce - drops, "no packet was CE-marked"
    assert {i for i, ok in accepted.items() if not ok} == drops
    assert {i: t for i, (t, _) in seen.items()} == deliveries  # exact floats
    assert {i for i, (_, marked) in seen.items() if marked} == ce
    assert ep.queue_drops == len(drops) and ep.ecn_marks == len(ce)


# -- (b) one loss stream shared by both directions -----------------------------

#: Lost packet indices per direction, recorded with the loss drawn when a
#: transmission completed; drawing at delivery must keep the stream's draw
#: order, so the same packets are lost.
PINNED_LOSSES = {
    "a_to_b": [12, 15, 16, 21, 22, 24, 27, 28, 35, 59, 76, 85, 88, 105, 106, 111,
               120, 141, 151, 180, 182, 208, 212, 247, 252, 253, 255, 257, 258,
               271, 277, 278, 280, 285],
    "b_to_a": [6, 8, 17, 18, 20, 22, 39, 64, 65, 73, 101, 102, 112, 117, 122, 126,
               185, 190, 195, 238, 243, 247, 248, 250, 252, 260, 262, 265, 266,
               267, 270, 294, 297, 298],
}


def test_shared_loss_stream_loses_the_pinned_packets():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=100e6, delay_s=2e-3, queue_packets=16,
                loss_rate=0.2, loss_rng=RngStreams(5).stream("loss"))
    a, b = Node(sim, "a"), Node(sim, "b")
    ia, ib = a.add_interface("eth0", SRC), b.add_interface("eth0", DST)
    link.connect(ia, ib)
    delivered = {"a_to_b": set(), "b_to_a": set()}
    a.register_protocol("probe", lambda n, p, i: delivered["b_to_a"].add(p.meta["i"]))
    b.register_protocol("probe", lambda n, p, i: delivered["a_to_b"].add(p.meta["i"]))
    rng = random.Random(11)
    accepted = {"a_to_b": set(), "b_to_a": set()}
    for name, iface, src, dst in (("a_to_b", ia, SRC, DST), ("b_to_a", ib, DST, SRC)):
        for i, t in enumerate(bursty_arrivals(rng, 300)):
            size = rng.randint(40, 1500)
            sim.call_at(
                t,
                lambda name=name, iface=iface, i=i, size=size, src=src, dst=dst: (
                    iface.send(probe(i, size, src, dst)) and accepted[name].add(i)
                ),
            )
    sim.run()
    lost = {name: sorted(accepted[name] - delivered[name]) for name in accepted}
    assert link.a_to_b.lost_packets == len(lost["a_to_b"])
    assert link.b_to_a.lost_packets == len(lost["b_to_a"])
    assert link.a_to_b.queue_drops and link.b_to_a.queue_drops  # queues built
    assert lost == PINNED_LOSSES


# -- (c) the portal shares the arithmetic --------------------------------------


def test_portal_and_endpoint_compute_identical_arrivals():
    rng = random.Random(3)
    arrivals = bursty_arrivals(rng, 300)
    sizes = [rng.randint(40, 1500) for _ in arrivals]
    params = dict(bandwidth_bps=100e6, delay_s=1e-3, queue_packets=8)

    sim = Simulator()
    ep, seen = endpoint_with_sink(sim, **params)
    shard = Shard("s", 0, seed=1)
    portal = shard.open_egress("out", "elsewhere", **params)
    accepted = {"ep": [], "portal": []}
    for i, (t, size) in enumerate(zip(arrivals, sizes)):
        sim.call_at(t, lambda i=i, size=size: accepted["ep"].append(ep.send(probe(i, size))))
        shard.sim.call_at(
            t, lambda i=i, size=size: accepted["portal"].append(portal.send(probe(i, size)))
        )
    sim.run()
    shard.sim.run()

    assert accepted["ep"] == accepted["portal"]
    assert not all(accepted["ep"])  # some bursts overflowed both
    assert [env.arrival for env in portal.out] == [
        seen[i][0] for i, ok in enumerate(accepted["ep"]) if ok
    ]
    assert (portal.tx_packets, portal.tx_bytes, portal.queue_drops) == (
        ep.tx_packets, ep.tx_bytes, ep.queue_drops,
    )


# -- (d) the delivery handle ring is bounded by what is in flight ---------------


def test_handle_ring_never_outgrows_packets_in_flight():
    sim = Simulator()
    ep, _ = endpoint_with_sink(sim, bandwidth_bps=1e9, delay_s=200e-6, queue_packets=64)
    counts = {"accepted": 0, "peak": 0}
    delivered = [0]
    ep.peer.node.register_protocol("udp", lambda n, p, i: delivered.__setitem__(0, delivered[0] + 1))
    pkt = Packet((IPHeader(src=SRC, dst=DST, proto="udp"),), VirtualPayload(1000))
    rng = random.Random(7)
    ring = ep._deliver_ring

    def pump(left):
        for _ in range(min(left, rng.choice((1, 1, 2, 12)))):
            if ep.send(pkt):
                counts["accepted"] += 1
            in_flight = counts["accepted"] - delivered[0]
            counts["peak"] = max(counts["peak"], in_flight)
            assert len(ring) <= counts["peak"]
            left -= 1
        if left:
            sim.call_later(rng.expovariate(2e4), pump, left)

    pump(100_000)
    sim.run()
    assert delivered[0] == counts["accepted"] > 90_000
    assert len(ring) <= counts["peak"] < 200


# -- (e) booking at acceptance --------------------------------------------------


def test_stopped_mid_burst_the_books_agree():
    sim = Simulator()
    a, b = lan_pair(sim, bandwidth_bps=10e6)
    tx = METRICS.counter("link.tx_packets")
    tx_bytes = METRICS.counter("link.tx_bytes")
    before = (tx.value, tx_bytes.value)
    for i in range(50):
        a.send_ip(DST, "udp", Packet((UDPHeader(src_port=1, dst_port=i),), VirtualPayload(972)))
    sim.run(until=5e-3)  # 1000 B at 10 Mbit/s: ~6 of 50 have departed
    ep = a.interface("eth0")._endpoint
    assert ep.tx_packets == tx.value - before[0] == 50
    assert ep.tx_bytes == tx_bytes.value - before[1] == 50_000
    assert ep._free_at > sim.now  # the burst really was cut mid-way


# -- (f) the forwarding cache ---------------------------------------------------


def forwarding_triangle(sim):
    """``a`` -- ``router`` -- ``b``, plus ``c`` off the router, where ``b``
    and ``c`` both answer to 10.0.2.1 (so a route change is observable)."""
    a, router = Node(sim, "a"), Node(sim, "router", forwarding=True)
    b, c = Node(sim, "b"), Node(sim, "c")
    ia, ra, _ = wire(sim, a, router, addr_a=ipv4("10.0.1.1"))
    rb, ib, _ = wire(sim, router, b, addr_b=ipv4("10.0.2.1"))
    rc, ic, _ = wire(sim, router, c, addr_b=ipv4("10.0.2.1"))
    a.routes.add(prefix("0.0.0.0/0"), ia)
    router.routes.add(prefix("10.0.2.0/24"), rb)
    router.routes.add(prefix("10.0.1.0/24"), ra)
    got = {name: [] for name in ("b", "c", "router")}
    for name, node in (("b", b), ("c", c), ("router", router)):
        node.register_protocol("udp", lambda n, p, i, name=name: got[name].append(p))
    return a, router, rc, got


def ping(sim, a, dst="10.0.2.1", ttl=64, port=6):
    a.send_ip(ipv4(dst), "udp", Packet((UDPHeader(src_port=5, dst_port=port),)), ttl=ttl)
    sim.run()


def test_route_change_mid_flow_redirects_the_next_packet(sim):
    a, router, rc, got = forwarding_triangle(sim)
    ping(sim, a)
    ping(sim, a)  # same header object: served from the cache
    assert [len(got["b"]), len(got["c"])] == [2, 0]
    assert got["b"][0].outer is got["b"][1].outer  # one rewritten header, shared
    assert got["b"][0].outer.ttl == 63

    router.routes.add(prefix("10.0.2.1/32"), rc)
    ping(sim, a)
    assert [len(got["b"]), len(got["c"])] == [2, 1]
    router.routes.remove(prefix("10.0.2.1/32"))
    ping(sim, a)
    assert [len(got["b"]), len(got["c"])] == [3, 1]


def test_address_change_mid_flow_redirects_the_next_packet(sim):
    a, router, rc, got = forwarding_triangle(sim)
    ping(sim, a)
    assert router.routes._hops  # the flow is cached
    lo = router.add_interface("lo")
    lo.add_address(ipv4("10.0.2.1"))
    assert not router.routes._hops
    ping(sim, a)
    assert [len(got["b"]), len(got["router"])] == [1, 1]  # consumed locally
    lo.remove_address(ipv4("10.0.2.1"))
    ping(sim, a)
    assert [len(got["b"]), len(got["router"])] == [2, 1]


def test_ttl_one_is_dropped_and_counted_with_the_flow_cached(sim):
    a, router, rc, got = forwarding_triangle(sim)
    ping(sim, a, ttl=9)
    ping(sim, a, ttl=1)
    ping(sim, a, ttl=1)  # an equal header both times
    assert router.dropped_ttl == 2
    assert len(got["b"]) == 1
    assert all(ip.ttl > 1 for ip in router.routes._hops)  # TTL 1 is never cached


def test_forwarding_cache_is_bounded(sim):
    a, router, rc, got = forwarding_triangle(sim)
    for host in range(1, 101):
        ping(sim, a, dst=f"10.0.2.{host}")
        assert len(router.routes._hops) <= FORWARD_CACHE_SIZE
    assert len(router.routes._hops) == FORWARD_CACHE_SIZE
    assert len(got["b"]) == 1  # only .1 is b's address; the rest reach b unclaimed
