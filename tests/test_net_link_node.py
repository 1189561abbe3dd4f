"""Link, node, routing and forwarding tests."""

import pytest

from repro.net.addresses import ipv4, ipv6, prefix
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import IPHeader, Packet, UDPHeader, VirtualPayload
from repro.net.routing import RouteTable
from repro.net.topology import lan_pair, wire
from repro.sim import RngStreams, Simulator


def make_sink(node):
    """Register a capturing protocol handler for 'udp'."""
    seen = []
    node.register_protocol("udp", lambda n, p, i: seen.append(p))
    return seen


class TestRouteTable:
    def test_longest_prefix_match(self, sim):
        node = Node(sim, "n")
        wide = node.add_interface("wide")
        narrow = node.add_interface("narrow")
        table = RouteTable()
        table.add(prefix("10.0.0.0/8"), wide)
        table.add(prefix("10.1.0.0/16"), narrow)
        assert table.lookup(ipv4("10.1.2.3")) is narrow
        assert table.lookup(ipv4("10.2.0.1")) is wide
        assert table.lookup(ipv4("11.0.0.1")) is None

    def test_families_independent(self, sim):
        node = Node(sim, "n")
        iface = node.add_interface("i")
        table = RouteTable()
        table.add(prefix("::/0"), iface)
        assert table.lookup(ipv6("2001::1")) is iface
        assert table.lookup(ipv4("10.0.0.1")) is None

    def test_remove(self, sim):
        node = Node(sim, "n")
        iface = node.add_interface("i")
        table = RouteTable()
        table.add(prefix("10.0.0.0/8"), iface)
        assert table.remove(prefix("10.0.0.0/8")) == 1
        assert table.lookup(ipv4("10.0.0.1")) is None
        assert table.remove(prefix("10.0.0.0/8")) == 0


class TestLink:
    def test_serialization_plus_propagation_delay(self, sim):
        a, b = lan_pair(sim, "a", "b", bandwidth_bps=8e6, delay_s=1e-3)
        seen = make_sink(b)
        pkt = Packet(
            headers=(UDPHeader(src_port=1, dst_port=2),),
            payload=VirtualPayload(1000 - 28),
        )
        a.send_ip(ipv4("10.0.0.2"), "udp", pkt)
        sim.run()
        # 1000 bytes at 8 Mbit/s = 1 ms serialize + 1 ms propagate.
        assert sim.now == pytest.approx(2e-3)
        assert len(seen) == 1

    def test_queue_drop_tail(self, sim):
        a, b = lan_pair(sim, "a", "b", bandwidth_bps=1e3)  # very slow
        make_sink(b)
        egress = a.interface("eth0")
        sent = sum(
            a.send_ip(
                ipv4("10.0.0.2"), "udp",
                Packet(headers=(UDPHeader(src_port=1, dst_port=2),),
                       payload=VirtualPayload(100)),
            )
            for _ in range(400)
        )
        assert sent < 400  # some were dropped at the bounded egress queue
        assert egress._endpoint.queue_drops == 400 - sent

    def test_loss_rate_validation(self, sim):
        with pytest.raises(ValueError):
            Link(sim, loss_rate=0.5)  # missing rng
        with pytest.raises(ValueError):
            Link(sim, loss_rate=1.5, loss_rng=object())

    def test_lossy_link_drops_packets(self, sim):
        rng = RngStreams(3).stream("loss")
        link = Link(sim, loss_rate=0.5, loss_rng=rng)
        a = Node(sim, "a")
        b = Node(sim, "b")
        ia = a.add_interface("eth0", ipv4("10.0.0.1"))
        ib = b.add_interface("eth0", ipv4("10.0.0.2"))
        link.connect(ia, ib)
        a.routes.add(prefix("10.0.0.0/24"), ia)
        seen = make_sink(b)
        for _ in range(100):
            a.send_ip(
                ipv4("10.0.0.2"), "udp",
                Packet(headers=(UDPHeader(src_port=1, dst_port=2),)),
            )
        sim.run()
        assert 20 < len(seen) < 80
        assert link.a_to_b.lost_packets == 100 - len(seen)

    def test_burst_loss_same_average_rate_in_runs(self, sim):
        # ``loss_rate`` is the *average*: burst mode scales the trigger down
        # by the run length, so the drop count stays in the same band but
        # the drops arrive as consecutive runs.
        rng = RngStreams(3).stream("loss")
        link = Link(sim, loss_rate=0.3, loss_rng=rng, loss_burst=3)
        a = Node(sim, "a")
        b = Node(sim, "b")
        ia = a.add_interface("eth0", ipv4("10.0.0.1"))
        ib = b.add_interface("eth0", ipv4("10.0.0.2"))
        link.connect(ia, ib)
        a.routes.add(prefix("10.0.0.0/24"), ia)
        seen = make_sink(b)
        # 250 packets fit the 256-deep egress queue: no drop-tail losses
        # pollute the count, every missing packet is a burst-model loss.
        for i in range(250):
            a.send_ip(
                ipv4("10.0.0.2"), "udp",
                Packet(headers=(UDPHeader(src_port=1, dst_port=i),)),
            )
        sim.run()
        lost = link.a_to_b.lost_packets
        assert lost == 250 - len(seen)
        assert 250 * 0.3 * 0.5 < lost < 250 * 0.3 * 1.5  # ~the average rate
        # Reconstruct the loss positions from the surviving dst ports: every
        # loss run (except a possible truncated tail) is exactly 3 long.
        delivered = {p.find(UDPHeader).dst_port for p in seen}
        runs, run = [], 0
        for i in range(250):
            if i in delivered:
                if run:
                    runs.append(run)
                run = 0
            else:
                run += 1
        if run:
            runs.append(run)
        assert runs, "burst link lost nothing"
        # Adjacent bursts can merge into multiples of 3.
        assert all(r % 3 == 0 for r in runs[:-1])
        assert runs[-1] % 3 == 0 or runs[-1] < 3  # tail may truncate

    def test_loss_burst_validation(self, sim):
        with pytest.raises(ValueError):
            Link(sim, loss_rate=0.1, loss_rng=object(), loss_burst=0)

    def test_double_attach_rejected(self, sim):
        a, b = lan_pair(sim, "a", "b")
        with pytest.raises(RuntimeError):
            a.interface("eth0").attach(Link(sim).a_to_b)

    def test_byte_counters(self, sim):
        a, b = lan_pair(sim, "a", "b")
        make_sink(b)
        pkt = Packet(headers=(UDPHeader(src_port=1, dst_port=2),), payload=b"x" * 72)
        a.send_ip(ipv4("10.0.0.2"), "udp", pkt)
        sim.run()
        link_ep = a.interface("eth0")._endpoint
        assert link_ep.tx_packets == 1
        assert link_ep.tx_bytes == 20 + 8 + 72


class TestNode:
    def test_local_loopback_delivery(self, sim):
        node = Node(sim, "solo")
        node.add_interface("eth0", ipv4("10.0.0.1"))
        seen = make_sink(node)
        node.send_ip(
            ipv4("10.0.0.1"), "udp",
            Packet(headers=(UDPHeader(src_port=1, dst_port=2),)),
        )
        sim.run()
        assert len(seen) == 1

    def test_no_route_counts_drop(self, sim):
        node = Node(sim, "n")
        node.add_interface("eth0", ipv4("10.0.0.1"))
        ok = node.send_ip(
            ipv4("192.168.9.9"), "udp",
            Packet(headers=(UDPHeader(src_port=1, dst_port=2),)),
        )
        assert not ok
        assert node.dropped_no_route == 1

    def test_unknown_protocol_counts_drop(self, sim):
        a, b = lan_pair(sim, "a", "b")
        a.send_ip(
            ipv4("10.0.0.2"), "nonexistent",
            Packet(headers=(UDPHeader(src_port=1, dst_port=2),)),
        )
        sim.run()
        assert b.dropped_no_handler == 1

    def test_duplicate_protocol_registration_rejected(self, sim):
        node = Node(sim, "n")
        node.register_protocol("udp", lambda n, p, i: None)
        with pytest.raises(ValueError):
            node.register_protocol("udp", lambda n, p, i: None)

    def test_forwarding_decrements_ttl(self, sim):
        # a -- router -- b
        a = Node(sim, "a")
        router = Node(sim, "router", forwarding=True)
        b = Node(sim, "b")
        ia, ra, _ = wire(sim, a, router, addr_a=ipv4("10.0.1.1"))
        rb, ib, _ = wire(sim, router, b, addr_b=ipv4("10.0.2.1"))
        a.routes.add(prefix("0.0.0.0/0"), ia)
        router.routes.add(prefix("10.0.2.0/24"), rb)
        router.routes.add(prefix("10.0.1.0/24"), ra)
        b.routes.add(prefix("0.0.0.0/0"), ib)
        seen = make_sink(b)
        a.send_ip(
            ipv4("10.0.2.1"), "udp",
            Packet(headers=(UDPHeader(src_port=5, dst_port=6),)),
            ttl=9,
        )
        sim.run()
        assert len(seen) == 1
        assert seen[0].outer.ttl == 8

    def test_ttl_exhaustion_drops(self, sim):
        a = Node(sim, "a")
        router = Node(sim, "router", forwarding=True)
        b = Node(sim, "b")
        ia, ra, _ = wire(sim, a, router, addr_a=ipv4("10.0.1.1"))
        rb, ib, _ = wire(sim, router, b, addr_b=ipv4("10.0.2.1"))
        a.routes.add(prefix("0.0.0.0/0"), ia)
        router.routes.add(prefix("10.0.2.0/24"), rb)
        b.routes.add(prefix("0.0.0.0/0"), ib)
        seen = make_sink(b)
        a.send_ip(
            ipv4("10.0.2.1"), "udp",
            Packet(headers=(UDPHeader(src_port=5, dst_port=6),)),
            ttl=1,
        )
        sim.run()
        assert not seen
        assert router.dropped_ttl == 1

    def test_non_forwarding_node_drops_transit(self, sim):
        a, b = lan_pair(sim, "a", "b")
        b.add_interface("lo", ipv4("10.9.9.9"))
        # Address not on b and b is not a router.
        a.routes.add(prefix("0.0.0.0/0"), a.interface("eth0"))
        a.send_ip(
            ipv4("172.16.0.1"), "udp",
            Packet(headers=(UDPHeader(src_port=1, dst_port=2),)),
        )
        sim.run()
        assert b.dropped_no_route == 1

    def test_cpu_work_serializes(self, sim):
        node = Node(sim, "n", cpu_cores=1, cpu_scale=2.0)
        done = []

        def job(name):
            yield from node.cpu_work(1.0)
            done.append((name, sim.now))

        sim.process(job("first"))
        sim.process(job("second"))
        sim.run()
        # Each job takes 2 s (scale 2), serialized on 1 core.
        assert done == [("first", 2.0), ("second", 4.0)]
        assert node.cpu_busy_seconds == pytest.approx(4.0)

    def test_cpu_work_zero_is_free(self, sim, drive):
        node = Node(sim, "n")

        def job():
            yield from node.cpu_work(0.0)
            return sim.now

        assert drive(sim, job()) == 0.0

    def test_cpu_work_negative_rejected(self, sim):
        node = Node(sim, "n")
        with pytest.raises(ValueError):
            list(node.cpu_work(-1))

    def test_cpu_run_and_cpu_work_share_one_fifo(self, sim):
        """Callback-lane and generator contenders for a 1-slot CPU are served
        in arrival order, whichever lane each came by."""
        node = Node(sim, "n", cpu_cores=1, cpu_scale=2.0)
        done = []

        def job(name):
            yield from node.cpu_work(0.5)
            done.append((name, sim.now))

        def finished(name):
            done.append((name, sim.now))

        sim.process(job("g0"))
        sim.call_at(0.1, lambda: node.cpu_run(0.5, finished, "c1"))
        sim.call_at(0.2, lambda: sim.process(job("g2")))
        sim.call_at(0.3, lambda: node.cpu_run(0.5, finished, "c3"))
        sim.call_at(0.4, lambda: sim.process(job("g4")))
        sim.run()
        assert done == [("g0", 1.0), ("c1", 2.0), ("g2", 3.0), ("c3", 4.0), ("g4", 5.0)]
        assert node.cpu_busy_seconds == pytest.approx(5.0)
        assert node.cpu.in_use == 0 and node.cpu.queued == 0

    def test_cpu_run_zero_runs_inline_and_negative_is_rejected(self, sim):
        node = Node(sim, "n")
        done = []
        node.cpu_run(0.0, done.append, "now")
        assert done == ["now"] and sim.peek() == float("inf")
        assert node.cpu_busy_seconds == 0.0
        with pytest.raises(ValueError):
            node.cpu_run(-1e-9, done.append, "never")
        assert done == ["now"] and node.cpu.in_use == 0

    def test_cpu_run_claims_an_idle_slot_at_request_time(self, sim):
        node = Node(sim, "n", cpu_cores=2)
        done = []
        node.cpu_run(1.0, done.append, "a")
        node.cpu_run(1.0, done.append, "b")
        assert node.cpu.in_use == 2
        node.cpu_run(1.0, done.append, "c")
        assert node.cpu.queued == 1
        sim.run()
        assert done == ["a", "b", "c"] and sim.now == 2.0

    def test_pick_source_prefers_routed_interface(self, sim):
        node = Node(sim, "n")
        eth = node.add_interface("eth0", ipv4("10.0.0.1"))
        node.add_interface("other", ipv4("172.16.0.1"))
        node.routes.add(prefix("10.0.0.0/24"), eth)
        assert node._pick_source(ipv4("10.0.0.9")) == ipv4("10.0.0.1")

    def test_pick_source_falls_back_to_any_family_address(self, sim):
        node = Node(sim, "n")
        node.add_interface("eth0", ipv4("10.0.0.1"))
        assert node._pick_source(ipv4("99.9.9.9")) == ipv4("10.0.0.1")
        assert node._pick_source(ipv6("2001::1")) is None
