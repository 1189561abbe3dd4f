"""Cut-through at pure forwarders (ROADMAP item 23), step 1: the census.

A forwarder may hand a packet to its egress serializer at the instant the
packet is accepted upstream, skipping its own delivery event, only when
nothing else can reach that egress first.  For one delivery of packet ``p``
from ingress ``I`` to forwarder ``F`` and on to egress ``E``, sent upstream
at ``t_send`` and arriving at ``t_arr``, the conservative condition is:

1. no packet already in flight at ``t_send`` on another ingress ``J`` that
   feeds ``E`` arrives at ``F`` by ``t_arr``;
2. no packet not yet sent can: every such ``J`` has
   ``delay_J + min_serialisation_J > t_arr - t_send``, where the minimum
   serialisation is the smallest packet that link carried in the run;
3. ``F`` sends nothing of its own (a local sender is a zero-delay ingress),
   and no ingress that feeds ``E`` is a cross-shard portal, whose sender's
   schedule this shard cannot see.

The ingresses that feed ``E`` are all of ``F``'s ingresses except ``E``'s own
link (no route sends a packet back out of the link it came in on; the census
counts such hairpins and the test requires none).  Ties count against cut-
through.  The census only observes: it wraps the link sink and the link
delivery, registers a forward filter on every node that always passes, and
the test checks that an instrumented run's results equal a plain run's.

Run ``PYTHONPATH=src python -m tests.test_cut_through_census`` for the
per-forwarder table published in DESIGN.md.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

import pytest

from repro.apps.workload import ClosedLoopClients
from repro.net.link import LinkEndpoint
from repro.net.node import Interface, Node
from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud
from repro.scenarios.rubis_scale import ScaleParams, scale_builders
from repro.sim.shard import ShardedSimulation

SEED = 7
#: ROADMAP item 23: below this share of forwarder deliveries, step 2 is not
#: worth building.
BAR = 0.30


class Census:
    """Records every link send and every forwarder delivery while patched in."""

    def __init__(self) -> None:
        self.iface_of: dict = {}  # endpoint or portal -> the interface it sends from
        self.sends: dict = defaultdict(lambda: ([], []))  # endpoint -> (t_sends, t_arrs)
        self.min_size: dict = {}
        self.in_flight: dict = {}  # id(packet) -> (endpoint, t_send, t_arr)
        self.delivering = None  # (endpoint, t_send, t_arr) during a link delivery
        self.forwarding: Node | None = None
        self.local_senders: set = set()  # forwarders that originated a packet
        self.remote_ingress: set = set()  # interfaces fed by a shard portal
        self.portal_deliveries: dict = defaultdict(int)
        self.hops: list = []  # (node, ingress, egress, t_send, t_arr)

    def install(self, monkeypatch) -> None:
        census = self
        attach, depart = Interface.attach, LinkEndpoint._depart
        deliver, receive, init = LinkEndpoint._deliver, Interface.receive, Node.__init__

        def attach_(iface, endpoint):
            census.iface_of[endpoint] = iface
            attach(iface, endpoint)

        def depart_(endpoint, packet, size, when):
            now = endpoint.sim.now
            t_arr = when + endpoint.delay_s
            t_sends, t_arrs = census.sends[endpoint]
            t_sends.append(now)
            t_arrs.append(t_arr)
            census.min_size[endpoint] = min(size, census.min_size.get(endpoint, size))
            sender = census.iface_of[endpoint].node
            if sender.forwarding and census.forwarding is not sender:
                census.local_senders.add(sender)
            depart(endpoint, packet, size, when)
            # Keyed by the delivery timer's ``(packet, size)`` argument,
            # which is fresh per transmission.
            census.in_flight[id(endpoint._deliver_ring[-1]._arg)] = (endpoint, now, t_arr)

        # A forward runs inside the delivery (or portal arrival) that brought
        # the packet, so the forwarder named by the filter is cleared after it.
        def deliver_(endpoint, item):
            census.delivering = census.in_flight.pop(id(item))
            try:
                deliver(endpoint, item)
            finally:
                census.delivering = census.forwarding = None

        def receive_(iface, packet):
            census.remote_ingress.add(iface)
            try:
                receive(iface, packet)
            finally:
                census.forwarding = None

        def init_(node, *args, **kwargs):
            init(node, *args, **kwargs)
            node.forward_filters.append(lambda packet: census.observe(node, packet))

        monkeypatch.setattr(Interface, "attach", attach_)
        monkeypatch.setattr(LinkEndpoint, "_depart", depart_)
        monkeypatch.setattr(LinkEndpoint, "_deliver", deliver_)
        monkeypatch.setattr(Interface, "receive", receive_)
        monkeypatch.setattr(Node, "__init__", init_)

    def observe(self, node: Node, packet) -> bool:
        """Forward filter: note one transit packet at ``node`` and pass it."""
        record, self.delivering = self.delivering, None
        self.forwarding = node
        ip = packet.headers[0]
        if ip.ttl <= 1:
            return True
        hop = node.routes.next_hop(ip)  # fills the forwarding cache the node then reads
        if hop is None:
            return True
        if record is None:
            self.portal_deliveries[node.name] += 1
            return True
        self.hops.append((node, record[0], hop[1], record[1], record[2]))
        return True

    def table(self) -> dict:
        """Per forwarder: deliveries, qualifying deliveries, deliveries whose
        egress only its own ingress feeds, and portal arrivals (excluded)."""
        ingresses = defaultdict(set)
        sender_of = {}
        for endpoint in self.iface_of:
            if isinstance(endpoint, LinkEndpoint) and endpoint.peer is not None:
                ingresses[endpoint.peer.node].add(endpoint.peer)
                sender_of[endpoint.peer] = endpoint
        for iface in self.remote_ingress:
            ingresses[iface.node].add(iface)
        floor = min(self.min_size.values())
        rows: dict = defaultdict(lambda: {"deliveries": 0, "qualify": 0,
                                          "single_feeder": 0, "portal": 0, "hairpin": 0})
        for name, count in self.portal_deliveries.items():
            rows[name]["portal"] = count
        for node, ingress, egress, t_send, t_arr in self.hops:
            row = rows[node.name]
            row["deliveries"] += 1
            own = self.iface_of[egress]
            if ingress.peer is own:
                row["hairpin"] += 1
            feeders = [i for i in ingresses[node] if i is not own and i is not ingress.peer]
            row["single_feeder"] += not feeders
            row["qualify"] += node not in self.local_senders and all(
                self._quiet(sender_of.get(i), t_send, t_arr, floor) for i in feeders
            )
        return dict(rows)

    def _quiet(self, feeder, t_send: float, t_arr: float, floor: int) -> bool:
        """Conditions 1 and 2 for one feeding ingress (None: a portal)."""
        if not isinstance(feeder, LinkEndpoint):
            return False
        size = self.min_size.get(feeder, floor)
        if feeder.delay_s + size * 8.0 / feeder.bandwidth_bps <= t_arr - t_send:
            return False
        t_sends, t_arrs = self.sends[feeder]
        sent = bisect.bisect_right(t_sends, t_send)
        first = bisect.bisect_right(t_arrs, t_send, 0, sent)
        return first == sent or t_arrs[first] > t_arr


def rubis_basic() -> tuple:
    """The ``rubis_basic`` bench job at seed 7: 20 closed-loop clients."""
    dep = build_rubis_cloud(seed=SEED, security="basic", cache_enabled=False)
    clients = ClosedLoopClients(
        dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
        n_clients=20, rng=dep.rngs.stream("bench-clients"), warmup=0.5,
    )
    sim = dep.sim
    res = sim.run(until=sim.process(clients.run(1.0)))
    sim.run(until=sim.now + 1.0)
    sim.close()
    return res.successes, res.failures, res.latencies()


def scale() -> dict:
    """The ``scale_sharded`` bench job at seed 7, with inline workers."""
    params = ScaleParams(
        n_zones=2, n_clients=16, n_web=2, n_filler_vms=60, n_racks=2,
        hosts_per_rack=4, media_prob=0.02, media_bytes=2 << 20,
        media_window=65536, n_fleets=4, fleet_size=3, fleet_placement="affinity",
    )
    return ShardedSimulation(scale_builders(params), SEED, parallel=False, adaptive=True).run(2.5)


def census(job, monkeypatch) -> tuple:
    """``(per-forwarder rows, job result)`` of one instrumented run."""
    recorder = Census()
    recorder.install(monkeypatch)
    result = job()
    monkeypatch.undo()
    return recorder.table(), result


def share(rows: dict, key: str = "qualify") -> float:
    return sum(r[key] for r in rows.values()) / sum(r["deliveries"] for r in rows.values())


@pytest.mark.slow
@pytest.mark.parametrize("job", [rubis_basic, scale], ids=["rubis_basic", "scale"])
def test_too_few_forwarder_deliveries_could_cut_through(job, monkeypatch):
    rows, result = census(job, monkeypatch)
    assert result == job()  # the census only observes
    assert sum(r["deliveries"] for r in rows.values()) > 10_000
    assert all(r["hairpin"] == 0 for r in rows.values())
    assert share(rows) < BAR


def main() -> None:
    with pytest.MonkeyPatch.context() as monkeypatch:
        for job in (rubis_basic, scale):
            rows, _result = census(job, monkeypatch)
            print(f"\n{job.__name__} (seed {SEED})")
            print("| forwarder | deliveries | qualify | share | single-feeder | portal |")
            print("|---|---:|---:|---:|---:|---:|")
            for name, r in sorted(rows.items()):
                n = r["deliveries"]
                print(f"| `{name}` | {n:,} | {r['qualify']:,} | "
                      f"{r['qualify'] / n if n else 0:.1%} | {r['single_feeder']:,} | {r['portal']:,} |")
            print(f"| all | {sum(r['deliveries'] for r in rows.values()):,} | "
                  f"{sum(r['qualify'] for r in rows.values()):,} | {share(rows):.1%} | "
                  f"{share(rows, 'single_feeder'):.1%} | |")


if __name__ == "__main__":
    main()
