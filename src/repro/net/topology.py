"""Small topology-building helpers shared by tests, examples and scenarios.

Also home of :func:`plan_shard_placement`, the shard-aware placement pass:
given communicating items (e.g. the member VMs of tenants that span
availability zones) it assigns each to a shard so that heavy chat stays
shard-local while per-shard load remains balanced — the knob that decides
how much cross-shard envelope traffic the sharded simulator has to carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable

from repro.net.addresses import IPAddress, Prefix, prefix
from repro.net.link import Link
from repro.net.node import Interface, Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


def wire(
    sim: "Simulator",
    node_a: Node,
    node_b: Node,
    addr_a: IPAddress | None = None,
    addr_b: IPAddress | None = None,
    bandwidth_bps: float = 1e9,
    delay_s: float = 100e-6,
    queue_packets: int = 256,
    name: str = "",
    loss_rate: float = 0.0,
    loss_rng=None,
    ecn_threshold: int | None = None,
    loss_burst: int = 1,
) -> tuple[Interface, Interface, Link]:
    """Create a link between two nodes, adding one interface on each.

    Interface names are auto-numbered ``eth0``, ``eth1``, ... per node.
    """
    link = Link(sim, bandwidth_bps=bandwidth_bps, delay_s=delay_s,
                queue_packets=queue_packets, name=name,
                loss_rate=loss_rate, loss_rng=loss_rng,
                ecn_threshold=ecn_threshold, loss_burst=loss_burst)
    iface_a = node_a.add_interface(f"eth{sum(i.name.startswith('eth') for i in node_a.interfaces)}")
    iface_b = node_b.add_interface(f"eth{sum(i.name.startswith('eth') for i in node_b.interfaces)}")
    if addr_a is not None:
        iface_a.add_address(addr_a)
    if addr_b is not None:
        iface_b.add_address(addr_b)
    link.connect(iface_a, iface_b)
    return iface_a, iface_b, link


def wire_cross_shard(
    shard,
    node: Node,
    addr: IPAddress | None,
    out_port: str,
    in_port: str,
    dst_shard: str,
    bandwidth_bps: float = 1e9,
    delay_s: float = 1e-3,
    queue_packets: int = 256,
) -> Interface:
    """Attach ``node`` to one end of a link whose far side is another shard.

    Creates an interface wired to a :class:`~repro.sim.shard.ShardPortal`
    egress (``out_port``) and registers the same interface as the landing
    point for the remote shard's matching egress (``in_port``).  Both shards
    must call this with mirrored port ids — shard A's ``out_port`` is shard
    B's ``in_port`` and vice versa — and the same link parameters, so the
    two directions replicate one full-duplex link's timing.
    """
    iface = node.add_interface(
        f"eth{sum(i.name.startswith('eth') for i in node.interfaces)}"
    )
    if addr is not None:
        iface.add_address(addr)
    portal = shard.open_egress(
        out_port, dst_shard, bandwidth_bps, delay_s, queue_packets
    )
    iface.attach(portal)
    shard.open_ingress(in_port, iface)
    return iface


def lan_pair(
    sim: "Simulator",
    name_a: str = "a",
    name_b: str = "b",
    subnet: str = "10.0.0.0/24",
    bandwidth_bps: float = 1e9,
    delay_s: float = 100e-6,
    queue_packets: int = 256,
    loss_rate: float = 0.0,
    loss_rng=None,
    ecn_threshold: int | None = None,
    loss_burst: int = 1,
    **node_kw,
) -> tuple[Node, Node]:
    """Two hosts on one subnet with routes both ways — the minimal testbed."""
    from repro.net.addresses import ipv4

    net = prefix(subnet)
    base = net.network.value
    node_a = Node(sim, name_a, **node_kw)
    node_b = Node(sim, name_b, **node_kw)
    iface_a, iface_b, _ = wire(
        sim, node_a, node_b,
        addr_a=ipv4(base + 1), addr_b=ipv4(base + 2),
        bandwidth_bps=bandwidth_bps, delay_s=delay_s,
        queue_packets=queue_packets, loss_rate=loss_rate, loss_rng=loss_rng,
        ecn_threshold=ecn_threshold, loss_burst=loss_burst,
    )
    node_a.routes.add(net, iface_a)
    node_b.routes.add(net, iface_b)
    return node_a, node_b


# ------------------------------------------------------ shard-aware placement


@dataclass
class PlacementPlan:
    """Result of :func:`plan_shard_placement`.

    ``assignment`` maps each item to its shard index; :meth:`quality`
    summarizes how much communication the plan keeps shard-local and how
    evenly load is spread — the stat the scale benchmark reports so
    placement regressions are visible in ``BENCH_scale.json``.
    """

    n_shards: int
    assignment: dict[Hashable, int]
    #: (a, b, weight) edges the plan was computed from (normalized).
    edges: list[tuple[Hashable, Hashable, float]] = field(default_factory=list)
    #: Per-item load weight used for balancing.
    weights: dict[Hashable, float] = field(default_factory=dict)

    def shard_of(self, item: Hashable) -> int:
        return self.assignment[item]

    def quality(self) -> dict[str, object]:
        """Placement-quality stats: cut fraction and per-shard load balance."""
        cross_edges = 0
        cross_weight = 0.0
        total_weight = 0.0
        for a, b, w in self.edges:
            total_weight += w
            if self.assignment[a] != self.assignment[b]:
                cross_edges += 1
                cross_weight += w
        loads = [0.0] * self.n_shards
        for item, shard in self.assignment.items():
            loads[shard] += self.weights.get(item, 1.0)
        mean = sum(loads) / len(loads) if loads else 0.0
        imbalance = (max(loads) / mean - 1.0) if mean > 0 else 0.0
        return {
            "n_shards": self.n_shards,
            "items": len(self.assignment),
            "edges": len(self.edges),
            "cross_edges": cross_edges,
            "cross_edge_fraction": (
                cross_edges / len(self.edges) if self.edges else 0.0
            ),
            "cross_weight": cross_weight,
            "cross_weight_fraction": (
                cross_weight / total_weight if total_weight > 0 else 0.0
            ),
            "shard_load": loads,
            "load_imbalance": imbalance,
        }


def plan_shard_placement(
    items: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable, float]],
    n_shards: int,
    anchors: dict[Hashable, int] | None = None,
    weights: dict[Hashable, float] | None = None,
    balance_tolerance: float = 0.25,
    sweeps: int = 4,
) -> PlacementPlan:
    """Assign communicating items to shards, minimizing the weighted cut.

    Deterministic two-phase heuristic:

    1. **Anchored greedy** — items are placed in descending order of
       incident edge weight (ties broken by input order).  Anchored items
       (e.g. a tenant's "home zone" member, which must sit next to a
       physical resource) are pinned first; every other item lands on the
       shard holding most of its already-placed neighbors' edge weight,
       subject to a load cap of ``mean * (1 + balance_tolerance)``.
    2. **KL-style refinement** — ``sweeps`` passes over the unanchored
       items, moving any item whose local edge affinity strictly improves
       on another shard that has capacity.  Each sweep visits items in the
       deterministic phase-1 order, so the plan is a pure function of its
       inputs.

    ``edges`` weights model expected traffic (e.g. messages per second);
    ``weights`` model per-item event load (defaults to 1.0 each).
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    item_list = list(dict.fromkeys(items))
    item_set = set(item_list)
    anchors = dict(anchors or {})
    weights = dict(weights or {})
    edge_list: list[tuple[Hashable, Hashable, float]] = []
    adjacency: dict[Hashable, list[tuple[Hashable, float]]] = {
        item: [] for item in item_list
    }
    incident: dict[Hashable, float] = {item: 0.0 for item in item_list}
    for a, b, w in edges:
        if a not in item_set or b not in item_set:
            raise ValueError(f"edge ({a!r}, {b!r}) references an unknown item")
        if a == b or w <= 0:
            continue
        edge_list.append((a, b, float(w)))
        adjacency[a].append((b, float(w)))
        adjacency[b].append((a, float(w)))
        incident[a] += w
        incident[b] += w
    for item, shard in anchors.items():
        if item not in item_set:
            raise ValueError(f"anchor {item!r} is not an item")
        if not 0 <= shard < n_shards:
            raise ValueError(f"anchor shard {shard} out of range for {item!r}")

    total_load = sum(weights.get(item, 1.0) for item in item_list)
    cap = (total_load / n_shards) * (1.0 + balance_tolerance) if item_list else 0.0
    order = sorted(
        range(len(item_list)), key=lambda i: (-incident[item_list[i]], i)
    )
    assignment: dict[Hashable, int] = {}
    loads = [0.0] * n_shards
    for item, shard in anchors.items():
        assignment[item] = shard
        loads[shard] += weights.get(item, 1.0)
    for i in order:
        item = item_list[i]
        if item in assignment:
            continue
        affinity = [0.0] * n_shards
        for neighbor, w in adjacency[item]:
            placed = assignment.get(neighbor)
            if placed is not None:
                affinity[placed] += w
        load = weights.get(item, 1.0)
        best = -1
        best_key: tuple[float, float] | None = None
        for shard in range(n_shards):
            if loads[shard] + load > cap and any(
                loads[s] + load <= cap for s in range(n_shards)
            ):
                continue  # over cap while a feasible shard exists
            key = (affinity[shard], -loads[shard])
            if best_key is None or key > best_key:
                best, best_key = shard, key
        assignment[item] = best
        loads[best] += load
    for _ in range(max(0, sweeps)):
        moved = False
        for i in order:
            item = item_list[i]
            if item in anchors:
                continue
            current = assignment[item]
            affinity = [0.0] * n_shards
            for neighbor, w in adjacency[item]:
                affinity[assignment[neighbor]] += w
            load = weights.get(item, 1.0)
            best, best_gain = current, 0.0
            for shard in range(n_shards):
                if shard == current or loads[shard] + load > cap:
                    continue
                gain = affinity[shard] - affinity[current]
                if gain > best_gain:
                    best, best_gain = shard, gain
            if best != current:
                assignment[item] = best
                loads[current] -= load
                loads[best] += load
                moved = True
        if not moved:
            break
    return PlacementPlan(
        n_shards=n_shards,
        assignment=assignment,
        edges=edge_list,
        weights={item: weights.get(item, 1.0) for item in item_list},
    )
