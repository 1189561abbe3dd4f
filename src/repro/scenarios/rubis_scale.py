"""Million-session RUBiS: the sharded + fluid-flow scale scenario.

One availability zone per shard.  Each zone is a self-contained copy of the
Figure-1 deployment grown sideways: a two-tier datacenter hosting the web
tier, a database, a media VM and a crowd of idle multi-tenant filler VMs; a
zone-local Internet stub with per-consumer WAN links; a keep-alive reverse
proxy out front.  Zones peer in a ring of inter-AZ links — ordinary wires
between zones on one shard, cross-shard portals between zones on different
shards — and exchange UDP heartbeats across them, so the conservative-
lookahead boundary carries real traffic for the boundary digests to referee.
One builder, :func:`build_scale_zones`, serves both plans there are:
:func:`scale_builders` hosts one zone per shard, and
:func:`build_scale_monolithic` (the single-heap twin) hosts every zone on one
shard.

A *session* is one JSON-API request/response over a persistent connection
(:data:`~repro.apps.rubis.SCALE_API_MIX`).  A tunable fraction of sessions
tack on a bulk media download served by a ``fluid=True`` listener — the
fluid fast-forward's stage: a cwnd-stabilised multi-megabyte transfer
collapses from thousands of per-packet events into a handful of rate-
integral chunks while still charging wire counters per virtual byte.  The
media listener disables the competing-flow fluid guard: its transfers are
window-limited (wnd/rtt far below any shared link's fair share), so
concurrent arrivals on the media tier are not modeling disturbances.

Zone-spanning **tenant fleets** exercise the shard-aware placement pass
(ROADMAP item 1): each fleet is a ring of chatty UDP members whose home
member is anchored to the fleet's home zone while the rest are assigned by
:func:`repro.net.topology.plan_shard_placement` to keep ring chat
shard-local ("affinity") — or deliberately scattered round-robin across
zones ("scatter", the baseline the benchmark compares against).  The plan
is computed in the parent from the parameters alone and pins each member to
a concrete physical host and guest address (``.200+`` inside the host's
/24, far above the ``.10``-up dynamic allocator), so forked shard workers
and the monolithic twin deploy the identical fleet without ever seeing each
other's objects.

Every zone derives its random streams from its own namespace
(``RngStreams(seed).spawn("shard:z<i>")``) whichever shard hosts it, so the
sharded run, the monolithic twin, and the multiprocessing run draw identical
randomness per zone — the per-zone session counts are directly comparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Generator

from repro.apps.database import DbServer, rubis_tables
from repro.apps.http import (
    HttpError,
    HttpRequest,
    read_response,
    write_request,
)
from repro.apps.proxy import Backend, ReverseProxy
from repro.apps.rubis import RubisWebServer, pick_scale_request, request_path
from repro.cloud.datacenter import DatacenterParams, Internet
from repro.cloud.iaas import PublicCloud
from repro.cloud.tenant import SpreadPlacement, Tenant
from repro.net.addresses import IPAddress, Prefix, ipv4, prefix
from repro.net.node import Node
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpError, TcpStack
from repro.net.topology import (
    PlacementPlan,
    plan_shard_placement,
    wire,
    wire_cross_shard,
)
from repro.net.udp import UdpStack
from repro.scenarios.rubis_cloud import DB_PORT, FRONTEND_PORT, WEB_PORT
from repro.sim import RngStreams, Simulator
from repro.sim.shard import Shard

MEDIA_PORT = 9000
HEARTBEAT_PORT = 7100
FLEET_PORT = 7200

# WAN one-way delays: metro-area consumers, a nearby LB, the paper's cloud.
CLIENT_WAN_DELAY = 2e-3
LB_WAN_DELAY = 1e-3
CLOUD_WAN_DELAY = 2e-3


@dataclass(frozen=True)
class ScaleParams:
    """Knobs for one scale run; defaults are test-sized, the benchmark
    scales them up (thousands of VMs, dozens of clients per zone)."""

    n_zones: int = 2
    n_clients: int = 4  # closed-loop consumers per zone, one node each
    n_web: int = 2
    n_filler_vms: int = 8  # idle multi-tenant VMs padding the plant
    n_racks: int = 1
    hosts_per_rack: int = 2
    media_prob: float = 0.02  # per-session chance of a bulk media fetch
    media_bytes: int = 8 * 1024 * 1024
    media_window: int = 262144  # media receive window (sets the fluid rate)
    fluid: bool = True  # media tier serves in fluid fast-forward mode
    think_time: float = 0.02  # mean think time between sessions
    inter_zone_delay: float = 5e-3  # inter-AZ latency == lookahead window
    inter_zone_bps: float = 10e9
    heartbeat_interval: float = 0.25
    # Zone-spanning tenant fleets (0 disables them): rings of chatty UDP
    # members whose zone assignment comes from the shard-aware placement
    # pass ("affinity") or a worst-case round-robin spread ("scatter").
    n_fleets: int = 0
    fleet_size: int = 3
    fleet_interval: float = 0.05
    fleet_placement: str = "affinity"  # "affinity" | "scatter"


@dataclass
class ZoneStats:
    """Picklable per-zone tallies (the shard's result payload)."""

    api_sessions: int = 0
    media_sessions: int = 0
    media_bytes: int = 0
    fluid_bytes: int = 0
    fluid_enters: int = 0
    fluid_exits: int = 0
    errors: int = 0
    heartbeats_sent: int = 0
    heartbeats_recv: int = 0
    fleet_sent: int = 0
    fleet_recv: int = 0

    @property
    def sessions(self) -> int:
        return self.api_sessions + self.media_sessions

    def as_dict(self) -> dict:
        out = asdict(self)
        out["sessions"] = self.sessions
        return out


@dataclass
class Zone:
    """Handles to one zone's pieces (the in-process view)."""

    name: str
    index: int
    provider: PublicCloud
    internet: Internet
    lb_node: Node
    client_nodes: list[Node]
    web_vms: list
    db_vm: object
    media_vm: object
    stats: ZoneStats


def _zone_base_octet(zone_index: int) -> int:
    return 10 + zone_index


def _cross_link_addrs(i: int, j: int) -> tuple[IPAddress, IPAddress]:
    """/30-style endpoint pair for the inter-AZ link between zones i and j."""
    a, b = sorted((i, j))
    net = ipv4(f"172.29.{a}.{4 * b}").value
    lo, hi = IPAddress(4, net + 1), IPAddress(4, net + 2)
    return (lo, hi) if i < j else (hi, lo)


def _ring_neighbors(i: int, n: int) -> list[int]:
    return sorted({(i - 1) % n, (i + 1) % n} - {i})


def _ring_next_hop(i: int, j: int, n: int) -> int:
    """Ring-shortest next hop from zone ``i`` toward zone ``j``.

    Ties (the antipodal zone on an even ring) break clockwise, and every
    plan routes with this helper, so sharded and monolithic runs forward
    multi-hop fleet traffic over the identical sequence of inter-AZ links.
    """
    forward = (j - i) % n
    backward = (i - j) % n
    return (i + 1) % n if forward <= backward else (i - 1) % n


def _build_zone(sim: Simulator, zrngs, zone_index: int, p: ScaleParams) -> Zone:
    """The shared guts: one zone's cloud, apps and consumers."""
    zname = f"z{zone_index}"
    dc_params = DatacenterParams(
        n_racks=p.n_racks,
        hosts_per_rack=p.hosts_per_rack,
        base_octet=_zone_base_octet(zone_index),
    )
    provider = PublicCloud(sim, name=f"{zname}-ec2", params=dc_params)
    # Spread the active tier across hosts so each VM gets its own uplink;
    # the micros pack in afterwards like any multi-tenant plant.
    provider.placement = SpreadPlacement()
    internet = Internet(sim, name=f"{zname}-inet")
    provider.datacenter.attach_gateway(
        internet.router,
        gateway_addr=ipv4(f"203.0.{100 + zone_index}.2"),
        core_addr=ipv4(f"203.0.{100 + zone_index}.1"),
        delay_s=CLOUD_WAN_DELAY,
    )

    tenant = Tenant(f"webshop-{zname}")
    web_vms = [
        provider.launch(tenant, "m1.large", name=f"{zname}-web{i}")
        for i in range(p.n_web)
    ]
    db_vm = provider.launch(tenant, "c1.xlarge", name=f"{zname}-db")
    media_vm = provider.launch(tenant, "c1.xlarge", name=f"{zname}-media")
    for t in range(p.n_filler_vms):
        filler = Tenant(f"{zname}-filler{t % 8}")
        provider.launch(filler, "t1.micro", name=f"{zname}-idle{t}")

    stats = ZoneStats()

    # --- stacks and services ------------------------------------------------
    web_tcp = {vm.name: TcpStack(vm) for vm in web_vms}
    db_tcp = TcpStack(db_vm)
    media_tcp = TcpStack(media_vm)
    DbServer(
        db_vm, db_tcp, DB_PORT, rubis_tables(),
        rng=zrngs.stream("db-service"),
    )
    for vm in web_vms:
        RubisWebServer(
            vm, web_tcp[vm.name], WEB_PORT,
            db_addr=db_vm.primary_address, db_port=DB_PORT,
            rng=zrngs.stream(f"web-{vm.name}"),
        )
    media_listener = media_tcp.listen(
        MEDIA_PORT, fluid=p.fluid, fluid_flow_guard=False
    )
    sim.process(
        _media_accept_loop(sim, stats, media_listener, p),
        name=f"{zname}-media-accept",
    )

    # --- the load balancer --------------------------------------------------
    lb_node = Node(sim, f"{zname}-lb", cpu_cores=8)
    frontend_addr = ipv4(f"198.51.{zone_index}.10")
    internet.attach(lb_node, frontend_addr, delay_s=LB_WAN_DELAY)
    lb_tcp = TcpStack(lb_node)
    backends = [Backend(addr=vm.primary_address, port=WEB_PORT) for vm in web_vms]
    ReverseProxy(
        lb_node, lb_tcp, FRONTEND_PORT, backends,
        algorithm="round-robin", backend_keepalive=True,
    )

    # --- consumers: one node per closed-loop client -------------------------
    client_base = ipv4(f"192.{100 + zone_index}.0.0").value
    client_nodes = []
    media_addr = media_vm.primary_address
    for c in range(p.n_clients):
        cnode = Node(sim, f"{zname}-c{c}", cpu_cores=2)
        internet.attach(
            cnode, IPAddress(4, client_base + 256 + c), delay_s=CLIENT_WAN_DELAY
        )
        client_nodes.append(cnode)
        sim.process(
            _client_loop(
                sim, stats, TcpStack(cnode), frontend_addr, media_addr,
                zrngs.stream(f"client-{c}"), p,
            ),
            name=f"{zname}-client{c}",
        )

    return Zone(
        name=zname, index=zone_index, provider=provider, internet=internet,
        lb_node=lb_node, client_nodes=client_nodes, web_vms=web_vms,
        db_vm=db_vm, media_vm=media_vm, stats=stats,
    )


# --------------------------------------------------------------- media tier --


def _media_accept_loop(sim, stats: ZoneStats, listener, p: ScaleParams) -> Generator:
    while True:
        conn = yield listener.accept()
        sim.process(_media_serve(stats, conn, p), name="media-serve")


def _media_serve(stats: ZoneStats, conn, p: ScaleParams) -> Generator:
    """Read the one-line request, push the blob, wait for the client's FIN."""
    try:
        request = yield conn.recv()
        if request:
            conn.write(VirtualPayload(p.media_bytes, tag="media"))
            while True:
                chunk = yield conn.recv()
                if not chunk:
                    break
        conn.close()
    except TcpError:
        pass
    stats.fluid_bytes += conn.fluid_bytes
    stats.fluid_enters += conn.fluid_enters
    stats.fluid_exits += conn.fluid_exits


# ---------------------------------------------------------------- consumers --


def _client_loop(
    sim, stats: ZoneStats, tcp: TcpStack, frontend_addr, media_addr,
    rng, p: ScaleParams,
) -> Generator:
    # Desynchronised start so a zone's clients don't march in phase.
    yield sim.timeout(rng.random() * 0.2)
    while True:
        try:
            conn = yield from tcp.open_connection(frontend_addr, FRONTEND_PORT)
        except TcpError:
            stats.errors += 1
            yield sim.timeout(0.2)
            continue
        try:
            while True:
                rt = pick_scale_request(rng)
                request = HttpRequest(
                    "GET", request_path(rt, rng), headers={"Host": "rubis"}
                )
                write_request(conn, request)
                response = yield from read_response(conn)
                if response.status == 200:
                    stats.api_sessions += 1
                else:
                    stats.errors += 1
                if rng.random() < p.media_prob:
                    yield from _fetch_media(sim, stats, tcp, media_addr, p)
                if p.think_time > 0.0:
                    yield sim.timeout(rng.expovariate(1.0 / p.think_time))
        except (TcpError, HttpError):
            stats.errors += 1
            conn.abort()
            yield sim.timeout(0.1)


def _fetch_media(sim, stats: ZoneStats, tcp: TcpStack, media_addr, p) -> Generator:
    try:
        conn = yield from tcp.open_connection(
            media_addr, MEDIA_PORT, recv_window=p.media_window
        )
    except TcpError:
        stats.errors += 1
        return
    try:
        conn.write(b"GET /media HTTP/1.0\r\n\r\n")
        got = 0
        while got < p.media_bytes:
            chunk = yield conn.recv()
            if not chunk:
                stats.errors += 1
                conn.abort()
                return
            got += len(chunk)
        # Count on delivery, before teardown: the server tallies its fluid
        # counters on our FIN, so counting after the close handshake would
        # leave the last transfer of a run in one tally but not the other.
        stats.media_sessions += 1
        stats.media_bytes += got
        conn.close()
        while True:  # drain to EOF so both FINs complete the teardown
            chunk = yield conn.recv()
            if not chunk:
                break
    except TcpError:
        stats.errors += 1
        return


# ------------------------------------------------------------ tenant fleets --


@dataclass
class FleetPlan:
    """Picklable fleet deployment: every member pinned to zone/host/address.

    Computed once in the parent process from the parameters alone (no
    simulator objects), so forked shard workers and the monolithic twin can
    each deploy exactly their slice of the identical plan.
    """

    placement: str
    n_zones: int
    #: (fleet, member) -> (zone index, flat host index, guest address).
    members: dict[tuple[int, int], tuple[int, int, str]]
    #: Placement-quality stats from :meth:`PlacementPlan.quality`.
    quality: dict

    def zone_members(self, zone_index: int) -> list[tuple[int, int]]:
        return sorted(
            m for m, (zone, _h, _a) in self.members.items() if zone == zone_index
        )


def _fleet_edges(p: ScaleParams) -> list[tuple[tuple[int, int], tuple[int, int], float]]:
    """Undirected ring-chat edges between each fleet's members."""
    edges = []
    for f in range(p.n_fleets):
        seen: set[frozenset] = set()
        for k in range(p.fleet_size):
            a, b = (f, k), (f, (k + 1) % p.fleet_size)
            pair = frozenset((a, b))
            if a == b or pair in seen:
                continue
            seen.add(pair)
            edges.append((a, b, 1.0))
    return edges


def plan_fleet(p: ScaleParams) -> FleetPlan | None:
    """Assign every fleet member a zone, physical host, and guest address.

    ``affinity`` runs :func:`plan_shard_placement` with each fleet's member
    0 anchored to its home zone (``fleet % n_zones``) — the shard-aware
    pass that keeps ring chat inside one shard wherever balance allows.
    ``scatter`` is the adversarial baseline: members round-robin across
    zones starting at the home zone, so nearly every ring edge crosses a
    shard boundary.  Hosts fill round-robin per zone; addresses take the
    ``.200+`` tail of each host's /24 guest subnet, far above the dynamic
    allocator's ``.10``-up range.
    """
    if p.n_fleets <= 0:
        return None
    if p.fleet_placement not in ("affinity", "scatter"):
        raise ValueError(f"unknown fleet placement {p.fleet_placement!r}")
    items = [(f, k) for f in range(p.n_fleets) for k in range(p.fleet_size)]
    edges = _fleet_edges(p)
    anchors = {(f, 0): f % p.n_zones for f in range(p.n_fleets)}
    if p.fleet_placement == "affinity":
        plan = plan_shard_placement(items, edges, p.n_zones, anchors=anchors)
    else:
        assignment = {
            (f, k): (f % p.n_zones + k) % p.n_zones for f, k in items
        }
        plan = PlacementPlan(
            n_shards=p.n_zones,
            assignment=assignment,
            edges=edges,
            weights={item: 1.0 for item in items},
        )
    n_hosts = p.n_racks * p.hosts_per_rack
    per_zone = [0] * p.n_zones
    members: dict[tuple[int, int], tuple[int, int, str]] = {}
    for item in items:
        zone = plan.assignment[item]
        slot = per_zone[zone]
        per_zone[zone] += 1
        host_index = slot % n_hosts
        octet = 200 + slot // n_hosts
        if octet > 254:
            raise ValueError(
                f"zone z{zone} fleet membership exceeds pinned-address space"
            )
        rack = host_index // p.hosts_per_rack
        host_in_rack = host_index % p.hosts_per_rack
        addr = f"{_zone_base_octet(zone)}.{rack}.{host_in_rack + 1}.{octet}"
        members[item] = (zone, host_index, addr)
    return FleetPlan(
        placement=p.fleet_placement,
        n_zones=p.n_zones,
        members=members,
        quality=plan.quality(),
    )


def _fleet_chat_tx(sim, stats: ZoneStats, sock, peer_addr, fleet: int,
                   member: int, interval: float, rng) -> Generator:
    # Desynchronised start, from the zone's own RNG namespace.
    yield sim.timeout(rng.random() * interval)
    beat = 0
    while True:
        yield sim.timeout(interval)
        beat += 1
        sock.sendto(b"fleet:%d:%d:%d" % (fleet, member, beat),
                    peer_addr, FLEET_PORT)
        stats.fleet_sent += 1


def _fleet_chat_rx(stats: ZoneStats, sock) -> Generator:
    while True:
        yield sock.recvfrom()
        stats.fleet_recv += 1


def _deploy_fleet(sim, zrngs, zone: Zone, zone_index: int, plan: FleetPlan,
                  p: ScaleParams) -> None:
    """Launch this zone's slice of the fleet plan and start its chatter."""
    hosts = zone.provider.datacenter.hosts
    stats = zone.stats
    for f, k in plan.zone_members(zone_index):
        _zone, host_index, addr = plan.members[(f, k)]
        vm = zone.provider.launch(
            Tenant(f"fleet{f}"), "t1.micro", name=f"z{zone_index}-fleet{f}m{k}",
            host=hosts[host_index], address=ipv4(addr),
        )
        peer = (f, (k + 1) % p.fleet_size)
        sock = UdpStack(vm).bind(FLEET_PORT)
        sim.process(_fleet_chat_rx(stats, sock), name=f"{vm.name}-rx")
        if peer == (f, k):
            continue  # single-member fleet: nothing to chat with
        peer_addr = ipv4(plan.members[peer][2])
        sim.process(
            _fleet_chat_tx(sim, stats, sock, peer_addr, f, k,
                           p.fleet_interval, zrngs.stream(f"fleet-{f}-{k}")),
            name=f"{vm.name}-tx",
        )


# --------------------------------------------------------- cross-zone links --


def _heartbeat_tx(sim, stats: ZoneStats, sock, peers: dict[int, IPAddress],
                  interval: float, next_fire: list[float]) -> Generator:
    beat = 0
    while True:
        next_fire[0] = sim.now + interval  # the float the timeout is heaped at
        yield sim.timeout(interval)
        beat += 1
        payload = b"hb:%d" % beat
        for j in sorted(peers):
            sock.sendto(payload, peers[j], HEARTBEAT_PORT)
            stats.heartbeats_sent += 1


def _heartbeat_rx(stats: ZoneStats, sock) -> Generator:
    while True:
        yield sock.recvfrom()
        stats.heartbeats_recv += 1


def _start_heartbeats(sim, zname: str, stats: ZoneStats, border: Node,
                      peers: dict[int, IPAddress],
                      p: ScaleParams) -> Callable[[], float]:
    """Start the border router's heartbeats; returns a reader of the
    sender's next fire time (0.0 until it first runs)."""
    sock = UdpStack(border).bind(HEARTBEAT_PORT)
    next_fire = [0.0]
    sim.process(
        _heartbeat_tx(sim, stats, sock, peers, p.heartbeat_interval, next_fire),
        name=f"{zname}-hb-tx",
    )
    sim.process(_heartbeat_rx(stats, sock), name=f"{zname}-hb-rx")
    return lambda: next_fire[0]


# ----------------------------------------------------------------- builders --


def build_scale_zones(shard, hosted: tuple[int, ...], n_zones: int,
                      params: ScaleParams | None = None,
                      fleet_plan: FleetPlan | None = None) -> list[Zone]:
    """Shard builder for the zones in ``hosted`` (module-level, hence
    picklable for process workers); returns them in that order.

    Every zone draws from ``RngStreams(seed).spawn("shard:z<i>")`` whichever
    shard hosts it.  Ring neighbours hosted here are joined with
    :func:`wire`, the others through cross-shard portals, and each zone
    routes the others' guest space over the ring-shortest hop, so every plan
    forwards over the identical link sequence.  A one-zone shard's result is
    its zone's stats.
    """
    p = params or ScaleParams()
    sim = shard.sim
    root = RngStreams(shard.seed)
    zrngs = {i: root.spawn(f"shard:z{i}") for i in hosted}
    zones = {i: _build_zone(sim, zrngs[i], i, p) for i in hosted}
    links: dict[tuple[int, int], object] = {}  # (zone, neighbour) -> iface
    peers: dict[int, dict[int, IPAddress]] = {}
    for i, zone in zones.items():
        border = zone.internet.router
        peers[i] = {}
        for j in _ring_neighbors(i, n_zones):
            my_addr, peer_addr = _cross_link_addrs(i, j)
            if j not in zones:
                links[i, j] = wire_cross_shard(
                    shard, border, my_addr,
                    out_port=f"x:z{i}->z{j}", in_port=f"x:z{j}->z{i}",
                    dst_shard=f"z{j}", bandwidth_bps=p.inter_zone_bps,
                    delay_s=p.inter_zone_delay,
                )
            elif (i, j) not in links:
                links[i, j], links[j, i], _ = wire(
                    sim, border, zones[j].internet.router,
                    addr_a=my_addr, addr_b=peer_addr,
                    bandwidth_bps=p.inter_zone_bps, delay_s=p.inter_zone_delay,
                )
            border.routes.add(Prefix(peer_addr, 32), links[i, j])
            peers[i][j] = peer_addr
        # Cross-zone guest routes: every other zone's 10.x/8 guest space is
        # reachable over the ring-shortest inter-AZ hop, so zone-spanning
        # tenants (fleets) can talk VM-to-VM across zones.
        for j in range(n_zones):
            if j != i:
                border.routes.add(
                    prefix(f"{_zone_base_octet(j)}.0.0.0/8"),
                    links[i, _ring_next_hop(i, j, n_zones)],
                )
    # Earliest-output-time promises (see repro.sim.shard), registered for
    # the sources that can reach a portal.  A heartbeat is sent by the
    # border router itself (sendto -> send_ip -> send_ip_fast ->
    # ShardPortal.send is one event), so its timer is a sound promise.
    for i, zone in zones.items():
        if peers[i]:
            next_fire = _start_heartbeats(
                sim, zone.name, zone.stats, zone.internet.router, peers[i], p
            )
            if any(j not in zones for j in peers[i]):
                shard.egress_promise(next_fire)
    fleet_leaves = False
    if p.n_fleets > 0:
        plan = fleet_plan if fleet_plan is not None else plan_fleet(p)
        for i, zone in zones.items():
            _deploy_fleet(sim, zrngs[i], zone, i, plan, p)
            fleet_leaves = fleet_leaves or any(
                plan.members[(f, (k + 1) % p.fleet_size)][0] not in zones
                for f, k in plan.zone_members(i)
            )
    # A fleet VM is host -> rack -> core -> border away from the portal, so
    # its chat to a member hosted elsewhere can be in flight at a barrier
    # with its timer already re-armed: it promises the shard's next live
    # event.  Packets from other shards (to a member here, or in transit
    # over the border router, which forwards in the arrival event) are the
    # coordinator's pending-arrival term and need no promise.
    if fleet_leaves:
        shard.egress_promise(sim.peek_live)
    built = list(zones.values())
    if len(built) == 1:
        shard.result_fn = built[0].stats.as_dict
    return built


def scale_builders(p: ScaleParams) -> dict:
    """The ``ShardedSimulation`` builder map for a scale run: one zone per
    shard."""
    plan = plan_fleet(p)
    return {
        f"z{i}": (build_scale_zones, {"hosted": (i,), "n_zones": p.n_zones,
                                      "params": p, "fleet_plan": plan})
        for i in range(p.n_zones)
    }


def build_scale_monolithic(
    seed: int, p: ScaleParams
) -> tuple[Simulator, list[Zone]]:
    """The single-heap twin: every zone on one shard of the same builder,
    so the ring links are ordinary wires.

    Used as the speedup baseline (with ``fluid=False``) and as the timing
    reference the sharded build must reproduce bit-identically.  It books
    its counters into METRICS as any plain simulator does, the totals a
    sharded run's replies carry home.
    """
    shard = Shard("monolithic", 0, seed)
    return shard.sim, build_scale_zones(shard, tuple(range(p.n_zones)), p.n_zones, p)
