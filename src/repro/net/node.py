"""Network nodes: interfaces, protocol dispatch, forwarding, and a CPU model.

A :class:`Node` is anything with a network presence — a VM, a physical
router, a NAT box, the load balancer.  Protocol engines (UDP, TCP, ICMP,
ESP, HIP) register handlers for their IP protocol string; *output shims* let
the HIP daemon intercept locally-originated packets addressed to HITs/LSIs
before routing (that is exactly where HIPL's LD_PRELOAD/iptables hook sits
in the real stack).

The CPU model is deliberately simple and explicit: a node has ``cpu_cores``
worker slots and a ``cpu_scale`` multiplier (an EC2 micro instance gets
``cpu_scale > 1`` — the same work takes longer than on the reference core).
All protocol and application work passes through :meth:`Node.cpu_work`, so
CPU contention at high concurrency emerges naturally — which is what bends
the throughput curves in Figure 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.crypto.costmodel import CostModel
from repro.net.addresses import IPAddress
from repro.metrics import RECORDER
from repro.net.packet import Header, IPHeader, Packet
from repro.net.routing import RouteTable
from repro.sim.resources import Resource, TimerPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Serializer
    from repro.sim.engine import Simulator

ProtocolHandler = Callable[["Node", Packet, "Interface"], None]
OutputShim = Callable[["Node", Packet], "Packet | None"]


class Interface:
    """A network interface: a set of addresses and an attachment to a link."""

    def __init__(self, node: "Node", name: str) -> None:
        self.node = node
        self.name = name
        self.addresses: list[IPAddress] = []
        self._endpoint: "Serializer | None" = None
        self.rx_packets = 0
        self.rx_bytes = 0

    def add_address(self, addr: IPAddress) -> None:
        if addr not in self.addresses:
            self.addresses.append(addr)
            self.node._addresses_changed()

    def remove_address(self, addr: IPAddress) -> None:
        self.addresses.remove(addr)
        self.node._addresses_changed()

    def attach(self, endpoint: "Serializer") -> None:
        if self._endpoint is not None:
            raise RuntimeError(f"interface {self.name} already attached to a link")
        self._endpoint = endpoint

    def send(self, packet: Packet) -> bool:
        if self._endpoint is None:
            raise RuntimeError(f"interface {self.name} is not attached to a link")
        return self._endpoint.send(packet)

    def receive(self, packet: Packet) -> None:
        size = packet.size_bytes
        self.rx_packets += 1
        self.rx_bytes += size
        self.node._on_receive(packet, self, size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Interface {self.node.name}.{self.name} {self.addresses}>"


class Node:
    """A host, router or middlebox in the simulated network."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        cpu_cores: int = 1,
        cpu_scale: float = 1.0,
        cost_model: CostModel | None = None,
        forwarding: bool = False,
    ) -> None:
        if cpu_scale <= 0:
            raise ValueError("cpu_scale must be positive")
        self.sim = sim
        self.name = name
        self.cpu_scale = cpu_scale
        self.cost_model = cost_model or CostModel()
        self.forwarding = forwarding
        #: Every local address, rebuilt whenever one is added or removed.
        self._local: frozenset[IPAddress] = frozenset()
        self._ip_hdr_cache: IPHeader | None = None  # last header built by send_ip
        self.interfaces: list[Interface] = []
        self.routes = RouteTable()
        #: proto -> (handler, the transport header type it is owed, or None
        #: when the protocol checks its own packets).
        self._protocol_handlers: dict[str, tuple[ProtocolHandler, type[Header] | None]] = {}
        self._output_shims: list[OutputShim] = []
        self.cpu = Resource(sim, cpu_cores)
        #: One completion timer per busy CPU slot, rearmed for each charge.
        self._cpu_timers = TimerPool(sim, self._cpu_done)
        self.dropped_no_route = 0
        self.dropped_no_handler = 0
        self.dropped_ttl = 0
        #: Local deliveries whose transport header does not match ``proto``.
        self.dropped_malformed = 0
        self.cpu_busy_seconds = 0.0

    # -- configuration -----------------------------------------------------------
    def add_interface(self, name: str, *addresses: IPAddress) -> Interface:
        iface = Interface(self, name)
        # Attached first, so the address-set rebuild each add triggers sees it.
        self.interfaces.append(iface)
        for addr in addresses:
            iface.add_address(addr)
        return iface

    def interface(self, name: str) -> Interface:
        for iface in self.interfaces:
            if iface.name == name:
                return iface
        raise KeyError(f"node {self.name} has no interface {name!r}")

    def addresses(self, family: int | None = None) -> list[IPAddress]:
        out = []
        for iface in self.interfaces:
            for addr in iface.addresses:
                if family is None or addr.family == family:
                    out.append(addr)
        return out

    def has_address(self, addr: IPAddress) -> bool:
        return addr in self._local

    def _addresses_changed(self) -> None:
        self._local = frozenset(
            addr for iface in self.interfaces for addr in iface.addresses
        )
        self.routes.invalidate()

    def register_protocol(
        self, proto: str, handler: ProtocolHandler, header: type[Header] | None = None
    ) -> None:
        """Deliver local ``proto`` packets to ``handler``.

        ``header`` is the transport header type every such packet must carry
        right after its IP header; a packet without one is dropped and
        counted in ``dropped_malformed``, so the handler can index it
        unchecked.  ``None`` leaves the header stack to the handler.
        """
        if proto in self._protocol_handlers:
            raise ValueError(f"protocol {proto!r} already registered on {self.name}")
        self._protocol_handlers[proto] = (handler, header)

    def add_output_shim(self, shim: OutputShim) -> None:
        """Install an output interceptor (runs before routing on local sends).

        A shim returns a replacement packet to continue with, or ``None`` if
        it consumed the packet (e.g. the HIP daemon queued it pending a base
        exchange).
        """
        self._output_shims.append(shim)

    # -- CPU model ----------------------------------------------------------------
    def cpu_work(self, seconds: float) -> Generator:
        """Process-generator that occupies one CPU slot for scaled ``seconds``.

        Usage: ``yield from node.cpu_work(t)`` inside a process.
        """
        if seconds < 0:
            raise ValueError("negative CPU work")
        if seconds == 0:
            return
        req = self.cpu.request()
        yield req
        try:
            scaled = seconds * self.cpu_scale
            self.cpu_busy_seconds += scaled
            yield self.sim.timeout(scaled)
        finally:
            self.cpu.release(req)

    def cpu_run(self, seconds: float, fn: Callable, arg) -> None:
        """Callback-lane :meth:`cpu_work`: occupy one CPU slot for scaled
        ``seconds``, then release it and call ``fn(arg)``.

        Queues FIFO with ``cpu_work`` users for the same slots.  Zero cost
        runs ``fn`` inline, as ``cpu_work(0)`` returns without yielding.
        """
        if seconds < 0:
            raise ValueError("negative CPU work")
        if seconds == 0:
            fn(arg)
            return
        self.cpu.acquire(self._cpu_granted, (seconds * self.cpu_scale, fn, arg))

    def _cpu_granted(self, job: tuple) -> None:
        self.cpu_busy_seconds += job[0]
        self._cpu_timers.call_later(job[0], job)

    def _cpu_done(self, job: tuple) -> None:
        self.cpu.release()
        job[1](job[2])

    # -- sending --------------------------------------------------------------------
    def send_ip(
        self,
        dst: IPAddress,
        proto: str,
        payload_packet: Packet,
        src: IPAddress | None = None,
        ttl: int = 64,
    ) -> bool:
        """Wrap ``payload_packet`` in an IP header and route it out.

        Adapter over :meth:`send_ip_fast` for callers that already hold a
        :class:`Packet`; the wire packet shares its ``meta`` annotations.
        """
        return self.send_ip_fast(
            dst, proto, payload_packet.headers, payload_packet.payload,
            src, ttl, payload_packet.meta,
        )

    def send_ip_fast(
        self,
        dst: IPAddress,
        proto: str,
        headers: tuple,
        payload,
        src: IPAddress | None = None,
        ttl: int = 64,
        meta: dict | None = None,
        size: int = 0,
    ) -> bool:
        """Prepend an IP header to raw ``(headers, payload)`` and route it out.

        Builds the wire packet in one allocation, runs the output shims and
        hands the result to the egress link.  Returns False if the packet
        was dropped (no route / egress queue full) or True if it was handed
        to a link or consumed by a shim.  ``size`` is the packet's wire size
        when the caller already knows it (0: the link measures it); a shim
        that substitutes another packet discards it.
        """
        if src is None:
            src = self._pick_source(dst)
            if src is None:
                self.dropped_no_route += 1
                return False
        # Headers are immutable values, so consecutive packets of a flow
        # share one header instead of rebuilding it.
        hdr = self._ip_hdr_cache
        if hdr is None or hdr[:] != (src, dst, proto, ttl):
            hdr = self._ip_hdr_cache = IPHeader(src, dst, proto, ttl)
        packet = Packet((hdr,) + headers, payload, meta)
        shims = self._output_shims
        if shims:
            for shim in shims:
                result = shim(self, packet)
                if result is None:
                    return True  # consumed by the shim
                if result is not packet:
                    packet, size = result, 0
        return self._route_out(packet, size)

    def _pick_source(self, dst: IPAddress) -> IPAddress | None:
        iface = self.routes.lookup_cached(dst)
        if iface is not None:
            for addr in iface.addresses:
                if addr.family == dst.family:
                    return addr
        # No route (or unnumbered egress): fall back to any same-family
        # address.  Output shims (HIP, Teredo) intercept before routing, so
        # shim-handled destinations legitimately have no route entry.
        for addr in self.addresses(dst.family):
            return addr
        return None

    def _route_out(self, packet: Packet, size: int = 0) -> bool:
        dst = packet.headers[0].dst
        if dst in self._local:
            # Loopback delivery stays inside the node.
            self._on_receive(packet, None)
            return True
        iface = self.routes.lookup_cached(dst)
        endpoint = None if iface is None else iface._endpoint
        if endpoint is None:  # no route, or egress not attached to a link
            self.dropped_no_route += 1
            return False
        return endpoint.send(packet, size)

    # -- receiving ---------------------------------------------------------------------
    def _on_receive(
        self, packet: Packet, iface: Interface | None, size: int = 0
    ) -> None:
        """Forward an arriving packet, or hand one addressed to this node to
        its protocol handler: the one place a handler's transport header is
        checked.  ``size`` is its wire size when the delivering link already
        measured it (0: unknown)."""
        headers = packet.headers
        ip = headers[0] if headers else None
        if not isinstance(ip, IPHeader):
            self.dropped_no_handler += 1
            return
        if ip.dst not in self._local:
            if self.forwarding:
                self._forward(packet, size)
            else:
                self.dropped_no_route += 1
            return
        proto = ip.proto
        entry = self._protocol_handlers.get(proto)
        if entry is None:
            self.dropped_no_handler += 1
            return
        handler, header = entry
        if header is not None and (len(headers) < 2 or not isinstance(headers[1], header)):
            self.dropped_malformed += 1
            if RECORDER.enabled:
                RECORDER.record(
                    self.sim.now, "node", "malformed_drop", node=self.name, proto=proto,
                    headers="/".join(type(h).__name__ for h in headers),
                )
            return
        handler(self, packet, iface)  # type: ignore[arg-type]

    def _forward(self, packet: Packet, size: int = 0) -> None:
        headers = packet.headers
        ip = headers[0]
        if ip.ttl <= 1:
            self.dropped_ttl += 1
            return
        hop = self.routes.next_hop(ip)
        if hop is None:  # no route, or egress not attached to a link
            self.dropped_no_route += 1
            return
        # The TTL rewrite leaves the wire size unchanged.
        hop[1].send(Packet((hop[0],) + headers[1:], packet.payload, packet.meta), size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name}>"
