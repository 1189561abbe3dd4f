"""NAPT middlebox: source NAT with endpoint-independent (full-cone) mapping.

The paper's "power users" scenario has developers behind NATted access
networks reaching cloud VMs with HIP-over-Teredo; Teredo (RFC 4380) was
designed exactly for cone NATs, so that is the filtering behaviour we model.
TCP and UDP are rewritten; ICMP echo is translated by identifier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.addresses import IPAddress
from repro.net.node import Node
from repro.net.packet import Header, ICMPHeader, IPHeader, Packet, TCPHeader, UDPHeader

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Interface
    from repro.sim.engine import Simulator


class NatBox(Node):
    """Two-armed NAT: ``inside`` interface(s) and one ``outside`` interface.

    Mappings are keyed by (proto, inside_addr, inside_port) and allocate a
    port on the external address.  Inbound packets to unmapped ports are
    dropped (and counted), which is what breaks un-assisted inbound
    connections and motivates Teredo/HIP NAT traversal.
    """

    def __init__(self, sim: "Simulator", name: str, external_addr: IPAddress) -> None:
        super().__init__(sim, name, forwarding=True)
        self.external_addr = external_addr
        self._next_port = 1024
        # (proto, in_addr, in_port) -> ext_port ; and the reverse.
        self._out_map: dict[tuple, int] = {}
        self._in_map: dict[tuple, tuple[IPAddress, int]] = {}
        self._inside_ifaces: set[str] = set()
        self._outside_iface: "Interface | None" = None
        self.dropped_unsolicited = 0

    def set_outside(self, iface: "Interface") -> None:
        self._outside_iface = iface
        iface.add_address(self.external_addr)

    def mark_inside(self, iface: "Interface") -> None:
        self._inside_ifaces.add(iface.name)

    # -- packet path ---------------------------------------------------------------
    def _on_receive(
        self, packet: Packet, iface: "Interface | None", size: int = 0
    ) -> None:
        ip = packet.outer
        if not isinstance(ip, IPHeader) or iface is None:
            super()._on_receive(packet, iface, size)
            return
        if iface.name in self._inside_ifaces:
            self._outbound(packet)
        elif self._outside_iface is not None and iface.name == self._outside_iface.name:
            self._inbound(packet)
        else:
            super()._on_receive(packet, iface, size)

    @staticmethod
    def _transport(packet: Packet) -> tuple[str, int, int, Header] | None:
        """(proto, src_port, dst_port, header) of a NATable transport header."""
        head = packet.headers[1] if len(packet.headers) > 1 else None
        if isinstance(head, UDPHeader):
            return ("udp", head.src_port, head.dst_port, head)
        if isinstance(head, TCPHeader):
            return ("tcp", head.src_port, head.dst_port, head)
        if isinstance(head, ICMPHeader):  # echo is mapped by identifier
            return ("icmp", head.ident, head.ident, head)
        return None

    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if self._next_port > 65535:
            self._next_port = 1024
        return port

    def _outbound(self, packet: Packet) -> None:
        ip, info = packet.headers[0], self._transport(packet)
        if info is None or self._outside_iface is None:
            self.dropped_no_handler += 1
            return
        proto, src_port, _, head = info
        key = (proto, ip.src, src_port)
        ext_port = self._out_map.get(key)
        if ext_port is None:
            ext_port = self._alloc_port()
            self._out_map[key] = ext_port
            self._in_map[(proto, ext_port)] = (ip.src, src_port)
        head = head._replace(ident=ext_port) if proto == "icmp" else head._replace(src_port=ext_port)
        self._emit(packet, IPHeader(self.external_addr, ip.dst, ip.proto, ip.ttl - 1), head)

    def _inbound(self, packet: Packet) -> None:
        ip, info = packet.headers[0], self._transport(packet)
        mapping = None if info is None else self._in_map.get((info[0], info[2]))
        if mapping is None:
            self.dropped_unsolicited += 1
            return
        in_addr, in_port = mapping
        head = info[3]
        head = head._replace(ident=in_port) if info[0] == "icmp" else head._replace(dst_port=in_port)
        self._emit(packet, IPHeader(ip.src, in_addr, ip.proto, ip.ttl - 1), head)

    def _emit(self, packet: Packet, ip: IPHeader, head: Header) -> None:
        """Send ``packet`` on with its IP and transport headers rewritten."""
        egress = self.routes.lookup(ip.dst)
        if egress is None:
            self.dropped_no_route += 1
            return
        egress.send(Packet((ip, head) + packet.headers[2:], packet.payload, packet.meta))
