"""UDP: connectionless datagram service with port demultiplexing.

Used directly by Teredo (its relay and qualification exchange ride UDP)
and by everything that runs over a Teredo tunnel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.addresses import IPAddress
from repro.net.packet import Packet, Payload, UDPHeader
from repro.sim.resources import Queue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Interface, Node


class UdpSocket:
    """A bound UDP socket: receive queue + sendto."""

    def __init__(self, stack: "UdpStack", port: int) -> None:
        self.stack = stack
        self.port = port
        self.rx = Queue(stack.node.sim, capacity=1024)
        self.closed = False

    def sendto(
        self,
        payload: Payload,
        dst: IPAddress,
        dst_port: int,
        src: IPAddress | None = None,
    ) -> bool:
        """Send one datagram; returns False if dropped before the first link."""
        if self.closed:
            raise RuntimeError("socket is closed")
        inner = Packet(headers=(UDPHeader(src_port=self.port, dst_port=dst_port),),
                       payload=payload)
        return self.stack.node.send_ip(dst, "udp", inner, src=src)

    def recvfrom(self):
        """Event yielding ``(payload, (src_addr, src_port))``."""
        return self.rx.get()

    def close(self) -> None:
        self.closed = True
        self.stack._unbind(self.port)


class UdpStack:
    """Per-node UDP engine; registers itself as the node's "udp" protocol."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self._sockets: dict[int, UdpSocket] = {}
        self._next_ephemeral = 49152
        node.register_protocol("udp", self._on_packet, UDPHeader)
        self.rx_dropped = 0

    def bind(self, port: int = 0) -> UdpSocket:
        """Bind a socket; ``port=0`` picks an ephemeral port."""
        if port == 0:
            port = self._alloc_ephemeral()
        if port in self._sockets:
            raise OSError(f"UDP port {port} already bound on {self.node.name}")
        sock = UdpSocket(self, port)
        self._sockets[port] = sock
        return sock

    def _alloc_ephemeral(self) -> int:
        start = self._next_ephemeral
        while self._next_ephemeral in self._sockets:
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = 49152
            if self._next_ephemeral == start:
                raise OSError("out of ephemeral UDP ports")
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = 49152
        return port

    def _unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def _on_packet(self, node: "Node", packet: Packet, iface: "Interface | None") -> None:
        ip, udp = packet.headers[:2]  # Node dispatch checks udp is a UDPHeader
        sock = self._sockets.get(udp.dst_port)
        if sock is None or sock.closed:
            self.rx_dropped += 1
            return
        if not sock.rx.try_put((packet.payload, (ip.src, udp.src_port))):
            self.rx_dropped += 1
