"""Teredo tunneling (RFC 4380, simplified): IPv6 over UDP over IPv4.

The paper's power users reach cloud VMs over HIP combined with Teredo when
they sit behind NATs (native HIP NAT traversal was not yet implemented in
2012).  We implement the two roles they need:

* **server** — answers router solicitations, telling the client its
  NAT-mapped (address, port) from which the client derives its Teredo IPv6
  address ``2001:0:<server-v4>:<flags>:<~port>:<~addr>``;
* **client** — qualifies against a server, owns the derived address, and
  encapsulates/decapsulates IPv6 packets in UDP.

Client↔client traffic flows directly between the mapped endpoints (both our
NATs are full-cone), but every packet crosses the *userspace* Teredo daemon
on each host — the dominant cost in practice (miredo in the paper's setup)
and the reason Teredo shows the worst RTT in Figure 3.  That per-packet
daemon cost is charged from :class:`~repro.crypto.costmodel.CostModel`.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Generator

from repro.net.addresses import IPAddress, TEREDO_PREFIX, ipv4, is_hit, is_teredo
from repro.net.packet import IPHeader, Packet
from repro.net.udp import UdpStack
from repro.net.wire import WireReader
from repro.sim.resources import Queue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

TEREDO_PORT = 3544

# Control message tags (first byte of a Teredo UDP payload in our encoding).
_TAG_RS = 0x01  # router solicitation
_TAG_RA = 0x02  # router advertisement
_TAG_DATA = 0x00  # encapsulated IPv6 packet follows (as a tunneled Packet)

_RA = struct.Struct(">BIH")  # tag + mapped IPv4 + mapped port


class TeredoParseError(ValueError):
    """Malformed Teredo control message."""


def parse_ra(data: bytes) -> tuple[IPAddress, int]:
    """Parse a router advertisement into (mapped_addr, mapped_port)."""
    r = WireReader(data, TeredoParseError)
    _tag, mapped_addr, mapped_port = r.read(_RA, "router advertisement")
    r.expect_end("router advertisement")
    return ipv4(mapped_addr), mapped_port


def make_teredo_address(server_v4: IPAddress, mapped_addr: IPAddress, mapped_port: int) -> IPAddress:
    """Derive the client's Teredo IPv6 address (RFC 4380 §4)."""
    if server_v4.family != 4 or mapped_addr.family != 4:
        raise ValueError("Teredo requires IPv4 server and mapped addresses")
    value = (
        (TEREDO_PREFIX.network.value >> 96) << 96
        | server_v4.value << 64
        | 0x0000 << 48  # flags: cone NAT
        | (mapped_port ^ 0xFFFF) << 32
        | (mapped_addr.value ^ 0xFFFFFFFF)
    )
    return IPAddress(6, value)


def parse_teredo_address(addr: IPAddress) -> tuple[IPAddress, IPAddress, int]:
    """Extract (server_v4, mapped_addr, mapped_port) from a Teredo address."""
    if not is_teredo(addr):
        raise ValueError(f"{addr} is not a Teredo address")
    server_v4 = ipv4((addr.value >> 64) & 0xFFFFFFFF)
    mapped_port = ((addr.value >> 32) & 0xFFFF) ^ 0xFFFF
    mapped_addr = ipv4((addr.value & 0xFFFFFFFF) ^ 0xFFFFFFFF)
    return server_v4, mapped_addr, mapped_port


class TeredoServer:
    """Qualification server: reflects the client's mapped address back."""

    def __init__(self, node: "Node", udp: UdpStack) -> None:
        self.node = node
        self.sock = udp.bind(TEREDO_PORT)
        self.solicitations = 0
        node.sim.process(self._serve(), name=f"teredo-server-{node.name}")

    def _serve(self) -> Generator:
        while True:
            data, (src, src_port) = yield self.sock.recvfrom()
            if not isinstance(data, (bytes, bytearray)) or not data or data[0] != _TAG_RS:
                continue
            self.solicitations += 1
            yield from self.node.cpu_work(10e-6)
            # RA: tag + mapped IPv4 + mapped port
            ra = bytes([_TAG_RA]) + src.packed() + struct.pack(">H", src_port)
            self.sock.sendto(ra, src, src_port)


class TeredoClient:
    """Per-host Teredo engine: qualification + encap/decap daemon.

    Client-to-client traffic always goes direct to the peer's mapped
    endpoint.
    """

    def __init__(self, node: "Node", udp: UdpStack, server_v4: IPAddress) -> None:
        self.node = node
        self.udp = udp
        self.server_v4 = server_v4
        self.sock = udp.bind(TEREDO_PORT)
        self.address: IPAddress | None = None
        self._iface = node.add_interface("teredo0")
        self._tx = Queue(node.sim)
        self.packets_encapsulated = 0
        self.packets_decapsulated = 0
        node.add_output_shim(self._output_shim)
        node.sim.process(self._tx_daemon(), name=f"teredo-tx-{node.name}")
        # The rx daemon starts after qualification so it cannot steal the RA.

    def qualify(self, timeout: float = 2.0) -> Generator:
        """Process-generator: RS/RA exchange; returns our Teredo address."""
        sim = self.node.sim
        self.sock.sendto(bytes([_TAG_RS]), self.server_v4, TEREDO_PORT)
        from repro.sim.events import AnyOf

        reply = self._await_ra()
        deadline = sim.timeout(timeout)
        winner, value = yield AnyOf(sim, [sim.process(reply), deadline])
        if winner is deadline or value is None:
            raise TimeoutError("Teredo qualification timed out")
        mapped_addr, mapped_port = value
        self.address = make_teredo_address(self.server_v4, mapped_addr, mapped_port)
        self._iface.add_address(self.address)
        sim.process(self._rx_daemon(), name=f"teredo-rx-{self.node.name}")
        return self.address

    def _await_ra(self) -> Generator:
        while True:
            data, _src = yield self.sock.recvfrom()
            if isinstance(data, (bytes, bytearray)) and data and data[0] == _TAG_RA:
                try:
                    return parse_ra(data)
                except TeredoParseError:
                    continue  # hostile or corrupt RA: keep waiting
            # Not the RA (early data packet): hand to the decap path.
            self._handle_encapsulated(data)

    # -- outbound ---------------------------------------------------------------
    def _output_shim(self, node: "Node", packet: Packet) -> Packet | None:
        ip = packet.outer
        if not isinstance(ip, IPHeader) or ip.family != 6:
            return packet
        if self.address is None or ip.dst == self.address:
            return packet
        if is_hit(ip.dst):
            return packet  # HITs belong to the HIP daemon, not the tunnel
        if is_teredo(ip.dst):
            self._tx.try_put(packet)
            return None
        return packet

    def _tx_daemon(self) -> Generator:
        while True:
            packet = yield self._tx.get()
            # Userspace daemon cost dominates the Teredo data path.
            yield from self.node.cpu_work(self.node.cost_model.teredo_encap)
            # The shim queues only packets to Teredo destinations.
            _server, peer_addr, peer_port = parse_teredo_address(packet.outer.dst)
            self.packets_encapsulated += 1
            self.sock.sendto(packet, peer_addr, peer_port)

    # -- inbound -----------------------------------------------------------------
    def _rx_daemon(self) -> Generator:
        while True:
            data, _src = yield self.sock.recvfrom()
            if isinstance(data, (bytes, bytearray)):
                continue  # control traffic is handled during qualification
            yield from self.node.cpu_work(self.node.cost_model.teredo_encap)
            self._handle_encapsulated(data)

    def _handle_encapsulated(self, data) -> None:
        if isinstance(data, Packet):
            self.packets_decapsulated += 1
            self.node._on_receive(data, self._iface)
