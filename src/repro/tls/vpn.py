"""OpenVPN-style SSL tunnels — the paper's "SSL" comparison point.

§V-A: "One of the popular alternatives, OpenVPN uses OpenSSL and hence SSL
was used as an alternative to compare the performance of HIP."  OpenVPN is
a *tunnel*: a TLS handshake keys the tunnel once per peer pair, then every
IP packet is protected by the TLS record transform and carried over UDP.
Structurally this parallels HIP exactly — asymmetric crypto at setup,
symmetric per-packet cost afterwards — which is precisely the comparison
the paper draws.

:class:`SslVpnDaemon` mirrors :class:`~repro.hip.daemon.HipDaemon`: each
node gets a tunnel address from the VPN subnet (``10.8.0.0/24``, OpenVPN's
default); an output shim intercepts packets to tunnel addresses, runs the
handshake on first use, then charges the TLS record cost per packet and
ships ``IP | VPN-record | inner`` to the peer's locator.  The handshake
really performs the RSA operations (encrypt/decrypt of a premaster against
the peer's key) so its cost structure is honest; the data plane is
cost-accounted like HIP's virtual path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import StrEnum
from typing import TYPE_CHECKING, Generator

from repro.crypto.costmodel import CryptoMeter
from repro.crypto.hmac_kdf import ct_equal, tls_prf, tls_verify_data
from repro.crypto.rsa import RsaError, RsaKeyPair
from repro.crypto.secret import Secret
from repro.metrics import RECORDER
from repro.net.addresses import IPAddress, Prefix, prefix
from repro.net.packet import Header, IPHeader, Packet
from repro.net.wire import WireReader
from repro.sim.resources import Queue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

VPN_SUBNET = prefix("10.8.0.0/24")
HANDSHAKE_RETRIES = 4
RETRY_BASE_S = 0.5


class TunnelState(StrEnum):
    """Canonical SSL-VPN tunnel states.

    Single source of truth for the tunnel state machine: the CONF003
    analysis rule rejects bare string literals and unknown members, and the
    moves between states are exactly :data:`TUNNEL_TRANSITIONS` below.
    """

    NEW = "NEW"
    HELLO_SENT = "HELLO-SENT"
    ESTABLISHED = "ESTABLISHED"
    FAILED = "FAILED"


#: Every legal move of the OpenVPN-style tunnel handshake.  A tunnel starts
#: NEW; :meth:`SslVpnDaemon._transition` refuses any pair not listed here,
#: and ``tests/test_fsm_edges.py`` executes every pair that is.
TUNNEL_TRANSITIONS: frozenset[tuple[TunnelState, TunnelState]] = frozenset(
    {
        (TunnelState.NEW, TunnelState.HELLO_SENT),  # client sends hello
        (TunnelState.NEW, TunnelState.ESTABLISHED),  # server accepts key message
        (TunnelState.NEW, TunnelState.FAILED),  # unknown peer / no locator
        # finished verified (client), or the peer's key message won a
        # simultaneous open and this end, the smaller address, is the server
        (TunnelState.HELLO_SENT, TunnelState.ESTABLISHED),
        (TunnelState.HELLO_SENT, TunnelState.FAILED),  # retransmissions exhausted
        # A retransmitted key message re-derives the same secrets and the
        # server answers finished again: an idempotent self-loop.
        (TunnelState.ESTABLISHED, TunnelState.ESTABLISHED),
    }
)


class VpnRecordHeader(Header):
    """Per-packet tunnel overhead: record header + IV + MAC + pad + UDP encap."""

    __slots__ = ()
    seq: int
    pad_len: int = 8

    @property
    def header_len(self) -> int:
        # 5 (record) + 16 (IV) + 20 (MAC) + pad + 8 (UDP) — OpenVPN rides UDP.
        return 5 + 16 + 20 + self.pad_len + 8


@dataclass
class Tunnel:
    peer_vpn: IPAddress
    locator: IPAddress
    state: TunnelState = TunnelState.NEW
    role: str = "client"
    master_secret: Secret | None = None
    verify_data: bytes = b""
    seq_out: int = 0
    queued: list[Packet] = field(default_factory=list)
    established_evt: object = None

    @property
    def is_established(self) -> bool:
        return self.state == TunnelState.ESTABLISHED


class VpnError(Exception):
    """Tunnel establishment failure."""


def parse_key_body(body: bytes, modulus_len: int) -> tuple[bytes, bytes]:
    """``key`` control body -> (client random, RSA-encrypted premaster)."""
    r = WireReader(body, VpnError)
    client_random = r.take(32, "key message client random")
    encrypted = r.take(modulus_len, "key message ciphertext")
    r.expect_end("key message")
    return client_random, encrypted


class SslVpnDaemon:
    """Per-host OpenVPN-like engine."""

    def __init__(
        self,
        node: "Node",
        vpn_addr: IPAddress,
        keypair: RsaKeyPair,
        rng: random.Random,
        queue_limit: int = 64,
    ) -> None:
        if not VPN_SUBNET.contains(vpn_addr):
            raise ValueError(f"{vpn_addr} is outside the VPN subnet {VPN_SUBNET}")
        self.node = node
        self.sim = node.sim
        self.vpn_addr = vpn_addr
        self.keypair = keypair
        self.rng = rng
        self.queue_limit = queue_limit
        self.meter = CryptoMeter()

        iface = node.add_interface("tun0")
        iface.add_address(vpn_addr)
        node.routes.add(VPN_SUBNET, iface)
        node.add_output_shim(self._output_shim)
        # Control messages carry no record header: _rx_worker checks its own.
        node.register_protocol("sslvpn", self._on_packet, None)

        # peer vpn address -> (locator, peer public key)
        self.peers: dict[IPAddress, tuple[IPAddress, object]] = {}
        # peer locator -> peer vpn address: every packet, control or data,
        # belongs to the host that sent it, never to one its sender names
        self._by_locator: dict[IPAddress, IPAddress] = {}
        self.tunnels: dict[IPAddress, Tunnel] = {}
        self._tx = Queue(self.sim)
        self._rx = Queue(self.sim)
        self.sim.process(self._tx_worker(), name=f"vpn-tx-{node.name}")
        self.sim.process(self._rx_worker(), name=f"vpn-rx-{node.name}")
        self.packets_sent = 0
        self.packets_received = 0
        self.drops = 0

    # -- configuration -------------------------------------------------------
    def add_peer(self, peer_vpn: IPAddress, locator: IPAddress, public_key) -> None:
        self.peers[peer_vpn] = (locator, public_key)
        self._by_locator[locator] = peer_vpn

    def connect(self, peer_vpn: IPAddress, timeout: float = 30.0) -> Generator:
        """Process-generator: ensure the tunnel to ``peer_vpn`` is up."""
        tunnel = self._ensure_tunnel(peer_vpn)
        if tunnel.is_established:
            return tunnel
        if tunnel.state == TunnelState.NEW:
            self._start_handshake(tunnel)
        from repro.sim.events import AnyOf

        deadline = self.sim.timeout(timeout)
        winner, value = yield AnyOf(self.sim, [tunnel.established_evt, deadline])
        if winner is deadline:
            raise VpnError(f"tunnel to {peer_vpn} timed out")
        return value

    # -- data path --------------------------------------------------------------
    def _output_shim(self, node: "Node", packet: Packet) -> Packet | None:
        ip = packet.outer
        if not isinstance(ip, IPHeader):
            return packet
        if VPN_SUBNET.contains(ip.dst) and ip.dst != self.vpn_addr:
            self._tx.try_put(packet)
            return None
        return packet

    def _tx_worker(self) -> Generator:
        while True:
            packet = yield self._tx.get()
            ip = packet.outer
            assert isinstance(ip, IPHeader)
            tunnel = self._ensure_tunnel(ip.dst)
            if not tunnel.is_established:
                if len(tunnel.queued) < self.queue_limit:
                    tunnel.queued.append(packet)
                else:
                    self.drops += 1  # the pending tunnel's queue is full
                if tunnel.state == TunnelState.NEW:
                    self._start_handshake(tunnel)
                continue
            yield from self._protect_and_send(tunnel, packet)

    def _protect_and_send(self, tunnel: Tunnel, packet: Packet) -> Generator:
        cost = self.node.cost_model.tls_record_cost(packet.size_bytes)
        self.meter.charge("vpn.record.out", cost)
        yield from self.node.cpu_work(cost)
        tunnel.seq_out += 1
        pad = (-(packet.size_bytes + 21)) % 16 + 1
        wire = Packet(
            headers=(VpnRecordHeader(seq=tunnel.seq_out, pad_len=pad),),
            payload=packet,
        )
        self.packets_sent += 1
        self.node.send_ip(tunnel.locator, "sslvpn", wire)

    def _on_packet(self, node: "Node", packet: Packet, iface) -> None:
        self._rx.try_put(packet)

    def _rx_worker(self) -> Generator:
        while True:
            packet = yield self._rx.get()
            headers = packet.headers
            peer_vpn = self._by_locator.get(headers[0].src)
            if peer_vpn is None:  # not a registered peer's locator
                self.drops += 1
                continue
            if packet.meta.get("vpn_ctl") is not None:
                yield from self._handle_control(packet, peer_vpn)
                continue
            record = headers[1] if len(headers) > 1 else None
            tunnel = self.tunnels.get(peer_vpn)
            if not (isinstance(record, VpnRecordHeader) and isinstance(packet.payload, Packet)
                    and tunnel is not None and tunnel.is_established):
                self.drops += 1
                continue
            inner = packet.payload
            cost = self.node.cost_model.tls_record_cost(inner.size_bytes)
            self.meter.charge("vpn.record.in", cost)
            yield from self.node.cpu_work(cost)
            self.packets_received += 1
            delivered = self._rebuild_inner(inner, peer_vpn)
            if packet.meta.get("ce"):
                # RFC 6040 decapsulation: copy a CE mark from the outer VPN
                # record to the inner packet so the tunneled flow reacts.
                delivered = delivered.with_meta(ce=True)
            self.node._on_receive(delivered, None)

    def _rebuild_inner(self, inner: Packet, peer_vpn: IPAddress) -> Packet:
        if inner.headers and isinstance(inner.outer, IPHeader):
            old_ip, transport = inner.popped()
            proto = old_ip.proto
        else:
            transport = inner
            proto = "raw"
        return transport.pushed(
            IPHeader(src=peer_vpn, dst=self.vpn_addr, proto=proto)
        )

    # -- handshake -----------------------------------------------------------------
    def _ensure_tunnel(self, peer_vpn: IPAddress) -> Tunnel:
        """The tunnel to ``peer_vpn``; FAILED is terminal, so a failed one is
        replaced by a fresh NEW tunnel for whoever needs the peer next."""
        tunnel = self.tunnels.get(peer_vpn)
        if tunnel is None or tunnel.state == TunnelState.FAILED:
            info = self.peers.get(peer_vpn)
            locator = info[0] if info else None
            tunnel = Tunnel(
                peer_vpn=peer_vpn, locator=locator,  # type: ignore[arg-type]
                established_evt=self.sim.event(),
            )
            self.tunnels[peer_vpn] = tunnel
        return tunnel

    def _transition(self, tunnel: Tunnel, state: TunnelState) -> None:
        """Move ``tunnel`` along an edge of :data:`TUNNEL_TRANSITIONS`,
        tracing it when the recorder is on.

        The only place ``Tunnel.state`` is written (``CONF001`` keeps it so),
        hence every move the daemon ever makes is checked here.
        """
        if (tunnel.state, state) not in TUNNEL_TRANSITIONS:
            raise VpnError(f"illegal tunnel transition {tunnel.state} -> {state}")
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "vpn", "tunnel_state",
                node=self.node.name, peer=str(tunnel.peer_vpn),
                frm=tunnel.state, to=state,
            )
        tunnel.state = state

    def _fail(self, tunnel: Tunnel, error: Exception) -> None:
        self._transition(tunnel, TunnelState.FAILED)
        tunnel.queued.clear()
        evt = tunnel.established_evt
        if evt is not None and not evt.triggered:  # type: ignore[attr-defined]
            evt.fail(error)  # type: ignore[attr-defined]

    def _send_control(self, tunnel: Tunnel, kind: str, body: bytes) -> None:
        ctl = Packet(headers=(), payload=body).with_meta(vpn_ctl=kind)
        self.node.send_ip(tunnel.locator, "sslvpn", ctl)

    def _start_handshake(self, tunnel: Tunnel) -> None:
        info = self.peers.get(tunnel.peer_vpn)
        if info is None:
            self._fail(tunnel, VpnError(f"unknown VPN peer {tunnel.peer_vpn}"))
            return
        tunnel.locator = info[0]
        self._transition(tunnel, TunnelState.HELLO_SENT)
        tunnel.role = "client"
        self.sim.process(self._client_handshake(tunnel), name=f"vpn-hs-{self.node.name}")

    def _client_handshake(self, tunnel: Tunnel) -> Generator:
        peer_key = self.peers[tunnel.peer_vpn][1]
        cm = self.node.cost_model
        # ClientHello -> (retransmitted until ServerHello arrives).
        client_random = self.rng.getrandbits(256).to_bytes(32, "big")
        self._send_control(tunnel, "hello", client_random)
        # Premaster, really RSA-encrypted against the peer's public key.
        premaster = Secret(self.rng.getrandbits(384).to_bytes(48, "big"))
        yield from self._charge("vpn.asym.encrypt", cm.rsa_verify(peer_key.bits))
        encrypted = peer_key.encrypt(premaster, self.rng)
        yield from self._charge("vpn.asym.verify_cert", cm.rsa_verify(peer_key.bits))
        if tunnel.state != TunnelState.HELLO_SENT:
            return  # the peer's key won a simultaneous open meanwhile
        self._send_control(tunnel, "key", client_random + encrypted)
        self._key(tunnel, premaster, client_random)
        # Wait for the server's finished (retry the key message on timeout).
        for attempt in range(HANDSHAKE_RETRIES):
            yield self.sim.timeout(RETRY_BASE_S * (2**attempt))
            if tunnel.is_established or tunnel.state == TunnelState.FAILED:
                return
            self._send_control(tunnel, "key", client_random + encrypted)
        self._fail(tunnel, VpnError("handshake retransmissions exhausted"))

    def _key(self, tunnel: Tunnel, premaster: Secret, client_random: bytes) -> None:
        """Derive the tunnel's master secret and RFC 5246-style verify_data:
        a PRF output over the master secret, so the Finished message proves
        key possession without revealing any master-secret bytes."""
        tunnel.master_secret = tls_prf(premaster, b"vpn master", client_random, 48)
        tunnel.verify_data = tls_verify_data(
            tunnel.master_secret, b"vpn finished", client_random
        )

    def _established(self, tunnel: Tunnel) -> Generator:
        """Both ways into ESTABLISHED (the client's verified ``finished``,
        the server's accepted ``key``): wake the waiters, then send what
        queued while the handshake ran."""
        self._transition(tunnel, TunnelState.ESTABLISHED)
        if not tunnel.established_evt.triggered:  # type: ignore[attr-defined]
            tunnel.established_evt.succeed(tunnel)  # type: ignore[attr-defined]
        queued, tunnel.queued = tunnel.queued, []
        for pkt in queued:
            yield from self._protect_and_send(tunnel, pkt)

    def _handle_control(self, packet: Packet, peer_vpn: IPAddress) -> Generator:
        kind = packet.meta["vpn_ctl"]
        body = packet.payload
        if kind == "key":
            tunnel = self.tunnels.get(peer_vpn)
            if not isinstance(body, (bytes, bytearray)) or tunnel is not None and (
                # Simultaneous open: the smaller address answers as server,
                # the larger stays client.  Only a server re-answers a key.
                tunnel.state == TunnelState.HELLO_SENT and self.vpn_addr > peer_vpn
                or tunnel.is_established and tunnel.role == "client"
            ):
                return
            try:
                client_random, encrypted = parse_key_body(
                    body, self.keypair.public.byte_length
                )
            except VpnError:
                # Cannot be a premaster under our key: drop before the
                # private-key operation is charged (free CPU otherwise).
                self.drops += 1
                return
            cost = self.node.cost_model.rsa_sign(self.keypair.public.bits)
            yield from self._charge("vpn.asym.decrypt", cost)
            try:
                premaster = Secret(self.keypair.decrypt(encrypted))
            except RsaError:
                return
            tunnel = self._ensure_tunnel(peer_vpn)
            tunnel.role = "server"
            self._key(tunnel, premaster, client_random)
            # finished leaves first, so it reaches the peer (in a
            # simultaneous open, still HELLO-SENT) before any queued record.
            self._send_control(tunnel, "finished", tunnel.verify_data)
            yield from self._established(tunnel)
            return
        if kind == "finished":
            tunnel = self.tunnels.get(peer_vpn)
            if tunnel is None or tunnel.state != TunnelState.HELLO_SENT:
                return
            if not isinstance(body, (bytes, bytearray)) or not ct_equal(
                bytes(body), tunnel.verify_data
            ):
                return  # verify_data mismatch: ignore (attacker or corruption)
            yield from self._established(tunnel)
        # "hello" needs no state on the server (the key message carries all).

    def _charge(self, kind: str, cost: float) -> Generator:
        self.meter.charge(kind, cost)
        yield from self.node.cpu_work(cost)
