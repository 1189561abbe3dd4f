"""The HIP daemon: base exchange, data-path interception, mobility, teardown.

One :class:`HipDaemon` runs per host (VM, proxy, power-user workstation).
It mirrors HIPL's architecture:

* a virtual ``hip0`` interface owns the host's HIT and LSI, so unmodified
  applications can open TCP/UDP/ICMP flows to HIT or LSI destinations;
* an *output shim* intercepts those flows before routing.  If no association
  exists with the peer, packets are queued and a base exchange (RFC 5201)
  runs: ``I1 → R1(puzzle, DH, HI, sig) → I2(solution, DH, HMAC, sig) →
  R2(ESP info, HMAC, sig)``;
* established associations protect traffic with BEET-mode ESP
  (:mod:`repro.hip.esp`), translating HIT/LSI inner addressing to routable
  locators on the outside;
* UPDATE packets implement locator handoff with the RFC 5206 nonce-echo
  address verification (used by the VM-migration example);
* CLOSE/CLOSE_ACK tears associations down.

All asymmetric operations really sign/verify packet bytes, and every
operation charges calibrated CPU time through the node's cost model, so both
correctness and performance shape are first-class.

Responder statelessness: R1 packets are precomputed and signed off the
critical path (HIPL keeps an R1 pool), and no per-peer state is created
until a valid I2 arrives — HIP's DoS posture, which the puzzle ablation
benchmark exercises.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import StrEnum
from typing import TYPE_CHECKING, Callable, Generator

from repro.crypto.costmodel import CryptoMeter
from repro.crypto.dh import DHKeyPair, MODP_GROUPS
from repro.crypto.hmac_kdf import HmacKey, ct_equal, hip_keymat
from repro.crypto.puzzle import Puzzle, solve_puzzle, verify_solution
from repro.crypto.secret import Secret
from repro.hip import packets as hp
from repro.hip.esp import (
    EspCiphertext,
    EspError,
    EspMode,
    SecurityAssociation,
    derive_sa_pair,
)
from repro.hip.identity import (
    HostIdentity,
    HostKey,
    LsiAllocator,
    asym_cost_for_host_id,
    decode_host_id,
    hit_from_public_key,
    verify_with_host_id,
)
from repro.metrics import METRICS, RECORDER
from repro.net.addresses import IPAddress, is_hit, is_lsi
from repro.net.packet import (
    ESPHeader,
    HIPHeader,
    ICMPHeader,
    IPHeader,
    Packet,
    TCPHeader,
    UDPHeader,
)
from repro.net.wire import unchecked
from repro.sim.engine import TimerHandle
from repro.sim.resources import Queue

if TYPE_CHECKING:  # pragma: no cover
    from repro.hip.firewall import HipFirewall
    from repro.net.node import Node

# KEYMAT layout: HIP HMAC keys (2 x 20) then ESP keys (2 x 36).
_HIP_KEY_BYTES = 40
_ESP_KEY_BYTES = 72
KEYMAT_BYTES = _HIP_KEY_BYTES + _ESP_KEY_BYTES

I1_RETRIES = 4
I2_RETRIES = 4
RETRY_BASE_S = 0.5

# Global tallies across every daemon in the process; the per-daemon attributes
# (``data_packets_sent`` etc.) keep the same counts for single-host assertions.
_DATA_SENT = METRICS.counter("hip.data_packets_sent")
_DATA_RECV = METRICS.counter("hip.data_packets_received")
_ESP_DROPS = METRICS.counter("hip.esp_drops")
_NO_MAPPING = METRICS.counter("hip.drops_no_mapping")
_POLICY_DROPS = METRICS.counter("hip.drops_policy")
_QUEUE_FULL = METRICS.counter("hip.drops_queue_full")
_BEX_DONE = METRICS.counter("hip.bex_completed")
_BEX_T = METRICS.histogram("hip.bex_s")

#: ``HipDaemon._routes`` miss marker (None there means "not a HIP destination").
_UNSEEN = object()

#: The inner IP header's ``proto`` by transport header type ("raw" for others).
_INNER_PROTO = {TCPHeader: "tcp", UDPHeader: "udp", ICMPHeader: "icmp"}

# Pre-bound meter keys: the ESP dataplane must not format strings per packet.
_ESP_ENC_LSI = "esp.encrypt.lsi"
_ESP_ENC_HIT = "esp.encrypt.hit"
_ESP_DEC_LSI = "esp.decrypt.lsi"
_ESP_DEC_HIT = "esp.decrypt.hit"


class HipError(Exception):
    """Association failure (timeout, verification failure, policy deny)."""


def _parse_peer_host_id(host_id_data: bytes) -> tuple[bytes, HostKey]:
    """A HOST_ID parameter's wire HI and its decoded key.

    Any peer chooses these bytes before anything has authenticated them, so
    a key that does not decode raises :class:`~repro.hip.packets.HipParseError`
    and the packet is dropped like any other malformed parameter.
    """
    peer_hi, _di = hp.parse_host_id(host_id_data)
    try:
        return peer_hi, decode_host_id(peer_hi)
    except ValueError as exc:
        raise hp.HipParseError(f"HOST_ID key: {exc}") from None


class HipState(StrEnum):
    """Canonical HIP association states (RFC 5201 §4.4.1, simplified).

    The single source of truth for the association FSM: every comparison and
    every :meth:`HipDaemon._transition` call uses these members (the
    ``CONF003`` analysis rule rejects bare string literals and unknown
    members), and the moves between them are exactly
    :data:`HIP_TRANSITIONS` below.  Deviations from the RFC table, both
    deliberate:

    * ``R2-SENT`` is collapsed into ``ESTABLISHED`` — the responder installs
      its SAs and completes as soon as a valid I2 is accepted;
    * ``FAILED`` is an addition (the RFC retries forever; we surface
      exhausted retransmissions and policy denials to the caller).

    Values stay the historical wire-visible strings so recorded traces and
    string comparisons in older callers keep working (StrEnum members *are*
    their values).
    """

    UNASSOCIATED = "UNASSOCIATED"
    I1_SENT = "I1-SENT"
    I2_SENT = "I2-SENT"
    ESTABLISHED = "ESTABLISHED"
    CLOSING = "CLOSING"
    CLOSED = "CLOSED"
    FAILED = "FAILED"


#: Every legal move of the association machine: RFC 5201 §4.4.2 (base
#: exchange) plus §5.3.6-§5.3.8 (CLOSE / CLOSE_ACK).  An association starts
#: UNASSOCIATED; :meth:`HipDaemon._transition` refuses any pair not listed
#: here, and ``tests/test_fsm_edges.py`` executes every pair that is.
HIP_TRANSITIONS: frozenset[tuple[HipState, HipState]] = frozenset(
    {
        (HipState.UNASSOCIATED, HipState.I1_SENT),  # start BEX as initiator
        (HipState.UNASSOCIATED, HipState.ESTABLISHED),  # responder accepts I2
        (HipState.UNASSOCIATED, HipState.FAILED),  # no locator / policy denial
        (HipState.I1_SENT, HipState.I2_SENT),  # R1 received, I2 sent
        # §6.9 crossing exchanges: the peer's I2 arrives while our own I1 is
        # out and ours is the larger HIT — we answer it as responder.
        (HipState.I1_SENT, HipState.ESTABLISHED),
        (HipState.I1_SENT, HipState.FAILED),  # I1 retransmissions exhausted
        (HipState.I2_SENT, HipState.ESTABLISHED),  # R2 received
        (HipState.I2_SENT, HipState.FAILED),  # I2 retransmissions exhausted
        # §4.4.2 "ESTABLISHED, receive I2: process; if successful, send R2":
        # the initiator lost our R2 and retransmitted, or rebooted and ran a
        # new exchange.  With R2-SENT collapsed this is a self-loop.
        (HipState.ESTABLISHED, HipState.ESTABLISHED),
        (HipState.ESTABLISHED, HipState.CLOSING),  # we sent CLOSE
        (HipState.ESTABLISHED, HipState.CLOSED),  # peer's CLOSE acknowledged
        (HipState.CLOSING, HipState.CLOSED),  # CLOSE_ACK received (or crossed CLOSE)
    }
)


@dataclass
class HipConfig:
    """Daemon tunables."""

    esp_mode: EspMode = EspMode.BEET
    esp_encrypt: bool = True  # confidentiality on (vs auth-only ESP)
    real_crypto: bool = True  # SAs cipher real-byte payloads (False: cost model only)
    puzzle_k: int = 8  # difficulty served in R1
    dh_group: int = 1  # MODP group id (1 = fast 768-bit test group)
    queue_limit: int = 64  # packets queued per pending association


@dataclass
class Association:
    """State for one HIP association (keyed by peer HIT)."""

    peer_hit: IPAddress
    role: str  # "initiator" | "responder"
    state: HipState = HipState.UNASSOCIATED
    peer_locator: IPAddress | None = None
    peer_key: HostKey | None = None  # the peer's decoded HI
    dh: DHKeyPair | None = None
    keymat: Secret | None = None
    # Midstate-cached HMAC objects for the control channel; every HMAC
    # parameter after the handshake reuses them.
    hmac_out: HmacKey | None = None
    hmac_in: HmacKey | None = None
    sa_out: SecurityAssociation | None = None
    sa_in: SecurityAssociation | None = None
    queued: list[tuple] = field(default_factory=list)  # tx lane items
    established_evt: object = None  # sim Event
    update_id: int = 0
    pending_update: dict | None = None
    close_nonce: bytes = b""
    created_at: float = 0.0
    established_at: float = 0.0
    #: The receiver's inner IP header by (address kind, transport header
    #: type): built from the HIT pair and this host's LSIs, none of which
    #: change for the association's life.
    rx_headers: dict = field(default_factory=dict)

    @property
    def is_established(self) -> bool:
        return self.state == HipState.ESTABLISHED

    def set_hmac_keys(self, out_key: Secret, in_key: Secret) -> None:
        """Install the control-channel HMAC keys as cached midstates."""
        self.hmac_out = HmacKey(out_key, "sha1")
        self.hmac_in = HmacKey(in_key, "sha1")


class _Lane:
    """One direction of the ESP data path: a FIFO served one item at a time.

    ``submit`` wakes an idle lane through a zero-delay timer, never by
    calling ``serve`` inline: the packet's sender is mid-dispatch, and other
    work scheduled for this instant must reach the node's CPU first (DESIGN.md
    "The ESP lane").  ``serve(item)`` owns the lane until it calls
    ``advance`` — after the packet is sent, delivered or dropped.  At most
    one hop is pending at a time, so the lane rearms its one timer for each.
    """

    __slots__ = ("serve", "items", "idle", "_hop")

    def __init__(self, sim, serve: Callable) -> None:
        self.serve = serve
        self.items: deque = deque()
        self.idle = True
        self._hop = TimerHandle(sim, self._serve_next)

    def submit(self, item) -> None:
        self.items.append(item)
        if self.idle:
            self.idle = False
            self._hop.rearm(0.0)

    def submit_first(self, items: list) -> None:
        """Put ``items`` ahead of everything waiting, keeping their order."""
        self.items.extendleft(reversed(items))
        self._wake()

    def _wake(self) -> None:
        if self.idle and self.items:
            self.idle = False
            self._hop.rearm(0.0)

    def advance(self) -> None:
        if self.items:
            self._hop.rearm(0.0)
        else:
            self.idle = True

    def _serve_next(self) -> None:
        self.serve(self.items.popleft())


class HipDaemon:
    """Per-host HIP engine."""

    def __init__(
        self,
        node: "Node",
        identity: HostIdentity,
        rng: random.Random,
        config: HipConfig | None = None,
        firewall: "HipFirewall | None" = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.identity = identity
        self.rng = rng
        self.config = config or HipConfig()
        self.firewall = firewall
        self.meter = CryptoMeter()
        self.lsi = LsiAllocator()

        self.hit = identity.hit
        iface = node.add_interface("hip0")
        iface.add_address(self.hit)
        iface.add_address(self.lsi.own_lsi)
        # Route the HIP namespaces at hip0 so source selection picks the
        # host's HIT/LSI for HIP-addressed flows; the output shim intercepts
        # the packets before they would be emitted on the (linkless) iface.
        from repro.net.addresses import LSI_PREFIX, ORCHID_PREFIX

        node.routes.add(ORCHID_PREFIX, iface)
        node.routes.add(LSI_PREFIX, iface)

        # peer HIT -> known locators (the static hosts file).
        self.hosts: dict[IPAddress, list[IPAddress]] = {}
        self.assocs: dict[IPAddress, Association] = {}
        self._spi_counter = rng.randrange(0x1000, 0xFFFF)
        self._sa_in_by_spi: dict[int, Association] = {}
        #: destination -> ``_classify(destination)``, for every destination
        #: this host has sent to (an LSI no peer owns yet is not kept).
        self._routes: dict[IPAddress, tuple | None] = {}

        node.add_output_shim(self._output_shim)
        node.register_protocol("hip", self._on_hip_packet, HIPHeader)
        node.register_protocol("esp", self._on_esp_packet, ESPHeader)

        self._tx_lane = _Lane(self.sim, self._tx_serve)
        self._rx_lane = _Lane(self.sim, self._rx_serve)
        self._ctl = Queue(self.sim)
        self.sim.process(self._ctl_worker(), name=f"hipd-ctl-{node.name}")

        # Precompute the signed R1 (off the hot path, like HIPL's R1 pool).
        self._responder_dh = DHKeyPair.generate(MODP_GROUPS[self.config.dh_group], rng)
        self._puzzle = Puzzle.fresh(self.config.puzzle_k, rng)
        self._r1_template = self._build_r1_template()

        self.data_packets_sent = 0
        self.data_packets_received = 0
        self.drops_no_mapping = 0
        self.drops_policy = 0
        self.drops_esp = 0
        self.drops_queue_full = 0
        self.bex_completed = 0

    # ------------------------------------------------------------------ peers --
    def add_peer(self, peer_hit: IPAddress, locators: list[IPAddress]) -> IPAddress:
        """Register peer HIT -> locator mapping; returns the local LSI for it."""
        if not is_hit(peer_hit):
            raise ValueError(f"{peer_hit} is not a HIT")
        self.hosts[peer_hit] = list(locators)
        return self.lsi.assign(peer_hit)

    def lsi_for_peer(self, peer_hit: IPAddress) -> IPAddress:
        return self.lsi.assign(peer_hit)

    def associate(self, peer_hit: IPAddress, timeout: float = 30.0) -> Generator:
        """Process-generator: ensure an ESTABLISHED association with the peer."""
        assoc = self._ensure_assoc(peer_hit)
        if assoc.is_established:
            return assoc
        if assoc.state in (HipState.FAILED, HipState.CLOSED):
            assoc = self._restart_assoc(peer_hit)
        if assoc.state == HipState.UNASSOCIATED:
            self._start_bex(assoc)
        from repro.sim.events import AnyOf

        deadline = self.sim.timeout(timeout)
        winner, value = yield AnyOf(self.sim, [assoc.established_evt, deadline])
        if winner is deadline:
            raise HipError(f"association with {peer_hit} timed out")
        return value

    def close(self, peer_hit: IPAddress) -> None:
        """Tear down the association (CLOSE / CLOSE_ACK)."""
        assoc = self.assocs.get(peer_hit)
        if assoc is None or not assoc.is_established:
            return
        pkt = self._new_packet(hp.CLOSE, peer_hit)
        nonce = self.rng.getrandbits(64).to_bytes(8, "big")
        assoc.close_nonce = nonce
        pkt.add(hp.ECHO_REQUEST_SIGNED, nonce)
        self._finalize_and_send(pkt, assoc, sign=True)
        self._transition(assoc, HipState.CLOSING)

    # --------------------------------------------------------------- data path --
    def _classify(self, dst: IPAddress) -> tuple[IPAddress | None, str] | None:
        """``(peer HIT, "hit" | "lsi")`` for a destination this daemon carries
        (the peer HIT is None for an LSI no peer owns), None for any other.

        Remembered in ``_routes``: a HIT or LSI mapping never changes once
        made, and an unmapped LSI is asked again, since ``add_peer`` may map
        it later.
        """
        if is_lsi(dst) and dst != self.lsi.own_lsi:
            route = (self.lsi.hit_for(dst), "lsi")
            if route[0] is None:
                return route
        elif is_hit(dst) and dst != self.hit:
            route = (dst, "hit")
        else:
            route = None
        self._routes[dst] = route
        return route

    def _output_shim(self, node: "Node", packet: Packet) -> Packet | None:
        ip = packet.headers[0]
        if not isinstance(ip, IPHeader):
            return packet
        route = self._routes.get(ip.dst, _UNSEEN)
        if route is _UNSEEN:
            route = self._classify(ip.dst)
        if route is None:
            return packet
        peer_hit, kind = route
        if peer_hit is None:
            self.drops_no_mapping += 1
            _NO_MAPPING.inc()
            return None
        # The inner wire size, measured once: the cost charge, the plaintext
        # length and the outer packet's size all follow from it.
        self._tx_lane.submit((peer_hit, packet, kind, packet.size_bytes))
        return None

    def _tx_serve(self, item: tuple[IPAddress, Packet, str, int]) -> None:
        peer_hit, packet, kind, size = item
        assoc = self.assocs.get(peer_hit)
        if assoc is None or not assoc.is_established:
            assoc = self._ensure_assoc(peer_hit)
            if assoc.state in (HipState.FAILED, HipState.CLOSED):
                assoc = self._restart_assoc(peer_hit)
            if len(assoc.queued) < self.config.queue_limit:
                assoc.queued.append(item)
            else:
                self.drops_queue_full += 1
                _QUEUE_FULL.inc()
                if RECORDER.enabled:
                    RECORDER.record(
                        self.sim.now, "hip", "tx_drop", node=self.node.name,
                        peer=str(peer_hit), reason="queue_full",
                    )
            if assoc.state == HipState.UNASSOCIATED:
                self._start_bex(assoc)
            self._tx_lane.advance()
            return
        cost = self._esp_cost(kind, size, True)
        self.node.cpu_run(cost, self._tx_send, (assoc, packet, kind, size))

    def _tx_send(self, job: tuple[Association, Packet, str, int]) -> None:
        assoc, packet, kind, size = job
        locator = assoc.peer_locator
        assert assoc.sa_out is not None and locator is not None
        esp_header, ciphertext = assoc.sa_out.protect(packet, size)
        # The one fresh annotation dict of this packet's trip: it rides the
        # wire (where links mark "ce" in place, so it cannot be shared) and
        # the receiver hands it on to the rebuilt inner packet.
        # repro: ignore[PERF001] -- one dict per ESP packet: links mark meta["ce"] in place, so it cannot be shared, and the receiver hands this same dict to the rebuilt inner packet, so decapsulation copies nothing
        meta = {**packet.meta, "addr_kind": kind}
        self.data_packets_sent += 1
        _DATA_SENT.value += 1
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "hip", "esp_seal", node=self.node.name,
                spi=esp_header.spi, seq=esp_header.seq, bytes=size,
            )
        # Outer IP header (its length follows the locator's family, which
        # UPDATE can change) + ESP fields + the protected plaintext.
        wire_size = (
            (20 if locator.family == 4 else 40) + esp_header.header_len + ciphertext.wire_len
        )
        self.node.send_ip_fast(
            locator, "esp", (esp_header,), ciphertext, None, 64, meta, wire_size
        )
        self._tx_lane.advance()

    def _flush_queued(self, assoc: Association) -> None:
        """Send what queued while the exchange ran — through the tx lane, ahead
        of anything submitted since, so newer packets cannot overtake it."""
        queued, assoc.queued = assoc.queued, []
        self._tx_lane.submit_first(queued)

    def _on_esp_packet(self, node: "Node", packet: Packet, iface) -> None:
        self._rx_lane.submit(packet)

    def _rx_serve(self, packet: Packet) -> None:
        esp_header = packet.headers[1]  # an ESPHeader: Node dispatch checks
        assoc = self._sa_in_by_spi.get(esp_header.spi)
        if assoc is None or assoc.sa_in is None:
            self._drop_esp(esp_header, "unknown_spi")
            return
        payload = packet.payload
        # Until verify has run, ``inner`` may be anything a co-tenant put there.
        if not isinstance(payload, EspCiphertext) or not isinstance(payload.inner, Packet):
            self._drop_esp(esp_header, "malformed_payload")
            return
        kind = "lsi" if packet.meta.get("addr_kind") == "lsi" else "hit"
        cost = self._esp_cost(kind, payload.inner.size_bytes, False)
        self.node.cpu_run(cost, self._rx_deliver, (assoc, esp_header, payload, kind, packet))

    def _rx_deliver(self, job: tuple) -> None:
        assoc, esp_header, payload, kind, packet = job
        try:
            inner = assoc.sa_in.verify(esp_header, payload)
        except EspError as exc:
            self._drop_esp(esp_header, str(exc))
            return
        # The wire packet's annotations go to the inner packet, so a CE mark
        # a congested link set on the outer ESP packet reaches the tunneled
        # flow (RFC 6040 decapsulation).
        delivered = self._rebuild_inner(inner, assoc, kind, packet.meta)
        self.data_packets_received += 1
        _DATA_RECV.value += 1
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "hip", "esp_open", node=self.node.name,
                spi=esp_header.spi, seq=esp_header.seq, bytes=delivered.size_bytes,
            )
        self.node._on_receive(delivered, None)
        self._rx_lane.advance()

    def _esp_cost(self, kind: str, size: int, out: bool) -> float:
        """Price one ESP packet of ``size`` inner bytes: the ``kind`` address
        translation plus ESP encrypt (``out``) or decrypt.  The cost is
        charged to the meter key of that pair and returned."""
        cm = self.node.cost_model
        lsi = kind == "lsi"
        cost = cm.lsi_translation if lsi else cm.hit_translation
        if out:
            cost += cm.esp_encrypt_cost(size)
            return self.meter.charge(_ESP_ENC_LSI if lsi else _ESP_ENC_HIT, cost)
        cost += cm.esp_decrypt_cost(size)
        return self.meter.charge(_ESP_DEC_LSI if lsi else _ESP_DEC_HIT, cost)

    def _drop_esp(self, esp_header: ESPHeader, reason: str) -> None:
        """Count and trace an inbound drop, and move the rx lane on."""
        self.drops_esp += 1
        _ESP_DROPS.inc()
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "hip", "esp_drop", node=self.node.name,
                spi=esp_header.spi, seq=esp_header.seq, reason=reason,
            )
        self._rx_lane.advance()

    def _rebuild_inner(
        self, inner: Packet, assoc: Association, kind: str, meta: dict
    ) -> Packet:
        """Reconstruct the inner IP header with *this host's* HIT/LSI view.

        In BEET mode the inner IP header never crosses the wire; each end
        regenerates it from the SPI-bound HIT pair.  LSIs are host-local, so
        the receiver maps the peer's HIT to its *own* LSI allocation.
        """
        transport = inner.headers
        if transport and isinstance(transport[0], IPHeader):
            transport = transport[1:]
        key = (kind, transport[0].__class__ if transport else None)
        ip = assoc.rx_headers.get(key)
        if ip is None:
            if kind == "lsi":
                src, dst = self.lsi.assign(assoc.peer_hit), self.lsi.own_lsi
            else:
                src, dst = assoc.peer_hit, self.hit
            ip = IPHeader(src, dst, _INNER_PROTO.get(key[1], "raw"))
            assoc.rx_headers[key] = ip
        return unchecked(Packet, ((ip,) + transport, inner.payload, meta))

    # ------------------------------------------------------------ associations --
    def _transition(self, assoc: Association, state: HipState) -> None:
        """Move the association FSM along an edge of :data:`HIP_TRANSITIONS`,
        tracing it when the recorder is on.

        The only place ``Association.state`` is written (``CONF001`` keeps it
        so), hence every move the daemon ever makes is checked here.
        """
        if (assoc.state, state) not in HIP_TRANSITIONS:
            raise HipError(f"illegal HIP transition {assoc.state} -> {state}")
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "hip", "bex_state",
                node=self.node.name, peer=str(assoc.peer_hit),
                frm=assoc.state, to=state,
            )
        assoc.state = state

    def _established(self, assoc: Association) -> None:
        """Common tail of both BEX completions (R2 received / I2 accepted)."""
        self._transition(assoc, HipState.ESTABLISHED)
        assoc.established_at = self.sim.now
        self.bex_completed += 1
        _BEX_DONE.inc()
        _BEX_T.observe(self.sim.now - assoc.created_at)
        if not assoc.established_evt.triggered:  # type: ignore[attr-defined]
            assoc.established_evt.succeed(assoc)  # type: ignore[attr-defined]
        self._flush_queued(assoc)

    def _ensure_assoc(self, peer_hit: IPAddress) -> Association:
        assoc = self.assocs.get(peer_hit)
        if assoc is None:
            assoc = Association(
                peer_hit=peer_hit, role="initiator", created_at=self.sim.now,
                established_evt=self.sim.event(),
            )
            self.assocs[peer_hit] = assoc
        return assoc

    def _restart_assoc(self, peer_hit: IPAddress) -> Association:
        self.assocs.pop(peer_hit, None)
        return self._ensure_assoc(peer_hit)

    # ------------------------------------------------------------- BEX, initiator --
    def _start_bex(self, assoc: Association) -> None:
        locators = self.hosts.get(assoc.peer_hit)
        locator = locators[0] if locators else None
        if locator is None:
            self._fail_assoc(assoc, HipError(f"no locator known for {assoc.peer_hit}"))
            return
        if self.firewall is not None and not self.firewall.allow_outbound(assoc.peer_hit):
            self._policy_drop()
            self._fail_assoc(assoc, HipError("outbound HIP policy denies peer"))
            return
        assoc.peer_locator = locator
        self._transition(assoc, HipState.I1_SENT)
        i1 = self._new_packet(hp.I1, assoc.peer_hit)
        self._send_control(i1, locator)
        self.sim.process(self._retransmitter(assoc, i1, I1_RETRIES), name="hip-i1-rtx")

    def _retransmitter(self, assoc: Association, packet: hp.HipPacket, limit: int) -> Generator:
        """Resend ``packet`` after 0.5, 1, 2, ... s while ``assoc`` stays in
        the state it was sent from; the wake after ``limit`` resends fails it."""
        state = assoc.state
        for retries in range(limit + 1):
            yield self.sim.timeout(RETRY_BASE_S * (2**retries))
            if assoc.state != state:
                return
            if retries == limit:
                self._fail_assoc(assoc, HipError(f"{packet.type_name} retransmissions exhausted"))
                return
            self._send_control(packet, assoc.peer_locator)

    def _fail_assoc(self, assoc: Association, error: Exception) -> None:
        self._transition(assoc, HipState.FAILED)
        assoc.queued.clear()
        evt = assoc.established_evt
        if evt is not None and not evt.triggered:  # type: ignore[attr-defined]
            evt.fail(error)  # type: ignore[attr-defined]

    # -------------------------------------------------------------- BEX, responder --
    def _build_r1_template(self) -> hp.HipPacket:
        """Precompute the signed R1 (receiver HIT filled per-I1 with NULL rules).

        RFC 5201 signs R1 with a zeroed receiver HIT precisely so it can be
        precomputed; we follow that: the signature covers the packet with
        receiver HIT = 0, and initiators verify accordingly.
        """
        r1 = hp.HipPacket(
            packet_type=hp.R1, sender_hit=self.hit, receiver_hit=IPAddress(6, 0),
        )
        r1.add(hp.PUZZLE, hp.build_puzzle(self._puzzle.k, 6, 0, self._puzzle.i))
        r1.add(
            hp.DIFFIE_HELLMAN,
            hp.build_dh(self.config.dh_group, self._responder_dh.public_bytes()),
        )
        r1.add(hp.HIP_TRANSFORM, hp.build_transform([hp.SUITE_AES_CBC_HMAC_SHA1]))
        r1.add(hp.HOST_ID, hp.build_host_id(self.identity.public_key_bytes))
        signature = self.identity.sign(r1.bytes_for_param(hp.HIP_SIGNATURE), self.rng)
        r1.add(hp.HIP_SIGNATURE, signature)
        # Charged once, off the hot path (R1 pool generation).
        self.meter.charge(
            "asym.sign.r1",
            asym_cost_for_host_id(self.identity.public_key, "sign", self.node.cost_model),
        )
        return r1

    # ---------------------------------------------------------------- control plane --
    def _new_packet(self, ptype: int, peer_hit: IPAddress) -> hp.HipPacket:
        return hp.HipPacket(packet_type=ptype, sender_hit=self.hit, receiver_hit=peer_hit)

    def _send_control(self, packet: hp.HipPacket, locator: IPAddress | None) -> None:
        if locator is None:
            return
        raw = packet.serialize()
        self.node.send_ip_fast(
            locator, "hip", (HIPHeader(packet.type_name),), raw[40:], meta={"hip_raw": raw}
        )

    def _on_hip_packet(self, node: "Node", packet: Packet, iface) -> None:
        self._ctl.try_put(packet)

    def _ctl_worker(self) -> Generator:
        while True:
            packet = yield self._ctl.get()
            ip = packet.headers[0]
            raw = packet.meta.get("hip_raw")
            if raw is None:
                continue
            try:
                hip_pkt = hp.HipPacket.parse(raw)
                handler = {
                    hp.I1: self._handle_i1,
                    hp.R1: self._handle_r1,
                    hp.I2: self._handle_i2,
                    hp.R2: self._handle_r2,
                    hp.UPDATE: self._handle_update,
                    hp.CLOSE: self._handle_close,
                    hp.CLOSE_ACK: self._handle_close_ack,
                }.get(hip_pkt.packet_type)
                if handler is None:
                    continue
                yield from handler(hip_pkt, ip)
            except hp.HipParseError:
                # Malformed header, TLV block or typed parameter: any peer
                # can send one, so it is dropped, never a daemon crash.
                self._policy_drop()

    def _policy_drop(self) -> None:
        self.drops_policy += 1
        _POLICY_DROPS.inc()

    def _charge(self, kind: str, cost: float) -> Generator:
        self.meter.charge(kind, cost)
        yield from self.node.cpu_work(cost)

    @staticmethod
    def _hmac_ok(pkt: hp.HipPacket, key: HmacKey) -> bool:
        """Whether ``pkt`` carries the HMAC parameter ``key`` computes over it."""
        mac = pkt.get(hp.HMAC_PARAM)
        return mac is not None and ct_equal(key.digest(pkt.bytes_for_param(hp.HMAC_PARAM)), mac)

    def _signed(
        self, kind: str, key: HostKey, pkt: hp.HipPacket, signed: hp.HipPacket | None = None
    ) -> Generator:
        """Charge one signature check of ``key`` under ``kind``, then verify
        ``pkt``'s HIP_SIGNATURE over ``signed`` (``pkt`` itself unless the
        signer covered another view of it, as R1's zeroed receiver HIT)."""
        yield from self._charge(kind, asym_cost_for_host_id(key, "verify", self.node.cost_model))
        sig = pkt.get(hp.HIP_SIGNATURE)
        view = pkt if signed is None else signed
        return sig is not None and verify_with_host_id(
            key, view.bytes_for_param(hp.HIP_SIGNATURE), sig
        )

    def _install_sas(
        self, assoc: Association, keymat: Secret, local_spi: int, peer_spi: int
    ) -> None:
        """Key ``assoc``'s SA pair from 72 bytes of ESP ``keymat`` (I2 and R2
        alike): the superseded inbound SPI is retired, the new one indexed."""
        if assoc.sa_in is not None:
            self._sa_in_by_spi.pop(assoc.sa_in.spi, None)
        assoc.sa_out, assoc.sa_in = derive_sa_pair(
            keymat, spi_out=peer_spi, spi_in=local_spi,
            local_hit=self.hit, peer_hit=assoc.peer_hit,
            is_initiator=assoc.role == "initiator",
            mode=self.config.esp_mode, encrypt=self.config.esp_encrypt,
            real=self.config.real_crypto,
        )
        self._sa_in_by_spi[local_spi] = assoc

    # -- responder side ------------------------------------------------------------
    def _yields_to(self, peer_hit: IPAddress) -> bool:
        """Crossing base exchanges (RFC 5201 §6.7 / §6.9, §4.4.2 table): with
        our own I1 or I2 to this peer in flight, the larger HIT answers as
        responder and the smaller drops the peer's I1/I2 and stays initiator.
        True when we are the smaller."""
        assoc = self.assocs.get(peer_hit)
        return (
            assoc is not None
            and assoc.state in (HipState.I1_SENT, HipState.I2_SENT)
            and self.hit < peer_hit
        )

    def _handle_i1(self, i1: hp.HipPacket, ip: IPHeader) -> Generator:
        if i1.receiver_hit != self.hit or self._yields_to(i1.sender_hit):
            return
        if self.firewall is not None and not self.firewall.allow_inbound(i1.sender_hit):
            self._policy_drop()
            return
        # Stateless: send the precomputed R1 with the initiator's HIT stamped
        # into the (unsigned) receiver slot.  Cheap by design.
        yield from self._charge("ctl.i1", 2e-6)
        r1 = hp.HipPacket(
            packet_type=hp.R1, sender_hit=self.hit, receiver_hit=i1.sender_hit,
            params=list(self._r1_template.params),
        )
        # Always to the I1's IP source: nothing in an unauthenticated I1 may
        # name another address for the (much larger) signed R1.
        self._send_control(r1, ip.src)

    def _handle_i2(self, i2: hp.HipPacket, ip: IPHeader) -> Generator:
        if i2.receiver_hit != self.hit or self._yields_to(i2.sender_hit):
            return
        if self.firewall is not None and not self.firewall.allow_inbound(i2.sender_hit):
            self._policy_drop()
            return
        cm = self.node.cost_model
        solution_data = i2.get(hp.SOLUTION)
        dh_data = i2.get(hp.DIFFIE_HELLMAN)
        host_id_data = i2.get(hp.HOST_ID)
        esp_data = i2.get(hp.ESP_INFO)
        hmac_data = i2.get(hp.HMAC_PARAM)
        sig_data = i2.get(hp.HIP_SIGNATURE)
        if None in (solution_data, dh_data, host_id_data, esp_data, hmac_data, sig_data):
            return
        # 1. Puzzle check: one hash, before any expensive work (DoS posture).
        k, _opaque, puzzle_i, puzzle_j = hp.parse_solution(solution_data)
        yield from self._charge("puzzle.verify", cm.puzzle_verify_cost())
        if puzzle_i != self._puzzle.i or k != self._puzzle.k:
            return
        if not verify_solution(self._puzzle, i2.sender_hit.packed(), self.hit.packed(), puzzle_j):
            return
        # 2. Identity: HIT must match the carried host id.
        peer_hi, peer_key = _parse_peer_host_id(host_id_data)
        if hit_from_public_key(peer_hi) != i2.sender_hit:
            return
        # 3. DH + KEYMAT.
        group_id, peer_pub = hp.parse_dh(dh_data)
        if group_id != self.config.dh_group:
            return
        yield from self._charge("asym.dh.i2", cm.dh_modexp(MODP_GROUPS[group_id].bits))
        try:
            secret = self._responder_dh.shared_secret(int.from_bytes(peer_pub, "big"))
        except ValueError:
            return
        keymat = hip_keymat(
            secret + puzzle_i + puzzle_j,
            i2.sender_hit.packed(), self.hit.packed(), KEYMAT_BYTES,
        )
        hmac_in, hmac_out = keymat[:20], keymat[20:40]
        # 4. HMAC then signature (cheap check first, per RFC processing order).
        yield from self._charge("sym.hmac.i2", cm.hmac_cost(200))
        if not self._hmac_ok(i2, HmacKey(hmac_in, "sha1")):
            return
        if not (yield from self._signed("asym.verify.i2", peer_key, i2)):
            return
        # 5. Create association + SAs.
        _ki, _old_spi, peer_spi = hp.parse_esp_info(esp_data)
        assoc = self.assocs.get(i2.sender_hit)
        if assoc is not None and assoc.state in (HipState.I1_SENT, HipState.I2_SENT):
            # Our own exchange crossed the peer's and ours is the larger HIT
            # (_yields_to above): adopt the pending association as responder,
            # so its waiters and queued packets complete with this exchange.
            assoc.pending_update = None
        elif assoc is None or not assoc.is_established:
            assoc = Association(
                peer_hit=self.lsi.held(i2.sender_hit), role="responder",
                created_at=self.sim.now, established_evt=self.sim.event(),
            )
            self.assocs[assoc.peer_hit] = assoc
        assoc.role = "responder"
        assoc.peer_locator = ip.src
        assoc.peer_key = peer_key
        assoc.keymat = keymat
        assoc.set_hmac_keys(out_key=hmac_out, in_key=hmac_in)
        # An I2 on an established association supersedes its SA pair.
        local_spi = self._alloc_spi()
        self._install_sas(assoc, keymat[_HIP_KEY_BYTES:], local_spi, peer_spi)
        # 6. R2: ESP_INFO + HMAC + signature.
        r2 = self._new_packet(hp.R2, assoc.peer_hit)
        r2.add(hp.ESP_INFO, hp.build_esp_info(0, local_spi))
        yield from self._charge("sym.hmac.r2", cm.hmac_cost(120))
        r2.add(hp.HMAC_PARAM, assoc.hmac_out.digest(r2.bytes_for_param(hp.HMAC_PARAM)))
        yield from self._charge(
            "asym.sign.r2",
            asym_cost_for_host_id(self.identity.public_key, "sign", cm),
        )
        r2.add(hp.HIP_SIGNATURE, self.identity.sign(r2.bytes_for_param(hp.HIP_SIGNATURE), self.rng))
        self._send_control(r2, ip.src)
        if assoc.is_established:
            # The initiator never saw our R2 and sent I2 again (RFC 5201
            # §4.4.2): R2 is re-sent above; no new exchange completed.
            self._transition(assoc, HipState.ESTABLISHED)
        else:
            self._established(assoc)

    # -- initiator side --------------------------------------------------------------
    def _handle_r1(self, r1: hp.HipPacket, ip: IPHeader) -> Generator:
        assoc = self.assocs.get(r1.sender_hit)
        if assoc is None or assoc.state != HipState.I1_SENT:
            return
        cm = self.node.cost_model
        puzzle_data = r1.get(hp.PUZZLE)
        dh_data = r1.get(hp.DIFFIE_HELLMAN)
        host_id_data = r1.get(hp.HOST_ID)
        if None in (puzzle_data, dh_data, host_id_data, r1.get(hp.HIP_SIGNATURE)):
            return
        peer_hi, peer_key = _parse_peer_host_id(host_id_data)
        if hit_from_public_key(peer_hi) != r1.sender_hit:
            return
        # Verify the R1 signature against the precomputation rules
        # (receiver HIT zeroed).
        unsigned = hp.HipPacket(
            packet_type=hp.R1, sender_hit=r1.sender_hit, receiver_hit=IPAddress(6, 0),
            params=list(r1.params),
        )
        if not (yield from self._signed("asym.verify.r1", peer_key, r1, unsigned)):
            return
        assoc.peer_key = peer_key
        # Solve the puzzle (really, counting attempts for honest cost).
        k, lifetime_exp, opaque, puzzle_i = hp.parse_puzzle(puzzle_data)
        puzzle = Puzzle(i=puzzle_i, k=k, lifetime=float(2 ** (lifetime_exp - 1)))
        j, attempts = solve_puzzle(puzzle, self.hit.packed(), r1.sender_hit.packed(), self.rng)
        yield from self._charge("puzzle.solve", cm.puzzle_solve_cost(k, attempts))
        # DH: generate our key pair and compute the shared secret (2 modexps).
        group_id, peer_pub = hp.parse_dh(dh_data)
        group = MODP_GROUPS.get(group_id)
        if group is None:
            return
        yield from self._charge("asym.dh.keygen", cm.dh_modexp(group.bits))
        assoc.dh = DHKeyPair.generate(group, self.rng)
        yield from self._charge("asym.dh.shared", cm.dh_modexp(group.bits))
        try:
            secret = assoc.dh.shared_secret(int.from_bytes(peer_pub, "big"))
        except ValueError:
            return
        keymat = hip_keymat(
            secret + puzzle_i + j, self.hit.packed(), r1.sender_hit.packed(), KEYMAT_BYTES,
        )
        assoc.keymat = keymat
        assoc.set_hmac_keys(out_key=keymat[:20], in_key=keymat[20:40])
        local_spi = self._alloc_spi()
        assoc.pending_update = {"local_spi": local_spi}
        # Build I2.
        i2 = self._new_packet(hp.I2, assoc.peer_hit)
        i2.add(hp.SOLUTION, hp.build_solution(k, opaque, puzzle_i, j))
        i2.add(hp.DIFFIE_HELLMAN, hp.build_dh(group_id, assoc.dh.public_bytes()))
        i2.add(hp.ESP_INFO, hp.build_esp_info(0, local_spi))
        i2.add(hp.HOST_ID, hp.build_host_id(self.identity.public_key_bytes))
        yield from self._charge("sym.hmac.i2", cm.hmac_cost(400))
        i2.add(
            hp.HMAC_PARAM,
            assoc.hmac_out.digest(i2.bytes_for_param(hp.HMAC_PARAM)),
        )
        yield from self._charge(
            "asym.sign.i2",
            asym_cost_for_host_id(self.identity.public_key, "sign", cm),
        )
        i2.add(hp.HIP_SIGNATURE, self.identity.sign(i2.bytes_for_param(hp.HIP_SIGNATURE), self.rng))
        self._transition(assoc, HipState.I2_SENT)
        if ip.src != assoc.peer_locator:  # an equal one keeps the I1's object, which caches hold
            assoc.peer_locator = ip.src
        self._send_control(i2, assoc.peer_locator)
        self.sim.process(self._retransmitter(assoc, i2, I2_RETRIES), name="hip-i2-rtx")

    def _handle_r2(self, r2: hp.HipPacket, ip: IPHeader) -> Generator:
        assoc = self.assocs.get(r2.sender_hit)
        if assoc is None or assoc.state != HipState.I2_SENT:
            return
        esp_data = r2.get(hp.ESP_INFO)
        if None in (esp_data, r2.get(hp.HMAC_PARAM), r2.get(hp.HIP_SIGNATURE)):
            return
        yield from self._charge("sym.hmac.r2", self.node.cost_model.hmac_cost(120))
        if not self._hmac_ok(r2, assoc.hmac_in):
            return
        if not (yield from self._signed("asym.verify.r2", assoc.peer_key, r2)):
            return
        _ki, _old, peer_spi = hp.parse_esp_info(esp_data)
        local_spi = assoc.pending_update["local_spi"]
        assoc.pending_update = None
        self._install_sas(assoc, assoc.keymat[_HIP_KEY_BYTES:], local_spi, peer_spi)
        self._established(assoc)

    # ------------------------------------------------------------------ mobility --
    def move_to(self, new_locator: IPAddress) -> None:
        """Announce a new preferred locator to every established peer.

        Implements the RFC 5206 readdress: UPDATE(LOCATOR, SEQ) →
        UPDATE(SEQ, ACK, ECHO_REQUEST) → UPDATE(ACK, ECHO_RESPONSE); data
        continues on the new path once the peer's nonce is echoed.
        """
        for assoc in self.assocs.values():
            if not assoc.is_established:
                continue
            assoc.update_id += 1
            pkt = self._new_packet(hp.UPDATE, assoc.peer_hit)
            pkt.add(hp.LOCATOR, hp.build_locator([(new_locator, 120.0)]))
            pkt.add(hp.SEQ, hp.build_seq(assoc.update_id))
            self._finalize_and_send(pkt, assoc, sign=True)

    def _finalize_and_send(self, pkt: hp.HipPacket, assoc: Association, sign: bool) -> None:
        """Attach HMAC (+ signature) and transmit on the association's locator."""
        pkt.add(
            hp.HMAC_PARAM,
            assoc.hmac_out.digest(pkt.bytes_for_param(hp.HMAC_PARAM)),
        )
        self.meter.charge("sym.hmac.ctl", self.node.cost_model.hmac_cost(150))
        if sign:
            self.meter.charge(
                "asym.sign.ctl",
                asym_cost_for_host_id(self.identity.public_key, "sign", self.node.cost_model),
            )
            pkt.add(
                hp.HIP_SIGNATURE,
                self.identity.sign(pkt.bytes_for_param(hp.HIP_SIGNATURE), self.rng),
            )
        self._send_control(pkt, assoc.peer_locator)

    def _handle_update(self, pkt: hp.HipPacket, ip: IPHeader) -> Generator:
        assoc = self.assocs.get(pkt.sender_hit)
        if assoc is None or not assoc.is_established:
            return
        yield from self._charge("sym.hmac.update", self.node.cost_model.hmac_cost(150))
        if not self._hmac_ok(pkt, assoc.hmac_in):
            return

        locator_data = pkt.get(hp.LOCATOR)
        seq_data = pkt.get(hp.SEQ)
        echo_req = pkt.get(hp.ECHO_REQUEST_SIGNED)
        echo_resp = pkt.get(hp.ECHO_RESPONSE_SIGNED)

        if locator_data is not None and seq_data is not None:
            # U1: peer moved.  Verify the new address with a nonce echo (U2).
            if not (yield from self._signed("asym.verify.update", assoc.peer_key, pkt)):
                return
            locators = hp.parse_locator(locator_data)
            if not locators:
                return
            candidate = locators[0][0]
            nonce = self.rng.getrandbits(64).to_bytes(8, "big")
            assoc.pending_update = {"verify_addr": candidate, "nonce": nonce}
            assoc.update_id += 1
            reply = self._new_packet(hp.UPDATE, assoc.peer_hit)
            reply.add(hp.SEQ, hp.build_seq(assoc.update_id))
            reply.add(hp.ACK, hp.build_ack([hp.parse_seq(seq_data)]))
            reply.add(hp.ECHO_REQUEST_SIGNED, nonce)
            # Address verification: send to the *candidate* address.
            old_locator = assoc.peer_locator
            assoc.peer_locator = candidate
            self._finalize_and_send(reply, assoc, sign=True)
            assoc.peer_locator = old_locator  # committed only after the echo
            return

        if echo_req is not None and seq_data is not None:
            # U2: echo the nonce back (we are the mobile node).
            assoc.update_id += 1
            reply = self._new_packet(hp.UPDATE, assoc.peer_hit)
            reply.add(hp.ACK, hp.build_ack([hp.parse_seq(seq_data)]))
            reply.add(hp.ECHO_RESPONSE_SIGNED, echo_req)
            self._finalize_and_send(reply, assoc, sign=False)
            return

        if echo_resp is not None and assoc.pending_update:
            # U3: nonce verified — commit the new peer locator.
            pending = assoc.pending_update
            if pending.get("nonce") == echo_resp:
                assoc.peer_locator = pending["verify_addr"]
                self.hosts[assoc.peer_hit] = [pending["verify_addr"]]
                assoc.pending_update = None
            return

    # ------------------------------------------------------------------- teardown --
    def _handle_close(self, pkt: hp.HipPacket, ip: IPHeader) -> Generator:
        assoc = self.assocs.get(pkt.sender_hit)
        if assoc is None or assoc.state not in (HipState.ESTABLISHED, HipState.CLOSING):
            return
        yield from self._charge("sym.hmac.close", self.node.cost_model.hmac_cost(100))
        if not self._hmac_ok(pkt, assoc.hmac_in):
            return
        echo = pkt.get(hp.ECHO_REQUEST_SIGNED) or b""
        ack = self._new_packet(hp.CLOSE_ACK, assoc.peer_hit)
        ack.add(hp.ECHO_RESPONSE_SIGNED, echo)
        self._finalize_and_send(ack, assoc, sign=False)
        self._drop_assoc(assoc)

    def _handle_close_ack(self, pkt: hp.HipPacket, ip: IPHeader) -> Generator:
        assoc = self.assocs.get(pkt.sender_hit)
        if assoc is None or assoc.state != HipState.CLOSING:
            return
        yield from self._charge("sym.hmac.close", self.node.cost_model.hmac_cost(100))
        # RFC 5201 §6.15: the CLOSE_ACK HMAC must verify, and the echoed
        # nonce must match the one we sent in CLOSE — otherwise any on-path
        # host that saw the CLOSE could forge the teardown completion.
        if not self._hmac_ok(pkt, assoc.hmac_in):
            return
        echo = pkt.get(hp.ECHO_RESPONSE_SIGNED)
        if echo is None or not ct_equal(echo, assoc.close_nonce):
            return
        self._drop_assoc(assoc)

    def _drop_assoc(self, assoc: Association) -> None:
        self._transition(assoc, HipState.CLOSED)
        if assoc.sa_in is not None:
            self._sa_in_by_spi.pop(assoc.sa_in.spi, None)
        assoc.sa_in = assoc.sa_out = None

    # --------------------------------------------------------------------- helpers --
    def _alloc_spi(self) -> int:
        spi = self._spi_counter
        self._spi_counter += 1
        while self._spi_counter in self._sa_in_by_spi:
            self._spi_counter += 1
        return spi
