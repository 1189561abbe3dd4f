"""Point-to-point links with bandwidth, propagation delay and drop-tail queues.

Each direction of a link has its own serializer: packets wait in a bounded
FIFO, are serialized at the link rate (``size_bytes * 8 / bandwidth``) and
arrive at the far end after the propagation delay.  This is the standard
store-and-forward model; with TCP on top it yields the familiar
``min(C, cwnd/RTT)`` throughput behaviour that the iperf experiments rely on.

The serializer is arithmetic, not a timer: a FIFO link's departure times
are known the moment a packet is accepted, so :class:`Serializer` computes
them in closed form and hands each accepted packet to a sink — one delivery
timer for an in-process :class:`LinkEndpoint`, one envelope for a
cross-shard :class:`~repro.sim.shard.ShardPortal`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.metrics import METRICS, RECORDER
from repro.sim.engine import TimerHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Interface
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator

_TX_PACKETS = METRICS.counter("link.tx_packets")
_TX_BYTES = METRICS.counter("link.tx_bytes")
_LOST = METRICS.counter("link.lost_packets")
_QUEUE_DROPS = METRICS.counter("link.queue_drops")
_ECN_MARKS = METRICS.counter("link.ecn_marks")

#: Opt-in wire sanitizer taps.  Each callable observes every packet as it
#: enters a link queue (before any drop decision) and raises on a protocol
#: violation.  Empty in production runs — the runtime wire sanitizer in
#: :mod:`repro.analysis.wire` registers itself here from a pytest fixture.
WIRE_TAPS: list[Callable[["Packet"], None]] = []


class Serializer:
    """One transmit direction in closed form: drop-tail FIFO + serializer.

    A FIFO serializer's schedule is known at acceptance: a packet starts at
    ``max(now, free_at)`` and departs ``size * 8 / bandwidth`` later, and
    ``free_at`` becomes its departure.  The packets still *waiting* — the
    queue that drop-tail and ECN marking look at — are exactly the accepted
    ones whose start lies in the future, kept as a deque of start times
    pruned lazily from the front.  No timer runs while a burst drains.

    Accounting is booked at acceptance, straight into the process-wide
    METRICS counters like every other layer's, so they equal the
    serializers' own totals whenever a run returns (a shard's reply carries
    them home, see :mod:`repro.sim.shard`).  Subclasses are the *sink*:
    :meth:`_depart` receives every accepted packet with its measured size
    and departure time.
    """

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bps: float,
        queue_packets: int,
        ecn_threshold: int | None = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if queue_packets <= 0:
            raise ValueError("queue_packets must be positive")
        if ecn_threshold is not None and ecn_threshold <= 0:
            raise ValueError("ecn_threshold must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.queue_packets = queue_packets
        #: RED-style deterministic marking: a packet enqueued while the
        #: egress queue already holds >= ``ecn_threshold`` packets gets its
        #: CE (congestion experienced) bit set instead of waiting for a
        #: drop-tail loss.  Carried as ``packet.meta["ce"]`` (a simulation
        #: annotation, like a real router rewriting the ECN codepoint).
        self.ecn_threshold = ecn_threshold
        self.tx_packets = 0
        self.tx_bytes = 0
        self.queue_drops = 0
        self.ecn_marks = 0
        self._free_at = 0.0
        self._starts: deque[float] = deque()

    def send(self, packet: "Packet", size: int = 0) -> bool:
        """Accept ``packet`` for transmission; False if the queue dropped it.

        ``size`` is the packet's wire size when the caller already measured
        it (a forwarding hop reuses the delivering link's figure); 0 means
        measure here.
        """
        if WIRE_TAPS:
            for tap in WIRE_TAPS:
                tap(packet)
        if not size:
            size = len(packet.payload)
            for header in packet.headers:
                size += header.header_len
        now = self.sim._now
        start = self._free_at
        if start > now:
            starts = self._starts
            while starts and starts[0] <= now:
                starts.popleft()
            waiting = len(starts)
            if waiting >= self.queue_packets:
                self.queue_drops += 1
                _QUEUE_DROPS.value += 1
                if RECORDER.enabled:
                    RECORDER.record(now, "link", "queue_drop", bytes=size)
                return False
            if self.ecn_threshold is not None and waiting >= self.ecn_threshold:
                packet.meta["ce"] = True
                self.ecn_marks += 1
                _ECN_MARKS.value += 1
                if RECORDER.enabled:
                    RECORDER.record(now, "link", "ecn_mark")
            starts.append(start)
        else:
            start = now
        self._free_at = depart = start + size * 8.0 / self.bandwidth_bps
        self.tx_packets += 1
        self.tx_bytes += size
        _TX_PACKETS.value += 1
        _TX_BYTES.value += size
        if RECORDER.enabled:
            RECORDER.record(
                now, "link", "tx", bytes=size, start=start, depart=depart,
            )
        self._depart(packet, size, depart)
        return True

    def _depart(self, packet: "Packet", size: int, depart: float) -> None:
        """Sink: ``packet`` leaves the serializer at ``depart``."""
        raise NotImplementedError

    def account_fluid(self, n_bytes: int, n_segments: int) -> None:
        """Charge a fluid fast-forwarded transfer to this serializer's tallies.

        TCP fluid mode advances bulk flows without emitting packets; the
        sender's first-hop serializer still books the payload bytes and
        segment count so link utilization totals remain comparable with
        per-packet runs (queueing and per-hop timing are intentionally not
        modeled — fluid entry requires an uncongested steady state).
        """
        self.tx_packets += n_segments
        self.tx_bytes += n_bytes
        _TX_PACKETS.value += n_segments
        _TX_BYTES.value += n_bytes


class LinkEndpoint(Serializer):
    """One direction of an in-process link: serializer + propagation.

    The sink is one delivery timer per packet at ``depart + delay_s``,
    armed at acceptance.  Deliveries are FIFO (one common delay), so the
    ring of delivery handles is rearmed oldest-first instead of allocating a
    handle per packet.  The loss decision is drawn at delivery, not at
    acceptance: both directions of a :class:`Link` share one ``loss_rng``,
    and only delivery order (departure order plus one common delay) draws
    it in the order packets leave the two serializers.
    """

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bps: float,
        delay_s: float,
        queue_packets: int,
        loss_rate: float = 0.0,
        loss_rng=None,
        ecn_threshold: int | None = None,
        loss_burst: int = 1,
    ) -> None:
        if delay_s < 0:
            raise ValueError("negative propagation delay")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if loss_rate > 0.0 and loss_rng is None:
            raise ValueError("loss_rate needs a loss_rng stream")
        if loss_burst < 1:
            raise ValueError("loss_burst must be >= 1")
        super().__init__(sim, bandwidth_bps, queue_packets, ecn_threshold)
        self.delay_s = delay_s
        #: ``loss_rate`` is the *average* packet-loss rate.  With
        #: ``loss_burst > 1`` losses arrive in runs of that length (as
        #: drop-tail queues actually lose packets); the trigger probability
        #: is scaled by ``1/loss_burst`` so the average rate stays put.
        self.loss_rate = loss_rate
        self.loss_rng = loss_rng
        self.loss_burst = loss_burst
        self._loss_run = 0
        self.lost_packets = 0
        self.peer: "Interface | None" = None
        self._deliver_ring: deque = deque()
        # Created once and reused for every packet.
        self._deliver_cb = self._deliver

    def _depart(self, packet: "Packet", size: int, depart: float) -> None:
        ring = self._deliver_ring
        if ring and ring[0]._entry_seq < 0:  # oldest delivery has fired
            handle = ring.popleft()
            handle._arg = (packet, size)
        else:
            handle = TimerHandle(self.sim, self._deliver_cb, (packet, size))
        ring.append(handle)
        handle.rearm_at(depart + self.delay_s)

    def _lose(self) -> bool:
        """Loss decision for one transmitted packet (only called when lossy)."""
        if self._loss_run:
            self._loss_run -= 1
            return True
        if self.loss_rng.random() < self.loss_rate / self.loss_burst:
            self._loss_run = self.loss_burst - 1
            return True
        return False

    def _deliver(self, item: "tuple[Packet, int]") -> None:
        packet, size = item
        if self.loss_rate and self._lose():
            self.lost_packets += 1
            _LOST.value += 1
            if RECORDER.enabled:
                RECORDER.record(self.sim.now, "link", "loss", bytes=size)
            return
        peer = self.peer
        if peer is not None:
            # Inlined Interface.receive: the size measured at acceptance
            # rides along instead of being recomputed.
            peer.rx_packets += 1
            peer.rx_bytes += size
            peer.node._on_receive(packet, peer, size)


class Link:
    """Full-duplex link between two interfaces.

    Attach with :meth:`connect`; per-direction parameters are symmetric by
    default but each endpoint can be tuned afterwards (e.g. asymmetric
    bandwidth).
    """

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bps: float = 1e9,
        delay_s: float = 100e-6,
        queue_packets: int = 256,
        loss_rate: float = 0.0,
        loss_rng=None,
        name: str = "",
        ecn_threshold: int | None = None,
        loss_burst: int = 1,
    ) -> None:
        self.sim = sim
        self.name = name
        self.a_to_b = LinkEndpoint(sim, bandwidth_bps, delay_s, queue_packets,
                                   loss_rate, loss_rng, ecn_threshold, loss_burst)
        self.b_to_a = LinkEndpoint(sim, bandwidth_bps, delay_s, queue_packets,
                                   loss_rate, loss_rng, ecn_threshold, loss_burst)

    def connect(self, iface_a: "Interface", iface_b: "Interface") -> None:
        """Wire the two interfaces to each other through this link."""
        self.a_to_b.peer = iface_b
        self.b_to_a.peer = iface_a
        iface_a.attach(self.a_to_b)
        iface_b.attach(self.b_to_a)
