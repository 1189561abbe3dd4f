"""Point-to-point links with bandwidth, propagation delay and drop-tail queues.

Each direction of a link has its own serializer: packets wait in a bounded
FIFO, are serialized at the link rate (``size_bytes * 8 / bandwidth``) and
arrive at the far end after the propagation delay.  This is the standard
store-and-forward model; with TCP on top it yields the familiar
``min(C, cwnd/RTT)`` throughput behaviour that the iperf experiments rely on.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.metrics import METRICS, RECORDER
from repro.sim.engine import _KIND_CALL
from repro.sim.resources import Queue

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


class LinkLedger:
    """Per-simulator link accounting, owned by the Simulator that the links
    belong to (``sim.services["link.ledger"]``).

    A plain simulator's ledger *publishes*: every addition writes through to
    the process-wide ``METRICS`` counters immediately, preserving the
    established observability contract.  A shard's simulator instead gets a
    non-publishing ledger (see :class:`repro.sim.shard.Shard`): the shard
    accumulates locally and the coordinator collects :meth:`take_delta` at
    every sync window, folding it into the global counters in the parent
    process via :func:`publish_link_delta`.  That is what makes the totals
    identical between inline and fork-per-shard workers — a forked child's
    writes to process globals would otherwise die with the child.
    """

    FIELDS = ("tx_packets", "tx_bytes", "lost_packets", "queue_drops", "ecn_marks")

    __slots__ = FIELDS + ("publish", "_taken")

    def __init__(self, publish: bool = True) -> None:
        self.publish = publish
        self.tx_packets = 0
        self.tx_bytes = 0
        self.lost_packets = 0
        self.queue_drops = 0
        self.ecn_marks = 0
        self._taken = (0, 0, 0, 0, 0)

    def add_tx(self, packets: int, n_bytes: int) -> None:
        self.tx_packets += packets
        self.tx_bytes += n_bytes
        if self.publish:
            _TX_PACKETS.value += packets
            _TX_BYTES.value += n_bytes

    def add_lost(self) -> None:
        self.lost_packets += 1
        if self.publish:
            _LOST.value += 1

    def add_queue_drop(self) -> None:
        self.queue_drops += 1
        if self.publish:
            _QUEUE_DROPS.value += 1

    def add_ecn_mark(self) -> None:
        self.ecn_marks += 1
        if self.publish:
            _ECN_MARKS.value += 1

    def take_delta(self) -> tuple[int, int, int, int, int]:
        """Counts accumulated since the last take (picklable, cheap)."""
        now = (
            self.tx_packets,
            self.tx_bytes,
            self.lost_packets,
            self.queue_drops,
            self.ecn_marks,
        )
        taken = self._taken
        self._taken = now
        return tuple(a - b for a, b in zip(now, taken))


def ledger_of(sim: "Simulator") -> LinkLedger:
    """The simulator's link ledger (get-or-create; publishing by default)."""
    ledger = sim.services.get("link.ledger")
    if ledger is None:
        ledger = sim.services["link.ledger"] = LinkLedger()
    return ledger


def publish_link_delta(delta: tuple[int, int, int, int, int]) -> None:
    """Fold a shard ledger delta into the process-global METRICS counters."""
    _TX_PACKETS.value += delta[0]
    _TX_BYTES.value += delta[1]
    _LOST.value += delta[2]
    _QUEUE_DROPS.value += delta[3]
    _ECN_MARKS.value += delta[4]


#: Flush batched per-endpoint tallies into the global counters at most this
#: many packets apart while a burst is in flight (idle links always flush).
_FLUSH_EVERY = 64


class LinkEndpoint:
    """One direction of a link: egress queue + serializer.

    The serializer is a callback-lane state machine: transmit-complete and
    propagation-delivery are raw ``call_later`` timers (FIFO per direction
    guaranteed by the heap's sequence tie-break), and the global metrics
    counters are fed from batched per-endpoint tallies.
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
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("negative propagation delay")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if loss_rate > 0.0 and loss_rng is None:
            raise ValueError("loss_rate needs a loss_rng stream")
        if ecn_threshold is not None and ecn_threshold <= 0:
            raise ValueError("ecn_threshold must be positive")
        if loss_burst < 1:
            raise ValueError("loss_burst must be >= 1")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        #: ``loss_rate`` is the *average* packet-loss rate.  With
        #: ``loss_burst > 1`` losses arrive in runs of that length (as
        #: drop-tail queues actually lose packets); the trigger probability
        #: is scaled by ``1/loss_burst`` so the average rate stays put.
        self.loss_rate = loss_rate
        self.loss_rng = loss_rng
        self.loss_burst = loss_burst
        self._loss_run = 0
        #: RED-style deterministic marking: a packet enqueued while the
        #: egress queue already holds >= ``ecn_threshold`` packets gets its
        #: CE (congestion experienced) bit set instead of waiting for a
        #: drop-tail loss.  Carried as ``packet.meta["ce"]`` (a simulation
        #: annotation, like a real router rewriting the ECN codepoint).
        self.ecn_threshold = ecn_threshold
        self.ecn_marks = 0
        self.queue = Queue(sim, capacity=queue_packets)
        self.peer: "Interface | None" = None
        # All global-counter traffic goes through the simulator's ledger so
        # shard simulators can keep accounting local (see LinkLedger).
        self._ledger = ledger_of(sim)
        self.tx_packets = 0
        self.tx_bytes = 0
        self.lost_packets = 0
        self._tx_busy = False
        self._tx_current: "Packet | None" = None
        self._tx_size = 0
        self._tx_timer = None  # serializer TimerHandle, rearmed per packet
        # The serializer owns the egress queue exclusively (no process ever
        # parks a getter on it), so enqueue/dequeue touch the backing deque
        # directly.
        self._q_items = self.queue._items
        self._q_cap = self.queue.capacity
        # Ring of delivery TimerHandles owned exclusively by this endpoint.
        # Deliveries are FIFO (fixed delay), so once the oldest handle has
        # fired it can be rearmed for a new packet instead of allocating a
        # fresh handle.
        self._deliver_ring: deque = deque()
        self._unflushed_pkts = 0
        self._unflushed_bytes = 0
        # One bound method each, created once and reused for every packet —
        # the callback lane then allocates only heap tuples and TimerHandles.
        self._tx_done_cb = self._tx_done
        self._deliver_cb = self._deliver_packet

    def send(self, packet: "Packet") -> bool:
        """Enqueue for transmission; returns False if the queue dropped it."""
        if WIRE_TAPS:
            for tap in WIRE_TAPS:
                tap(packet)
        if self._tx_busy:
            items = self._q_items
            if self._q_cap is not None and len(items) >= self._q_cap:
                self.queue.dropped += 1
                ok = False
            else:
                if (
                    self.ecn_threshold is not None
                    and len(items) >= self.ecn_threshold
                ):
                    self._mark_ce(packet)
                items.append(packet)
                ok = True
        else:
            # Idle link: the packet goes straight to the serializer without
            # occupying queue capacity.
            self._tx_busy = True
            self._start_tx(packet)
            ok = True
        if not ok:
            self._ledger.add_queue_drop()
            if RECORDER.enabled:
                RECORDER.record(
                    self.sim.now, "link", "queue_drop", bytes=packet.size_bytes,
                )
        return ok

    def _lose(self) -> bool:
        """Loss decision for one transmitted packet (only called when lossy)."""
        if self._loss_run:
            self._loss_run -= 1
            return True
        if self.loss_rng.random() < self.loss_rate / self.loss_burst:
            self._loss_run = self.loss_burst - 1
            return True
        return False

    def _mark_ce(self, packet: "Packet") -> None:
        packet.meta["ce"] = True
        self.ecn_marks += 1
        self._ledger.add_ecn_mark()
        if RECORDER.enabled:
            RECORDER.record(self.sim.now, "link", "ecn_mark")

    # -- callback-lane serializer ---------------------------------------------
    def _start_tx(self, packet: "Packet") -> None:
        self._tx_current = packet
        # Inline ``size_bytes``: this is the only hot-path consumer and the
        # measured size is reused for counters and the delivery callback.
        size = len(packet.payload)
        for header in packet.headers:
            size += header.header_len
        self._tx_size = size
        timer = self._tx_timer
        if timer is None:
            # repro: ignore[LIF001] -- serializer timer is rearmed for the link's lifetime; firing after idle is a no-op and links live as long as their sim
            self._tx_timer = self.sim.call_later(
                size * 8.0 / self.bandwidth_bps, self._tx_done_cb
            )
        else:
            # The serializer handles one packet at a time, so its timer is
            # never pending here — rearm the same handle instead of
            # allocating a fresh one per packet.  ``TimerHandle.rearm``
            # inlined (serialize time is always >= 0, so no validation):
            sim = self.sim
            # repro: ignore[ISO002] -- benchmarked fast-path inlining of TimerHandle.rearm on this link's own simulator (PR 5), not cross-shard state
            sim._seq += 1
            seq = sim._seq
            timer._when = when = sim._now + size * 8.0 / self.bandwidth_bps
            timer._entry_seq = seq
            heappush(sim._heap, (when, seq, _KIND_CALL, timer))

    def _tx_done(self) -> None:
        size = self._tx_size
        packet = self._tx_current
        self.tx_packets += 1
        self.tx_bytes += size
        self._unflushed_pkts += 1
        self._unflushed_bytes += size
        if RECORDER.enabled:
            RECORDER.record(self.sim.now, "link", "tx", bytes=size)
        if self.loss_rate and self._lose():
            self.lost_packets += 1
            self._ledger.add_lost()
            if RECORDER.enabled:
                RECORDER.record(self.sim.now, "link", "loss", bytes=size)
        else:
            # Propagation: deliver after the delay; the serializer moves on.
            # The measured size rides along so the receiving interface does
            # not recompute the ``size_bytes`` property.
            ring = self._deliver_ring
            if ring and ring[0]._entry_seq < 0:
                handle = ring.popleft()
                handle._arg = (packet, size)
                # Inlined ``TimerHandle.rearm`` (delay_s validated >= 0 at
                # construction).
                sim = self.sim
                # repro: ignore[ISO002] -- benchmarked fast-path inlining of TimerHandle.rearm on this link's own simulator (PR 5), not cross-shard state
                sim._seq += 1
                seq = sim._seq
                handle._when = when = sim._now + self.delay_s
                handle._entry_seq = seq
                heappush(sim._heap, (when, seq, _KIND_CALL, handle))
            else:
                handle = self.sim.call_later(
                    self.delay_s, self._deliver_cb, (packet, size)
                )
            ring.append(handle)
        items = self._q_items
        if items:
            if self._unflushed_pkts >= _FLUSH_EVERY:
                self.flush_stats()
            self._start_tx(items.popleft())
        else:
            self._tx_busy = False
            self._tx_current = None
            self.flush_stats()

    def _deliver_packet(self, item: "tuple[Packet, int]") -> None:
        peer = self.peer
        if peer is not None:
            # Inlined Interface.receive: the serializer already measured the
            # packet, so the size rides along instead of being recomputed
            # from the ``size_bytes`` property.
            packet, size = item
            peer.rx_packets += 1
            peer.rx_bytes += size
            peer.node._on_receive(packet, peer)

    def flush_stats(self) -> None:
        """Fold batched per-endpoint tallies into the simulator's ledger."""
        if self._unflushed_pkts:
            self._ledger.add_tx(self._unflushed_pkts, self._unflushed_bytes)
            self._unflushed_pkts = 0
            self._unflushed_bytes = 0

    def account_fluid(self, n_bytes: int, n_segments: int) -> None:
        """Charge a fluid fast-forwarded transfer to this endpoint's tallies.

        TCP fluid mode advances bulk flows without emitting packets; the
        sender's first-hop endpoint still books the payload bytes and segment
        count so link utilization totals remain comparable with per-packet
        runs (queueing and per-hop timing are intentionally not modeled —
        fluid entry requires an uncongested steady state).
        """
        self.tx_packets += n_segments
        self.tx_bytes += n_bytes
        self._ledger.add_tx(n_segments, n_bytes)


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

    @property
    def total_bytes(self) -> int:
        return self.a_to_b.tx_bytes + self.b_to_a.tx_bytes
