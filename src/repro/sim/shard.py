"""Sharded simulation with conservative-lookahead synchronization.

Partitions a topology into :class:`Shard` workers — one event heap (and
optionally one OS process) per availability zone / tenant group — and runs
them in synchronized windows of simulated time.  The classic conservative
(Chandy–Misra style) argument applies: an inter-shard link's propagation
delay bounds how soon one shard can affect another, so as long as every
cross-shard link's delay is at least the window size, each shard can run a
full window without ever receiving a message "from the past".

Cross-shard links are modeled by :class:`ShardPortal` — the egress half of a
point-to-point link whose far interface lives in another shard.  The portal
*is* a :class:`~repro.net.link.Serializer`, the same closed-form queue and
serializer an in-process :class:`~repro.net.link.LinkEndpoint` runs, so a
topology split across shards produces bit-identical timestamps to the same
topology wired with in-process links.  Transmitted packets become
:class:`Envelope` records; at each window barrier the coordinator routes
them to their destination shards, which inject them as
``call_at(arrival, iface.receive, packet)`` timers in a canonical global
order ``(arrival, src_shard, seq)``.

The coordinator is built for real hardware parallelism:

* **Scatter-gather windows** — with ``parallel=True`` the ``window`` command
  is broadcast to every forked worker *first*, then replies are collected as
  they arrive (``multiprocessing.connection.wait`` over the pipes), so
  shards genuinely overlap on multiple cores instead of advancing one at a
  time behind a blocking send+recv.
* **Adaptive lookahead on earliest-output-time promises** — each reply
  carries the shard's *earliest output time* (EOT): the simulated time
  before which it hands no packet to any portal.  The next barrier is
  ``next_t + lookahead`` with ``next_t = min(EOT over shards, pending
  envelope arrivals)`` — classic null-message lookahead: no shard sends
  before ``next_t``, so nothing sent from now on lands before
  ``next_t + lookahead``.  A builder states what it knows through
  :meth:`Shard.egress_promise`; a shard with no promise reports its next
  live event time (:meth:`~repro.sim.engine.Simulator.peek_live`), the
  weakest sound bound, under which windows stretch only while shards coast.
  A portal send has three possible causes — (1) a packet already in flight
  inside the shard, (2) a source that has not fired yet, (3) a reaction to
  an inbound envelope — and a promise may speak for (2) only when the
  source reaches the portal *in the event that fires it*; (3) is the
  pending-arrival term (border forwarding is same-event); a source several
  hops from its portal must promise ``peek_live`` because of (1).  A promise
  that is too late is refused where it breaks: the portal raises
  :class:`LookaheadError` naming the shard, the port, the send time and the
  promise, whether or not the packet would have landed inside a committed
  window.
* **One message codec** — every message is a tag byte and at most one
  pickle, one message per window each way: a window's envelopes share one
  pickle memo, so shard/port ids and repeated payloads are written once.
  Inline and forked workers speak the same bytes (see :func:`_serve`), so a
  destination shard never holds the sender's packet object in either mode.
  Every reply also carries the counter increments the shard booked,
  committed at the barrier (see the protocol below).  Sync-overhead
  metrics (windows, stretched windows, envelopes, frame bytes, per-shard
  busy and CPU seconds) land in the metrics registry and
  :meth:`ShardedSimulation.sync_stats`.

**Digest invariance under window scheduling.**  Because adaptive windows
change *when* envelopes reach the coordinator, the boundary digest referee
is decoupled from the window schedule: routed envelopes are held in a
min-heap keyed ``(arrival, src_index, seq)`` and folded into the SHA-256
only once the barrier clock passes their arrival time.  Every envelope
produced after a barrier at ``T`` arrives strictly later than ``T``, so the
drained sequence is the globally sorted envelope stream — identical for the
static schedule, any adaptive schedule, inline workers and forked workers.

Determinism rules for shard authors:

* every shard derives its randomness from its own namespace —
  ``RngStreams(seed).spawn(f"shard:{name}")`` — so shard-local draw order
  cannot perturb other shards;
* builders must not touch process-global mutable state that influences
  packet contents;
* cross-shard traffic must be picklable (plain headers + bytes/virtual
  payloads) in both worker modes, which the RUBiS scenario's zone
  heartbeats satisfy.
"""

from __future__ import annotations

import hashlib
import io
import multiprocessing
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from multiprocessing.connection import wait as _conn_wait
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.metrics import METRICS
from repro.net.link import Serializer
from repro.net.packet import Packet, VirtualPayload
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Interface

#: Sync-overhead observability (coordinator side, parent process only).
_SYNC_WINDOWS = METRICS.counter("shard.sync.windows")
_SYNC_STRETCHED = METRICS.counter("shard.sync.windows_stretched")
_SYNC_ENVELOPES = METRICS.counter("shard.sync.envelopes")
_SYNC_FRAME_TX = METRICS.counter("shard.sync.frame_bytes_tx")
_SYNC_FRAME_RX = METRICS.counter("shard.sync.frame_bytes_rx")
_SYNC_STOP_ERRORS = METRICS.counter("shard.sync.stop_errors")

_INF = float("inf")

#: Canonical envelope orderings.  Local: per-shard output (seq is the
#: per-shard send counter).  Global: the total order the digest referee and
#: injection scheduling use — ``(src_index, seq)`` is unique per envelope,
#: so the sort result is independent of gather order.
_LOCAL_ORDER = attrgetter("arrival", "seq")
_GLOBAL_ORDER = attrgetter("arrival", "src_index", "seq")


class ShardError(Exception):
    """Configuration or synchronization-contract violation."""


class LookaheadError(ShardError):
    """A cross-shard link's delay is shorter than the lookahead window."""


@dataclass
class Envelope:
    """One packet crossing a shard boundary.

    ``arrival`` is the absolute simulated time the far interface receives
    the packet — computed entirely on the sending side so the destination
    shard replays the exact link timing.  ``seq`` is the per-shard send
    counter; together with ``src_index`` it totally orders same-timestamp
    arrivals across shards.
    """

    arrival: float
    src_shard: str
    src_index: int
    seq: int
    dst_shard: str
    port_id: str
    packet: Packet
    #: Sender's local clock when the packet entered the portal, which
    #: :meth:`ShardedSimulation._route_window` holds ``arrival`` to (at least
    #: one lookahead later).  Not part of :func:`canonical_envelope`: the
    #: digest referees what arrives, not when the sender queued it.
    sent_now: float = -1.0


def _canon_payload(payload: Any) -> Any:
    """Canonical structural form of a packet payload.

    ``repr(packet)`` is unusable for digests: it names the header stack and
    the size but not the contents, and tunneled payloads (ESP ciphertext,
    VPN records) embed inner :class:`Packet` objects.  Recurse structurally
    instead.
    """
    if isinstance(payload, Packet):
        return (
            "pkt",
            tuple(repr(h) for h in payload.headers),
            _canon_payload(payload.payload),
            tuple(sorted((k, repr(v)) for k, v in payload.meta.items())),
        )
    if isinstance(payload, VirtualPayload):
        return ("vp", payload.size, payload.tag)
    if isinstance(payload, (bytes, bytearray)):
        return ("b", hashlib.sha256(bytes(payload)).hexdigest())
    inner = getattr(payload, "inner", None)
    if isinstance(inner, Packet):  # EspCiphertext and friends
        return (type(payload).__name__, _canon_payload(inner), len(payload))
    return (type(payload).__name__, len(payload) if hasattr(payload, "__len__") else 0)


def canonical_envelope(env: Envelope) -> bytes:
    """Stable byte form of an envelope for boundary digests."""
    packet = env.packet
    form = (
        round(env.arrival, 12),
        env.src_shard,
        env.seq,
        env.dst_shard,
        env.port_id,
        tuple(repr(h) for h in packet.headers),
        _canon_payload(packet.payload),
        tuple(sorted((k, repr(v)) for k, v in packet.meta.items())),
    )
    return repr(form).encode()


# ---------------------------------------------------------- message codec --
#
# One tag byte and at most one pickle per message (the protocol is under
# "workers" below).  An envelope travels as the row of its fields: a
# window's envelopes share one pickle memo, which writes each shard/port id
# once, and arrival doubles round-trip bit-exactly.

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL
_ROW = attrgetter(*Envelope.__dataclass_fields__)


def _dumps(tag: bytes, value: Any) -> bytes:
    """One shard message: ``tag`` and the pickle of ``value``."""
    return tag + pickle.dumps(value, _PICKLE_PROTO)


def _loads(msg: bytes, start: int = 1) -> Any:
    """The pickle from ``msg[start:]`` to the end of ``msg``.  One cut short,
    corrupt or followed by trailing bytes is a :class:`ShardError`."""
    stream = io.BytesIO(msg)
    stream.seek(start)
    try:
        value = pickle.load(stream)
    except Exception as exc:  # noqa: BLE001 - a corrupt pickle can raise anything
        raise ShardError(f"corrupt message: {type(exc).__name__}: {exc}") from exc
    if stream.tell() != len(msg):
        raise ShardError(f"corrupt message: {len(msg) - stream.tell()} trailing bytes")
    return value


def encode_envelopes(envelopes: list[Envelope]) -> bytes:
    """A window's envelopes as the one pickle the messages carry them in."""
    return pickle.dumps([_ROW(env) for env in envelopes], _PICKLE_PROTO)


def decode_envelopes(buf: bytes, offset: int = 0) -> tuple[list[Envelope], int]:
    """The envelopes :func:`encode_envelopes` wrote at ``offset``, which
    must run to the end of ``buf``; returns ``(envelopes, len(buf))``."""
    try:
        return [Envelope(*row) for row in _loads(buf, offset)], len(buf)
    except TypeError as exc:
        raise ShardError(f"corrupt envelope rows: {exc}") from exc


class ShardPortal(Serializer):
    """Egress half of a cross-shard link (the far interface is remote).

    The same :class:`~repro.net.link.Serializer` an in-process
    :class:`~repro.net.link.LinkEndpoint` uses — queueing, drop-tail,
    accounting and departure times are one code path — with an envelope as
    the sink instead of a delivery timer: the arrival is ``depart +
    delay_s``, the same float an in-process link would produce.
    """

    def __init__(
        self,
        shard: "Shard",
        port_id: str,
        dst_shard: str,
        bandwidth_bps: float,
        delay_s: float,
        queue_packets: int = 256,
    ) -> None:
        if delay_s <= 0:
            raise LookaheadError(
                f"cross-shard link {port_id!r} needs positive delay "
                "(the delay is the lookahead window)"
            )
        super().__init__(shard.sim, bandwidth_bps, queue_packets)
        self.shard = shard
        self.port_id = port_id
        self.dst_shard = dst_shard
        self.delay_s = delay_s
        self.out: list[Envelope] = []

    def _depart(self, packet: Packet, size: int, depart: float) -> None:
        shard = self.shard
        now = self.sim._now
        # The shard's promise: no send before the EOT it last reported,
        # except in reaction to an envelope injected this window.
        if now < shard.eot and now < shard._inbound:
            raise LookaheadError(
                f"shard {shard.name!r} sent through {self.port_id!r} at "
                f"t={now:.6f} after promising no output before "
                f"t={shard.eot:.6f}"
            )
        shard._env_seq += 1
        self.out.append(
            Envelope(
                arrival=depart + self.delay_s,
                src_shard=shard.name,
                src_index=shard.index,
                seq=shard._env_seq,
                dst_shard=self.dst_shard,
                port_id=self.port_id,
                packet=packet,
                sent_now=now,
            )
        )


class Shard:
    """One partition: its own simulator, RNG namespace, and boundary ports."""

    def __init__(self, name: str, index: int, seed: int) -> None:
        self.name = name
        self.index = index
        #: The run's seed, for a builder hosting several RNG namespaces.
        self.seed = seed
        self.sim = Simulator()
        #: Per-shard RNG namespace: draw order inside one shard can never
        #: perturb another shard's streams.
        self.rngs = RngStreams(seed).spawn(f"shard:{name}")
        self.portals: dict[str, ShardPortal] = {}
        #: ``portals`` in port-id order, built on first :meth:`advance`.
        self._portal_order: list[ShardPortal] | None = None
        self.ingress: dict[str, "Interface"] = {}
        self._env_seq = 0
        self._promises: list[Callable[[], float]] = []
        #: The earliest output time :meth:`advance` last reported.
        self.eot = 0.0
        #: Earliest arrival :meth:`inject` scheduled for the window in
        #: progress (``inf`` if none; every window injects, possibly
        #: nothing): a reaction to it may send before :attr:`eot`.
        self._inbound = _INF
        self.result_fn: Callable[[], Any] | None = None

    def open_egress(
        self,
        port_id: str,
        dst_shard: str,
        bandwidth_bps: float,
        delay_s: float,
        queue_packets: int = 256,
    ) -> ShardPortal:
        """Create the local egress half of a cross-shard link."""
        if port_id in self.portals:
            raise ShardError(f"duplicate egress port {port_id!r} in shard {self.name!r}")
        portal = ShardPortal(
            self, port_id, dst_shard, bandwidth_bps, delay_s, queue_packets
        )
        self.portals[port_id] = portal
        self._portal_order = None
        return portal

    def egress_promise(self, fn: Callable[[], float]) -> None:
        """Register a source's earliest-output-time promise.

        ``fn()`` returns the simulated time before which this source hands
        no packet to any portal of this shard; it is read at every window
        barrier.  A timer's next fire time is a sound promise only for a
        source whose send reaches the portal in the event that fires it;
        anything further away must promise ``shard.sim.peek_live`` (see the
        module docstring).  Once anything is registered the promises must
        between them speak for *every* source in the shard.
        """
        self._promises.append(fn)

    def open_ingress(self, port_id: str, iface: "Interface") -> None:
        """Register ``iface`` as the landing point for a remote egress port."""
        if port_id in self.ingress:
            raise ShardError(f"duplicate ingress port {port_id!r} in shard {self.name!r}")
        self.ingress[port_id] = iface

    def ports(self) -> dict[str, Any]:
        """Boundary description the coordinator pairs and validates."""
        return {
            "egress": {
                pid: (p.dst_shard, p.delay_s) for pid, p in self.portals.items()
            },
            "ingress": sorted(self.ingress),
        }

    def inject(self, envelopes: list[Envelope]) -> None:
        """Schedule arrivals from other shards (already globally ordered)."""
        now = self.sim.now
        inbound = _INF
        for env in envelopes:
            arrival = env.arrival
            if arrival < now:
                raise ShardError(
                    f"lookahead violated: envelope for {env.port_id!r} arrives at "
                    f"{arrival} but shard {self.name!r} is at {now}"
                )
            iface = self.ingress.get(env.port_id)
            if iface is None:
                raise ShardError(
                    f"shard {self.name!r} has no ingress port {env.port_id!r}"
                )
            if arrival < inbound:
                inbound = arrival
            self.sim.call_at(arrival, iface.receive, env.packet)
        self._inbound = inbound

    def advance(self, window_end: float) -> tuple[list[Envelope], float, float]:
        """Run this shard's clock to ``window_end``; return boundary traffic.

        Returns ``(envelopes, peek, eot)``.  ``peek`` is the next *live*
        local event time (``inf`` when idle; stale cancelled timers are
        pruned, see :meth:`Simulator.peek_live`); the coordinator reads it
        only to tell when every shard has drained.  ``eot`` is the earliest
        output time — the least of the registered :meth:`egress_promise`
        values, or ``peek`` when none is registered — and is what the next
        barrier is computed from: correctness never depends on it being
        tight, only on no portal send happening before it except in reaction
        to an inbound envelope, which the portal enforces.
        """
        self.sim.run(until=window_end)
        portals = self._portal_order
        if portals is None:
            portals = self._portal_order = [
                self.portals[pid] for pid in sorted(self.portals)
            ]
        out: list[Envelope] = []
        for portal in portals:
            if portal.out:
                out.extend(portal.out)
                portal.out = []
        out.sort(key=_LOCAL_ORDER)
        peek = self.sim.peek_live()
        self.eot = eot = min([fn() for fn in self._promises], default=peek)
        return out, peek, eot


# ----------------------------------------------------------------- workers --
#
# One protocol, two transports.  The coordinator talks to every shard in
# message bytes and the shard answers through :func:`_serve`; the inline
# worker calls it on those bytes directly, the forked worker pipes them to a
# child process.  Every message is a tag byte, then one pickle (:func:`_dumps`)
# or, for ``E``/``L``, utf-8 text:
#
#   parent  W (window_end, envelope rows);  F;  S (forked only, no pickle)
#   shard   P (ports, counts) (once, after build);
#           W (envelope rows, peek, EOT, busy wall-seconds, busy CPU-seconds,
#              counts);
#           F (result, counts);
#           E, or L for a LookaheadError, + utf-8 error text
#
# ``counts`` are the ``(key, n)`` counter and histogram increments booked
# serving that command, which the shard rewinds (:func:`_booked`) and the
# coordinator commits: each is booked once, in the parent.  A failure commits none.

Builder = Callable[..., None]

#: What each reply is called in a corrupt-reply error.
_REPLIES = {b"P": "ports reply", b"W": "window reply", b"F": "result reply"}

#: How often a blocking receive re-checks worker liveness (wall seconds).
_POLL_INTERVAL_S = 0.05


@contextmanager
def _booked():
    """The block's metric increments, with METRICS rewound past them."""
    counts: list[tuple[str, int]] = []
    METRICS.mark()
    try:
        yield counts
    finally:
        counts += METRICS.rewind()


def _open(
    name: str, index: int, seed: int, builder: Builder, kwargs: dict[str, Any]
) -> tuple[Shard, bytes]:
    """Build one shard; returns it with its ``P`` reply."""
    with _booked() as counts:
        shard = Shard(name, index, seed)
        builder(shard, **kwargs)
    return shard, _dumps(b"P", (shard.ports(), counts))


def _pair(value: Any, counts: list) -> tuple[Any, list]:
    """The fields of a ``P`` or ``F`` reply."""
    return value, counts


def _window_reply(
    rows: list, peek: float, eot: float, busy: float, cpu: float, counts: list
) -> tuple[list[Envelope], float, float, float, float, list]:
    """The fields of a ``W`` reply, its envelope rows made envelopes."""
    return [Envelope(*row) for row in rows], peek, eot, busy, cpu, counts


def _serve(shard: Shard, msg: bytes) -> bytes:
    """The shard side of the protocol: one command in, its reply out.

    Busy and CPU seconds time the window's simulation, not the codec, the
    same way under both transports.
    """
    op = msg[:1]
    if op == b"W":
        window_end, rows = _loads(msg)
        envelopes = [Envelope(*row) for row in rows]
        with _booked() as counts:
            start = time.perf_counter()  # repro: ignore[DET001] -- sync-overhead observability only; never feeds simulation state
            cpu_start = time.process_time()  # repro: ignore[DET001] -- sync-overhead observability only; never feeds simulation state
            shard.inject(envelopes)
            out, peek, eot = shard.advance(window_end)
            cpu = time.process_time() - cpu_start  # repro: ignore[DET001] -- sync-overhead observability only; never feeds simulation state
            busy = time.perf_counter() - start  # repro: ignore[DET001] -- sync-overhead observability only; never feeds simulation state
        return _dumps(b"W", ([_ROW(env) for env in out], peek, eot, busy, cpu, counts))
    if msg == b"F":
        with _booked() as counts:
            result = shard.result_fn() if shard.result_fn is not None else None
            shard.sim.close()
        return _dumps(b"F", (result, counts))
    raise ShardError(f"unknown command {bytes(msg[:8])!r} ({len(msg)} bytes)")


def _error_reply(exc: BaseException, shard: Shard | None) -> bytes:
    """The ``E`` reply for ``exc``, stamped with the shard's clock; ``L`` for
    a :class:`LookaheadError`, also one a crashed process wraps."""
    tag = b"E"
    cause: BaseException | None = exc
    while cause is not None:
        if isinstance(cause, LookaheadError):
            tag, exc = b"L", cause
            break
        cause = cause.__cause__
    at = "" if shard is None else f" at t={shard.sim.now:.6f}"
    return tag + f"{type(exc).__name__}{at}: {exc}".encode()


def _worker_main(
    conn, name: str, index: int, seed: int, builder: Builder, kwargs: dict[str, Any]
) -> None:
    """Forked child: build the shard, then serve commands off the pipe until
    ``S`` or EOF.  A failure is replied as ``E``/``L`` and ends the child."""
    shard = None
    try:
        shard, reply = _open(name, index, seed, builder, kwargs)
        while True:
            conn.send_bytes(reply)
            try:
                msg = conn.recv_bytes()
            except EOFError:
                return
            if msg == b"S":
                return
            reply = _serve(shard, msg)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        conn.send_bytes(_error_reply(exc, shard))


class _Worker:
    """One shard behind the worker protocol, served in this process.

    ``_send``/``_recv`` are the transport: here ``_send`` serves the
    command at once and ``_recv`` hands back its reply.
    :class:`_ProcessWorker` pipes the same bytes to a forked child.
    """

    def __init__(
        self, name: str, index: int, seed: int, builder: Builder, kwargs: dict[str, Any]
    ) -> None:
        self.name = name
        self.bytes_tx = 0
        self.bytes_rx = 0
        self._start(index, seed, builder, kwargs)
        try:
            self.ports, counts = self._expect(b"P", _pair)
        except BaseException:
            self.stop()
            raise
        METRICS.commit(counts)

    # -- transport: a direct call ---------------------------------------------
    def _start(
        self, index: int, seed: int, builder: Builder, kwargs: dict[str, Any]
    ) -> None:
        try:
            self.shard, self._reply = _open(self.name, index, seed, builder, kwargs)
        except Exception as exc:
            raise self._failure(_error_reply(exc, None)) from exc

    def _send(self, msg: bytes) -> None:
        self.bytes_tx += len(msg)
        try:
            self._reply = _serve(self.shard, msg)
        except Exception as exc:
            raise self._failure(_error_reply(exc, self.shard)) from exc

    def _recv(self) -> bytes:
        return self._reply

    def stop(self) -> None:
        """Close the shard's simulator, so a failed run leaves no suspended
        process for the garbage collector to finalize (idempotent).  What
        its finalizers book is dropped, as a stopped forked child's is."""
        with _booked():
            self.shard.sim.close()

    # -- the protocol ---------------------------------------------------------
    def _failure(self, reply: bytes) -> ShardError:
        cls = LookaheadError if reply[:1] == b"L" else ShardError
        return cls(
            f"shard {self.name!r} worker failed: "
            f"{reply[1:].decode(errors='replace')}"
        )

    def _expect(self, op: bytes, read: Callable[..., tuple]) -> tuple:
        """``read(*fields)`` of the next reply, an ``op`` reply whose last
        field is its counter increments.  ``E``/``L`` raises the worker's own
        failure; a reply cut short, corrupt, refused by ``read`` or with a
        metric key that does not parse is a ShardError naming the shard."""
        msg = self._recv()
        if msg[:1] in (b"E", b"L"):
            raise self._failure(msg)
        self.bytes_rx += len(msg)
        try:
            if msg[:1] != op:
                raise ShardError(f"unexpected tag {bytes(msg[:1])!r}")
            fields = read(*_loads(msg))
            for key, _n in fields[-1]:
                METRICS.parse(key)
        except (ShardError, TypeError, ValueError) as exc:
            raise ShardError(
                f"shard {self.name!r} sent a corrupt {_REPLIES[op]}: {exc}"
            ) from exc
        return fields

    def start_window(self, window_end: float, envelopes: list[Envelope]) -> None:
        self._send(_dumps(b"W", (window_end, [_ROW(env) for env in envelopes])))

    def collect_window(self) -> tuple[list[Envelope], float, float, float, float, list]:
        return self._expect(b"W", _window_reply)

    def finish(self) -> Any:
        self._send(b"F")
        result, counts = self._expect(b"F", _pair)
        METRICS.commit(counts)
        return result


class _ProcessWorker(_Worker):
    """The same protocol over a pipe to a forked child (``parallel=True``)."""

    def _start(
        self, index: int, seed: int, builder: Builder, kwargs: dict[str, Any]
    ) -> None:
        self._stopped = False
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.name, index, seed, builder, kwargs),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    def _recv(self) -> bytes:
        """Blocking receive with a liveness check: a dead child raises a
        :class:`ShardError` naming the shard instead of deadlocking."""
        while not self._conn.poll(_POLL_INTERVAL_S):
            self.check_alive()
        try:
            return self._conn.recv_bytes()
        except EOFError:
            raise ShardError(
                f"shard {self.name!r} worker closed its pipe mid-reply "
                f"(exitcode {self._proc.exitcode})"
            ) from None

    def check_alive(self) -> None:
        """Raise a ShardError naming the shard if its child has died."""
        if not self._proc.is_alive():
            raise ShardError(
                f"shard {self.name!r} worker died without replying "
                f"(exitcode {self._proc.exitcode})"
            )

    def _send(self, msg: bytes) -> None:
        try:
            self._conn.send_bytes(msg)
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(
                f"shard {self.name!r} worker is gone "
                f"({type(exc).__name__}; exitcode {self._proc.exitcode})"
            ) from exc
        self.bytes_tx += len(msg)

    def stop(self) -> None:
        """Stop the child; always leaves no live process behind.

        Safe to call on an already-dead or already-stopped worker: the
        polite ``S`` command is best-effort (the pipe may already be
        broken), and any child still alive after the grace join is
        terminated outright.
        """
        if self._stopped:
            return
        self._stopped = True
        proc = self._proc
        try:
            if proc.is_alive():
                try:
                    self._conn.send_bytes(b"S")
                except (BrokenPipeError, OSError):
                    pass  # child already went away; terminate below
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        finally:
            self._conn.close()


# ------------------------------------------------------------- coordinator --


class ShardedSimulation:
    """Coordinator: windowed conservative-lookahead barrier over shards.

    ``builders`` maps shard name -> ``(builder, kwargs)``.  Each builder is a
    module-level callable ``builder(shard, **kwargs)`` (it must be picklable
    for ``parallel=True``) that wires its partition inside ``shard.sim``,
    opens boundary ports, and sets ``shard.result_fn``.

    ``parallel=True`` forks one worker process per shard and scatter-gathers
    every window; without it, every shard runs behind the same protocol in
    this process.  ``adaptive=True`` (default) stretches windows past the
    static lookahead as far as the shards' earliest-output-time promises
    allow (``adaptive=False`` is the static schedule and ignores them).  The
    boundary digest is schedule-invariant (see module docstring), so
    adaptive and static runs of the same scenario produce identical digests.
    """

    def __init__(
        self,
        builders: dict[str, tuple[Builder, dict[str, Any]]],
        seed: int,
        lookahead: float | None = None,
        parallel: bool = False,
        adaptive: bool = True,
    ) -> None:
        if not builders:
            raise ShardError("no shards")
        self.seed = seed
        self.parallel = parallel
        self.adaptive = adaptive
        self.windows = 0
        self.stretched_windows = 0
        self.envelopes_routed = 0
        self.window_wall_s = 0.0
        self._digest = hashlib.sha256()
        #: Routed-but-not-yet-digested envelopes, keyed (arrival, src_index,
        #: seq): drained into the SHA-256 once the barrier clock passes their
        #: arrival, which makes the digest window-schedule invariant.
        self._undigested: list[tuple[float, int, int, Envelope]] = []
        worker_cls = _ProcessWorker if parallel else _Worker
        self.workers: dict[str, _Worker] = {}
        try:
            for index, (name, (builder, kwargs)) in enumerate(sorted(builders.items())):
                self.workers[name] = worker_cls(name, index, seed, builder, kwargs)
            self._validate_ports(lookahead)
        except BaseException:
            # A failed builder (or port validation) must not leak the
            # already-forked sibling workers.
            self._stop_workers()
            raise
        self._names: list[str] = list(self.workers)
        self._worker_list: list[_Worker] = list(self.workers.values())
        n = len(self._worker_list)
        self._dst_index = {name: i for i, name in enumerate(self._names)}
        self._pending: list[list[Envelope]] = [[] for _ in range(n)]
        self._peeks: list[float] = [0.0] * n
        self._eots: list[float] = [0.0] * n
        self._busy: list[float] = [0.0] * n
        self._cpu: list[float] = [0.0] * n
        if parallel:
            self._conns = [w._conn for w in self._worker_list]
            self._conn_index = {conn: i for i, conn in enumerate(self._conns)}
        self.results: dict[str, Any] = {}

    def _validate_ports(self, lookahead: float | None) -> None:
        ports = {name: w.ports for name, w in self.workers.items()}
        delays: list[float] = []
        for name, desc in ports.items():
            for pid, (dst, delay) in desc["egress"].items():
                if dst not in ports:
                    raise ShardError(
                        f"egress {pid!r} in shard {name!r} targets unknown shard {dst!r}"
                    )
                if pid not in ports[dst]["ingress"]:
                    raise ShardError(
                        f"egress {pid!r} in shard {name!r} has no ingress in {dst!r}"
                    )
                delays.append(delay)
        min_delay = min(delays) if delays else float("inf")
        if lookahead is None:
            lookahead = min_delay if delays else 1.0
        if lookahead <= 0:
            raise LookaheadError(f"lookahead must be positive, got {lookahead}")
        if lookahead > min_delay:
            raise LookaheadError(
                f"lookahead {lookahead} exceeds the shortest cross-shard "
                f"link delay {min_delay}"
            )
        self.lookahead = lookahead

    @property
    def boundary_digest(self) -> str:
        """SHA-256 over every envelope routed so far, in global order."""
        return self._digest.hexdigest()

    def sync_stats(self) -> dict[str, Any]:
        """Per-run synchronization overhead (windows/s, bytes, idle time).

        Per shard, ``busy_s`` is the worker's wall time inside windows and
        ``cpu_s`` the CPU time it was actually given for them: on an
        oversubscribed host ``busy_s`` counts time spent preempted, so it is
        ``cpu_s`` that says how much work the shard did.  Both are measured
        alike in both worker modes; ``idle_fraction`` (the share of window
        wall time a forked worker waited on the barrier) is ``None`` inline.
        """
        wall = self.window_wall_s
        per_shard: dict[str, Any] = {}
        for i, name in enumerate(self._names):
            worker = self._worker_list[i]
            busy = self._busy[i]
            idle = None
            if self.parallel and wall > 0.0:
                idle = min(1.0, max(0.0, 1.0 - busy / wall))
            per_shard[name] = {
                "busy_s": busy,
                "cpu_s": self._cpu[i],
                "idle_fraction": idle,
                "frame_bytes_tx": worker.bytes_tx,
                "frame_bytes_rx": worker.bytes_rx,
            }
        return {
            "parallel": self.parallel,
            "adaptive": self.adaptive,
            "windows": self.windows,
            "stretched_windows": self.stretched_windows,
            "envelopes_routed": self.envelopes_routed,
            "envelopes_per_window": (
                self.envelopes_routed / self.windows if self.windows else 0.0
            ),
            "window_wall_s": wall,
            "windows_per_wall_s": (self.windows / wall if wall > 0.0 else 0.0),
            "frame_bytes_tx": sum(w.bytes_tx for w in self._worker_list),
            "frame_bytes_rx": sum(w.bytes_rx for w in self._worker_list),
            "per_shard": per_shard,
        }

    # -- the window loop (hot: see analysis/perf.py ROOTS) ---------------------
    def _sync_window(self, window_end: float) -> list[Envelope]:
        """Scatter one window to every worker, then gather all replies.

        In parallel mode the ``window`` command is broadcast first and
        replies are collected as they arrive (``connection.wait``), so
        shard work genuinely overlaps across cores; merged output order is
        irrelevant because routing re-sorts canonically.  A window that
        fails anywhere commits no counter increments, whatever the order.
        """
        workers = self._worker_list
        pending = self._pending
        n = len(workers)
        start = time.perf_counter()  # repro: ignore[DET001] -- sync-overhead observability only; never feeds simulation state
        for i in range(n):
            workers[i].start_window(window_end, pending[i])
            pending[i] = []
        outs: list[Envelope] = []
        counts: list[tuple[str, int]] = []  # committed once all have answered
        if self.parallel:
            conn_index = self._conn_index
            remaining = list(self._conns)
            while remaining:
                ready = _conn_wait(remaining, _POLL_INTERVAL_S)
                if not ready:
                    for conn in remaining:
                        workers[conn_index[conn]].check_alive()
                for conn in ready:
                    counts += self._collect(conn_index[conn], outs)
                    remaining.remove(conn)
        else:
            for i in range(n):
                counts += self._collect(i, outs)
        METRICS.commit(counts)
        self.window_wall_s += time.perf_counter() - start  # repro: ignore[DET001] -- sync-overhead observability only; never feeds simulation state
        return outs

    def _collect(self, i: int, outs: list[Envelope]) -> list[tuple[str, int]]:
        """Take worker ``i``'s window reply into the coordinator's state;
        returns its counter increments."""
        sent, self._peeks[i], self._eots[i], busy, cpu, booked = (
            self._worker_list[i].collect_window()
        )
        self._busy[i] += busy
        self._cpu[i] += cpu
        outs.extend(sent)
        return booked

    def _route_window(self, outs: list[Envelope], window_end: float) -> None:
        """Validate, order and buffer one barrier's cross-shard envelopes.

        An envelope must land at or after the barrier (its destination has
        run up to it) and at least one lookahead after it was sent.
        """
        outs.sort(key=_GLOBAL_ORDER)
        lookahead = self.lookahead
        undigested = self._undigested
        dst_index = self._dst_index
        pending = self._pending
        for env in outs:
            arrival = env.arrival
            if arrival < window_end or arrival < env.sent_now + lookahead:
                raise LookaheadError(
                    f"envelope from shard {env.src_shard!r} through "
                    f"{env.port_id!r} sent at t={env.sent_now:.6f} arrives at "
                    f"t={arrival:.6f}: inside the window ending "
                    f"t={window_end:.6f}, or less than the lookahead "
                    f"{lookahead} after its send"
                )
            heappush(undigested, (arrival, env.src_index, env.seq, env))
            pending[dst_index[env.dst_shard]].append(env)
        self.envelopes_routed += len(outs)

    def _drain_digest(self, barrier: float) -> None:
        """Fold every envelope with ``arrival <= barrier`` into the digest.

        All future envelopes arrive strictly after the current barrier, so
        the drained sequence is the globally ``(arrival, src_index, seq)``
        sorted envelope stream — independent of the window schedule.
        """
        undigested = self._undigested
        digest = self._digest
        while undigested and undigested[0][0] <= barrier:
            digest.update(canonical_envelope(heappop(undigested)[3]))

    # -- run ------------------------------------------------------------------
    def run(self, until: float) -> dict[str, Any]:
        """Advance all shards to ``until`` in synchronized windows.

        On any coordinator or worker error every sibling worker is stopped
        (terminated if necessary) before the error propagates — a failing
        shard never leaks live children.
        """
        try:
            return self._run(until)
        except BaseException:
            self._stop_workers()
            raise

    def _run(self, until: float) -> dict[str, Any]:
        lookahead = self.lookahead
        adaptive = self.adaptive
        pending = self._pending
        peeks = self._peeks
        eots = self._eots
        t = 0.0
        window_end = min(lookahead, until)
        while t < until:
            outs = self._sync_window(window_end)
            self.windows += 1
            if outs:
                self._route_window(outs, window_end)
            self._drain_digest(window_end)
            t = window_end
            next_arrival = _INF
            for bucket in pending:
                for env in bucket:
                    if env.arrival < next_arrival:
                        next_arrival = env.arrival
            if next_arrival == _INF and min(peeks) == _INF:
                break  # every shard idle and nothing in flight: done
            # The adaptive hint: the earliest instant any shard can hand a
            # packet to a portal — its own promise, or its reaction to a
            # routed envelope waiting to be injected.  No send happens
            # before it, so nothing lands before next_t + lookahead.
            next_t = min(min(eots), next_arrival)
            window_end = t + lookahead
            if adaptive and next_t + lookahead > window_end:
                window_end = next_t + lookahead
                self.stretched_windows += 1
            if window_end > until:
                window_end = until
        self._drain_digest(_INF)
        results: dict[str, Any] = {}
        for i, name in enumerate(self._names):
            results[name] = self._worker_list[i].finish()
        self.results = results
        self._stop_workers()
        _SYNC_WINDOWS.value += self.windows
        _SYNC_STRETCHED.value += self.stretched_windows
        _SYNC_ENVELOPES.value += self.envelopes_routed
        _SYNC_FRAME_TX.value += sum(w.bytes_tx for w in self._worker_list)
        _SYNC_FRAME_RX.value += sum(w.bytes_rx for w in self._worker_list)
        return results

    def _stop_workers(self) -> None:
        """Stop every worker; never raises (cleanup must not mask errors)."""
        for worker in self.workers.values():
            try:
                worker.stop()
            except Exception:  # pragma: no cover - secondary cleanup failure
                _SYNC_STOP_ERRORS.value += 1
