"""Simplified TCP with NewReno + SACK loss recovery.

Implements the behaviourally-relevant subset for the paper's experiments:

* three-way handshake, FIN teardown, RFC 793 reset generation for segments
  arriving at closed ports;
* byte-stream transfer with MSS segmentation, cumulative ACKs, out-of-order
  reassembly with overlap trimming;
* NewReno congestion control (RFC 6582): slow start, congestion avoidance,
  fast retransmit on three duplicate ACKs, a real fast-recovery state with
  cwnd inflation/deflation and partial-ACK retransmission, RTO with
  Jacobson/Karels estimation and exponential backoff;
* SACK (RFC 2018): receivers advertise out-of-order ranges as
  :class:`~repro.net.packet.TCPHeader` option blocks; the sender keeps a
  scoreboard and retransmits only un-SACKed holes during recovery;
* ECN (RFC 3168 subset): links can CE-mark instead of dropping
  (``Link(ecn_threshold=...)``); receivers echo ``ECE`` until the sender
  acknowledges the window reduction with ``CWR``;
* receiver flow control with a configurable advertised window — the iperf
  experiment sets the paper's 85.3 KB / 16 KB windows explicitly — plus a
  zero-window persist timer that probes a closed window so a lost window
  update cannot deadlock the connection;
* optional callback-lane pacing (``pacing=True``): segments leave at
  ``cwnd/srtt`` instead of in back-to-back window bursts;
* optional fluid fast-forward (``fluid=True``): a window-limited bulk flow
  whose congestion window has stopped moving drains its pipe, locates its
  peer endpoint (via an in-band probe that travels like any other
  segment), and then advances as a closed-form rate integral
  ``min(cwnd, peer_window)/srtt`` — skipping per-segment events entirely —
  until the transfer completes or the steady state is disturbed (loss, ECN
  echo, a receive-window change, or a competing flow appearing on either
  stack), at which point it re-enters packet mode with bit-identical
  ``snd_nxt``/``cwnd``/``bytes_acked``.  A flow never goes fluid at a
  tunnel endpoint (a node with an output shim: HIP, SSL VPN, Teredo), so
  every tunnel cost is charged per packet, exactly as with ``fluid=False``.
  ``fluid`` implies RFC 2861-style congestion-window validation (``cwnd``
  only grows while the flow is cwnd-limited), which is what pins ``cwnd``
  exactly in the window-limited steady state.

All timers (RTO, delayed ACK, persist, pacing, fluid) are callback-lane
:class:`~repro.sim.engine.TimerHandle` objects rearmed in place.

Segments carry either real bytes (all unit tests, HTTP control traffic) or
:class:`~repro.net.packet.VirtualPayload` sizes (bulk benchmarks), and the
stream machinery is agnostic between them.  Bursts, pacing ticks and
zero-window probes all send through ``_send_next``: new data, else the FIN.

Applications read through the one receive buffer, ``rx``, with
:meth:`~TcpConnection.recv`, :meth:`~TcpConnection.recv_bytes`,
:meth:`~TcpConnection.read_until` or :meth:`~TcpConnection.consume`; bytes
not yet read wait there in order, whichever reads next.  EOF is sticky: once
the ``b""`` marker is read, every read raises :class:`StreamClosed`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Generator

from repro.metrics import METRICS, RECORDER
from repro.net.addresses import IPAddress
from repro.net.packet import Packet, Payload, TCPHeader, VirtualPayload
from repro.net.wire import unchecked
from repro.sim.resources import Queue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Interface, Node

_SEGMENTS_SENT = METRICS.counter("tcp.segments_sent")
_RETRANSMITS = METRICS.counter("tcp.segments_retransmitted")
_CONNECTS = METRICS.counter("tcp.connects")
_ACCEPTS = METRICS.counter("tcp.accepts")
_FAILURES = METRICS.counter("tcp.connection_failures")
_FAST_RECOVERIES = METRICS.counter("tcp.fast_recoveries")
_ECN_REDUCTIONS = METRICS.counter("tcp.ecn_reductions")
_ZW_PROBES = METRICS.counter("tcp.zero_window_probes")
_FLUID_ENTERS = METRICS.counter("tcp.fluid_enters")
_FLUID_EXITS = METRICS.counter("tcp.fluid_exits")
_FLUID_BYTES = METRICS.counter("tcp.fluid_bytes")
_RX_BEYOND_WINDOW = METRICS.counter("tcp.rx_beyond_window")
_SACK_BEYOND_SENT = METRICS.counter("tcp.sack_beyond_sent")
_RTT = METRICS.histogram("tcp.rtt_s")

DEFAULT_MSS = 1448  # bytes of payload per segment (Ethernet MTU - headers)
DEFAULT_WINDOW = 65535
MIN_RTO = 0.2
MAX_RTO = 60.0
DELACK_TIMEOUT = 0.04
PERSIST_MIN = 0.5  # zero-window probe interval bounds (RFC 1122 §4.2.2.17)
PERSIST_MAX = 60.0
SACK_MAX_BLOCKS = 3  # blocks per ACK, as a timestamped real header would fit
#: Fluid fast-forward tuning.  A flow is considered steady once this many
#: effective windows of data have been cleanly acknowledged (no loss, SACK,
#: ECN or retransmission since the counter last reset), and entry is only
#: worthwhile if at least this many windows remain to fast-forward.
FLUID_STABLE_WINDOWS = 2
FLUID_MIN_WINDOWS = 3
#: Simulated seconds advanced per fluid checkpoint: each chunk re-validates
#: the steady-state guards (peer alive, same window, no competing flow) so a
#: disturbance is noticed within one chunk.
FLUID_CHUNK_S = 0.25
FLUID_PROBE_RETRIES = 3

#: Shared flag set for the overwhelmingly common case (data segments and
#: pure ACKs) — reused instead of allocating a fresh ``frozenset`` per
#: segment.
_ACK_FLAGS = frozenset({"ACK"})
_NO_FLAGS: frozenset[str] = frozenset()
_ECE_FLAGS = frozenset({"ECE"})
_CWR_FLAGS = frozenset({"CWR"})
_RST_FLAGS = frozenset({"RST"})
_RST_ACK_FLAGS = frozenset({"RST", "ACK"})
_FIN_FLAGS = frozenset({"FIN"})
_EMPTY_SACK: tuple = ()

class TcpError(Exception):
    """Connection-level failure (reset, timeout, closed)."""


class StreamClosed(TcpError):
    """A read found the receive stream ended (by the peer's FIN or a reset)."""


def _slice_payload(payload: Payload, start: int, length: int) -> Payload:
    if isinstance(payload, VirtualPayload):
        return VirtualPayload(size=length, tag=payload.tag)
    return payload[start : start + length]


class TcpConnection:
    """One TCP connection endpoint."""

    def __init__(
        self,
        stack: "TcpStack",
        local_addr: IPAddress,
        local_port: int,
        remote_addr: IPAddress,
        remote_port: int,
        mss: int = DEFAULT_MSS,
        recv_window: int = DEFAULT_WINDOW,
        pacing: bool = False,
        fluid: bool = False,
        fluid_flow_guard: bool = True,
    ) -> None:
        self.stack = stack
        self.node = stack.node
        self.sim = stack.node.sim
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.mss = mss
        self.state = "CLOSED"

        # --- send side ---
        self.snd_una = 0  # oldest unacked sequence number
        self.snd_nxt = 0  # next sequence number to send
        self.snd_buf: deque[tuple[int, int, Payload]] = deque()  # (start, end, chunk)
        self.snd_buf_end = 1  # stream offsets live in seq space; SYN consumes 0
        #: Segments awaiting ACK, oldest first, each a list
        #: ``[seq, end, payload, flags, sent_at, retx]`` (``end`` counts a FIN).
        self.inflight: deque[list] = deque()
        #: Wire bytes of the IP header and the option-less TCP header every
        #: segment carries (``IPHeader``/``TCPHeader.header_len``).
        self._hdr_len = (20 if remote_addr.family == 4 else 40) + 20
        self.cwnd = 2 * mss
        self.ssthresh = 64 * 1024 * 1024
        self.peer_window = DEFAULT_WINDOW
        self.dup_acks = 0
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.rto = 1.0
        self._handshake_retx = 0
        self._rto_timer = None  # TimerHandle; rearmed in place
        self._delack_handle = None  # TimerHandle; rearmed in place
        # NewReno fast-recovery state (RFC 6582) + SACK scoreboard (RFC 2018).
        self.in_recovery = False
        self.recover = 0  # snd_nxt when loss was detected; full ACKs pass it
        self._sacked: list[list[int]] = []  # merged [start, end) peer-SACKed ranges
        self._high_rtx = 0  # end of the highest hole retransmitted this recovery
        self.fast_recoveries = 0
        # ECN (sender reacts to ECE once per window; receiver echoes CE).
        self._ecn_echo = False
        self._cwr_pending = False
        self._ecn_recover = 0
        self.ecn_reductions = 0
        # Zero-window persist (probe a closed peer window, RFC 1122).
        self._persist_armed = False
        self._persist_timer = None  # TimerHandle
        self._persist_backoff = PERSIST_MIN
        self.zero_window_probes = 0
        # Pacing: spread segments at cwnd/srtt through the callback lane
        # instead of bursting the whole window per ACK.
        self.pacing = pacing
        self._pace_timer = None  # TimerHandle; active while draining the buffer
        # Bulk senders cut identical VirtualPayload slices (one
        # MSS each) for thousands of segments in a row; VirtualPayload is
        # immutable, so the last one is shared while (size, tag) repeats.
        self._vp_cache = VirtualPayload(0)
        self._fin_seq: int | None = None  # our FIN's sequence once close() queued it
        # Fluid fast-forward (flow-level bulk mode); see the module docstring.
        self.fluid = fluid
        # The competing-flow guard exits fluid mode when either endpoint's
        # stack gains or loses a connection (a new flow may share the
        # bottleneck).  A dedicated bulk tier serving many *window-limited*
        # transfers concurrently turns it off — there each flow's throughput
        # is wnd/rtt regardless of its neighbours, so arrivals aren't
        # disturbances.
        self.fluid_flow_guard = fluid_flow_guard
        # A fluid flow needs the frozen-cwnd steady state; everything else
        # keeps unvalidated growth.
        self.cwnd_validation = fluid
        self._fluid_want = False  # draining the pipe before jumping
        self._fluid_active = False  # advancing as a rate integral
        self._fluid_peer: TcpConnection | None = None
        self._fluid_timer = None  # TimerHandle shared by probe-wait and chunks
        self._fluid_clean = 0  # bytes cleanly acked since last disturbance
        self._fluid_goal = 0  # snd_buf_end snapshot at entry
        self._fluid_chunk = 0
        self._fluid_rate = 0.0  # bytes per simulated second while active
        self._fluid_wait_tries = 0
        self._fluid_entry_flows = 0
        self._fluid_entry_wnd = 0
        self.fluid_bytes = 0
        self.fluid_enters = 0
        self.fluid_exits = 0
        #: ("enter" | "exit:<why>", time, snd_nxt, cwnd, bytes_acked) at every
        #: mode boundary — the replay-equality tests diff this against the
        #: pure per-packet run.
        self.fluid_log: list[tuple] = []
        if fluid:
            # Sim-scoped peer directory: the in-band probe carries this id so
            # the receiving endpoint can link the two connection objects even
            # when the 4-tuples don't mirror (HIP LSI/HIT translation).
            services = self.sim.services
            ident = services.get("tcp.fluid_next_id", 1)
            services["tcp.fluid_next_id"] = ident + 1
            self._fluid_id = ident
            services.setdefault("tcp.fluid_conns", {})[ident] = self
        else:
            self._fluid_id = 0

        # --- receive side ---
        self.recv_window = recv_window
        self.rcv_nxt = 0
        self.ooo: dict[int, tuple[Payload, bool]] = {}  # seq -> (payload, fin)
        #: The one receive buffer: chunks delivered but not yet read, in order.
        self.rx = Queue(self.sim)
        #: Where in-order stream data and the ``b""`` EOF marker go: the rx
        #: queue's put, or the sink installed by :meth:`consume`.
        self._deliver: Callable[[Payload], object] = self.rx.try_put
        #: Chunks at the head of ``rx`` that a read already waited for (the
        #: rest of a split chunk): the next read takes them without waiting.
        self._held = 0
        self._peer_fin_seen = False
        # Delayed ACKs (RFC 1122): ack every 2nd in-order segment, or after
        # the delayed-ack timer.
        self._delack_pending = 0
        self._delack_timer_armed = False

        # --- connection lifecycle events ---
        self._established_evt = self.sim.event()
        self._closed_evt = self.sim.event()

        # --- statistics ---
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_retransmitted = 0
        self.rtos = 0
        self.rx_beyond_window = 0  # segments dropped past the receive window
        self.sack_beyond_sent = 0  # SACK blocks ignored for bytes never sent

    # -- public API ------------------------------------------------------------
    @property
    def established(self):
        """Event that fires when the connection reaches ESTABLISHED."""
        return self._established_evt

    @property
    def closed(self):
        return self._closed_evt

    def write(self, payload: Payload) -> None:
        """Queue application data on the stream."""
        if self.state not in ("ESTABLISHED", "SYN_SENT", "SYN_RCVD"):
            raise TcpError(f"write on {self.state} connection")
        if self._fin_seq is not None:
            raise TcpError("write after close")
        n = len(payload)
        if n == 0:
            return
        self.snd_buf.append((self.snd_buf_end, self.snd_buf_end + n, payload))
        self.snd_buf_end += n
        if self.state == "ESTABLISHED":
            self._pump()

    def recv(self):
        """Event yielding the next in-order chunk (``b""`` signals EOF);
        raises :class:`StreamClosed` once that marker has been read."""
        if self._deliver != self.rx.try_put:
            raise TcpError("recv() on a stream handed to consume()")
        if self._held:
            self._held -= 1  # rx.get() hands the held head back
        elif not self.rx and (self._peer_fin_seen or self.state == "CLOSED"):
            raise self._stream_closed()
        return self.rx.get()

    def consume(self, fn: Callable[[Payload], object]) -> None:
        """Hand the receive stream to ``fn`` instead of the rx queue.

        Chunks still buffered go to ``fn`` now, in order.  From then on
        every in-order chunk, and the ``b""`` EOF marker, goes to ``fn``
        inline at delivery: no process wakes per chunk.  ``fn`` runs inside
        the delivery, so it must schedule nothing per chunk — it is for sinks
        whose per-chunk work is local accounting.  After this, :meth:`recv`
        raises :class:`TcpError`; the connection must have no waiting reader.
        """
        if self._deliver != self.rx.try_put:
            raise TcpError("consume() on a stream already handed to consume()")
        ok, chunk = self.rx.try_get()
        while ok:
            fn(chunk)
            ok, chunk = self.rx.try_get()
        self._held = 0
        self._deliver = fn

    def recv_bytes(self, n: int) -> Generator:
        """Process-generator: read exactly ``n`` stream bytes.

        Returns real bytes if every piece read was real, else a
        VirtualPayload of ``n``.  Raises :class:`StreamClosed` at EOF before
        ``n``, leaving the bytes it took buffered.
        """
        parts: list = []
        got = 0
        while got < n:
            try:
                chunk = yield from self._next_chunk()
            except StreamClosed:
                self._unread(parts)
                raise
            size = len(chunk)
            if size > n - got:
                self._unread([_slice_payload(chunk, n - got, size - n + got)])
                size = n - got
                chunk = _slice_payload(chunk, 0, size)
            parts.append(chunk)
            got += size
        if any(isinstance(part, VirtualPayload) for part in parts):
            return VirtualPayload(size=n)
        return b"".join(parts)

    def read_until(self, delim: bytes, max_bytes: int = 65536) -> Generator:
        """Process-generator: read the real bytes through ``delim`` (included).

        Raises ValueError if ``delim`` is not within ``max_bytes`` or a
        virtual chunk comes before it, and :class:`StreamClosed` at EOF;
        either way the bytes it took stay buffered.
        """
        head = b""
        while True:
            try:
                chunk = yield from self._next_chunk()
            except StreamClosed:
                self._unread([head])
                raise
            if isinstance(chunk, VirtualPayload):
                self._unread([head, chunk])
                raise ValueError("virtual payload encountered while scanning for delimiter")
            head += chunk
            end = head.find(delim)
            if end >= 0:
                end += len(delim)
                self._unread([head[end:]])
                return head[:end]
            if len(head) > max_bytes:
                self._unread([head])
                raise ValueError(f"delimiter not found within {max_bytes} bytes")

    def _next_chunk(self) -> Generator:
        """Process-generator: the next chunk, a held one without waiting."""
        if self._held:
            self._held -= 1
            return self.rx._items.popleft()
        chunk = yield self.recv()
        if isinstance(chunk, (bytes, bytearray)) and not chunk:
            raise self._stream_closed()
        return chunk

    def _unread(self, chunks: list) -> None:
        """Put ``chunks`` back at the head of the buffer, held, in order."""
        for chunk in reversed(chunks):
            if len(chunk):
                self.rx._items.appendleft(chunk)
                self._held += 1

    def _stream_closed(self) -> StreamClosed:
        error = self._closed_evt.value if self._closed_evt.triggered else None
        return StreamClosed(str(error or "connection closed"))

    def close(self) -> None:
        """Half-close: queue a FIN after any pending data."""
        if self._fin_seq is not None or self.state == "CLOSED":
            return
        self._fin_seq = self.snd_buf_end
        if self.state == "ESTABLISHED":
            self._pump()

    def abort(self) -> None:
        """Hard close: send RST and drop all state."""
        if self.state != "CLOSED":
            self._send_segment(_RST_FLAGS)
            self._teardown(TcpError("connection reset locally"))

    # -- connection setup ---------------------------------------------------------
    def _start_connect(self) -> None:
        _CONNECTS.inc()
        self.state = "SYN_SENT"
        self.snd_nxt = 1  # SYN consumes sequence 0
        self.snd_una = 0
        self._send_segment(flags=frozenset({"SYN"}), seq=0)
        self._arm_timer()

    def _start_accept(self) -> None:
        _ACCEPTS.inc()
        self.state = "SYN_RCVD"
        self.rcv_nxt = 1
        self.snd_nxt = 1
        self.snd_una = 0
        self._send_segment(flags=frozenset({"SYN", "ACK"}), seq=0)
        self._arm_timer()

    # -- segment transmission -------------------------------------------------------
    def _send_segment(
        self,
        flags: frozenset[str] = _NO_FLAGS,
        seq: int | None = None,
        payload: Payload = b"",
        plen: int = 0,
        register_inflight: bool = False,
    ) -> None:
        """Send one segment; ``plen`` is ``len(payload)``, measured by the caller."""
        if "SYN" in flags and self.state == "SYN_SENT":
            eff_flags = flags
        elif flags:
            eff_flags = flags | _ACK_FLAGS
        else:
            eff_flags = _ACK_FLAGS  # shared set, no per-segment allocation
        if self._ecn_echo:
            eff_flags = eff_flags | _ECE_FLAGS
        if self._cwr_pending:
            eff_flags = eff_flags | _CWR_FLAGS
            self._cwr_pending = False
        if seq is None:
            seq = self.snd_nxt
        sack = self._sack_blocks() if self.ooo else _EMPTY_SACK
        # The app drains the rx queue; receive backlog is not modelled, so
        # the advertised window is the configured one.
        header = unchecked(TCPHeader, (
            self.local_port, self.remote_port, seq, self.rcv_nxt, eff_flags,
            self.recv_window, sack,
        ))
        # The wire size is known here, so the link does not measure it again.
        size = self._hdr_len + plen
        if sack:
            size += header.header_len - 20  # the padded SACK option
        self.node.send_ip_fast(
            self.remote_addr, "tcp", (header,), payload, self.local_addr, 64, None, size
        )
        self.segments_sent += 1
        _SEGMENTS_SENT.value += 1
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "tcp", "tx",
                node=self.node.name, dst_port=self.remote_port,
                seq=seq, flags=sorted(eff_flags), len=plen,
            )
        if register_inflight:
            end = seq + plen + (1 if "FIN" in flags else 0)
            self.inflight.append([seq, end, payload, flags, self.sim._now, 0])

    def _pump(self) -> None:
        """Send as much queued data as the congestion/flow windows allow."""
        if self._fluid_active or self._fluid_want:
            return  # flow-level mode (or draining into it): no new segments
        if self.peer_window == 0:
            # Honor a closed peer window (the old code treated 0 as one MSS
            # and kept transmitting).  If data or a FIN is pending, arm the
            # persist timer so a lost window update cannot deadlock us.
            if (
                not self._persist_armed
                and self.state in ("ESTABLISHED", "FIN_WAIT")
                and (self.snd_buf_end > self.snd_nxt or self._fin_seq is not None)
            ):
                self._persist_start()
            return
        if self.pacing and self.srtt is not None and self.state == "ESTABLISHED":
            # Paced mode: release one segment per timer firing at cwnd/srtt
            # instead of bursting the whole window.  Until the first RTT
            # sample exists there is no rate to pace at — fall through and
            # burst (slow-start's first flight).
            if self._pace_timer is None or not self._pace_timer.active:
                self._pace_send_one()
            return
        window = min(self.cwnd, self.peer_window)
        while self._send_next(min(self.mss, window - (self.snd_nxt - self.snd_una))):
            pass
        if self.snd_una < self.snd_nxt:
            self._arm_timer()

    def _send_next(self, budget: int) -> bool:
        """Send the next segment of new data, at most ``budget`` bytes, or the
        queued FIN once every byte is out; False if there is nothing to send."""
        seq = self.snd_nxt
        available = self.snd_buf_end - seq
        if available > 0:
            if budget <= 0:
                return False
            # _gather stops at a chunk boundary (so never past the buffered
            # bytes) and may return fewer; advance by what it segmented.
            payload, seg_len = self._gather(seq, budget)
            self.snd_nxt = seq + seg_len
            self.bytes_sent += seg_len
            self._send_segment(_NO_FLAGS, seq, payload, seg_len, True)
            return True
        if seq == self._fin_seq and self.state == "ESTABLISHED":
            self.state = "FIN_WAIT"
            self.snd_nxt = seq + 1
            self._send_segment(_FIN_FLAGS, seq, b"", 0, True)
            return True
        return False

    def _gather(self, seq: int, length: int) -> tuple[Payload, int]:
        """Up to ``length`` stream bytes starting at ``seq`` from the send
        buffer (fewer at a chunk boundary), and how many that is."""
        buf = self.snd_buf
        una = self.snd_una
        # Drop chunks that are fully before the window base to bound memory.
        while buf and buf[0][1] <= una:
            buf.popleft()
        for start, end, chunk in buf:
            if start <= seq < end:
                take = min(length, end - seq)
                if isinstance(chunk, VirtualPayload):
                    vp = self._vp_cache
                    if vp.size != take or vp.tag != chunk.tag:
                        vp = self._vp_cache = VirtualPayload(take, chunk.tag)
                    return vp, take
                return _slice_payload(chunk, seq - start, take), take
        raise TcpError(f"send buffer does not cover seq {seq}")

    # -- zero-window persist (RFC 1122 §4.2.2.17) --------------------------------------
    def _persist_start(self) -> None:
        self._persist_armed = True
        self._persist_backoff = max(min(self.rto, PERSIST_MAX), PERSIST_MIN)
        self._persist_rearm(self._persist_backoff)

    def _persist_rearm(self, delay: float) -> None:
        handle = self._persist_timer
        if handle is None:
            self._persist_timer = self.sim.call_later(
                delay, TcpConnection._persist_fired, self
            )
        else:
            handle.rearm(delay)

    def _persist_fired(self) -> None:
        if not self._persist_armed or self.state == "CLOSED":
            return
        if self.peer_window > 0:
            # Window reopened between firings (the reopen normally cancels
            # the timer from _on_segment; this covers a race with teardown).
            self._persist_stop()
            self._pump()
            return
        # Probe: one byte of new data past the window edge, or the FIN once
        # no data is left.  The probe is a real segment (registered in
        # flight) — the elicited ACK carries the peer's current window, and
        # if the window opened the byte is simply the first byte of the
        # resumed stream.
        if RECORDER.enabled and self.snd_buf_end > self.snd_nxt:
            RECORDER.record(
                self.sim.now, "tcp", "zero_window_probe",
                node=self.node.name, seq=self.snd_nxt,
            )
        if not self._send_next(1):
            self._persist_stop()
            return
        self.zero_window_probes += 1
        _ZW_PROBES.inc()
        self._arm_timer()
        self._persist_backoff = min(self._persist_backoff * 2, PERSIST_MAX)
        self._persist_rearm(self._persist_backoff)

    def _persist_stop(self) -> None:
        if not self._persist_armed:
            return
        self._persist_armed = False
        self._persist_backoff = PERSIST_MIN
        if self._persist_timer is not None:
            self._persist_timer.cancel()

    # -- paced transmission ------------------------------------------------------------
    def _pace_send_one(self) -> None:
        """Send at most one segment, then rearm the pacing timer if more remain."""
        if self.state not in ("ESTABLISHED", "FIN_WAIT") or self.peer_window == 0:
            if self.peer_window == 0:
                self._pump()  # route through the persist logic
            return
        window = min(self.cwnd, self.peer_window)
        if self._send_next(min(self.mss, window - (self.snd_nxt - self.snd_una))):
            self._arm_timer()
            if self.snd_buf_end > self.snd_nxt:
                # One segment every srtt/(cwnd/mss): the window spread over an RTT.
                delay = self.srtt * self.mss / max(self.cwnd, self.mss)
                if self._pace_timer is None:
                    self._pace_timer = self.sim.call_later(
                        delay, TcpConnection._pace_send_one, self
                    )
                else:
                    self._pace_timer.rearm(delay)

    # -- timers -----------------------------------------------------------------------
    def _arm_timer(self) -> None:
        # Callback-lane timer, rearmed in place: no generator process, no
        # Event, no per-arm name string.  Runs twice per ACK; a rearm to a
        # later time pushes nothing (see ``TimerHandle.rearm_at``).
        handle = self._rto_timer
        if handle is None:
            self._rto_timer = self.sim.call_later(
                self.rto, TcpConnection._rto_fired, self
            )
        else:
            handle.rearm(self.rto)

    def _cancel_timer(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()

    def _rto_fired(self) -> None:
        if self.state == "CLOSED":
            return
        if self.snd_una >= self.snd_nxt and self.state in ("ESTABLISHED",):
            return  # everything acked meanwhile
        self._on_rto()

    def _on_rto(self) -> None:
        if self.state in ("SYN_SENT", "SYN_RCVD"):
            self._handshake_retx += 1
            if self._handshake_retx > 6:
                self._teardown(TcpError("connection attempt timed out"))
                return
            seq, payload = 0, b""
            if self.state == "SYN_SENT":
                flags = frozenset({"SYN"})
            else:
                flags = frozenset({"SYN", "ACK"})
        elif self.inflight:
            entry = self.inflight[0]
            entry[5] += 1
            if entry[5] > 8:
                self._teardown(TcpError("too many retransmissions"))
                return
            seq, _, payload, flags = entry[:4]
        else:
            return
        # Exponential backoff + collapse the window (RFC 5681).
        flight = max(self.snd_nxt - self.snd_una, self.mss)
        self.ssthresh = max(flight // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.dup_acks = 0
        self._fluid_clean = 0
        self._fluid_want = False  # a timeout while draining aborts the jump
        # Timeout aborts any fast recovery and discards the SACK scoreboard
        # (RFC 2018 §8: the receiver may renege on SACKed data).
        self.in_recovery = False
        self._high_rtx = 0
        if self._sacked:
            self._sacked.clear()
        self.rto = min(self.rto * 2, MAX_RTO)
        self.rtos += 1
        self.segments_retransmitted += 1
        _RETRANSMITS.inc()
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "tcp", "retransmit",
                node=self.node.name, kind="rto", seq=seq, rto=self.rto,
            )
        self._send_segment(flags, seq, payload, len(payload))
        self._arm_timer()

    # -- inbound segment processing ------------------------------------------------------
    def _on_segment(self, tcp: TCPHeader, payload: Payload, ce: bool = False) -> None:
        if self.state == "CLOSED":
            return
        flags = tcp.flags  # bound once; this runs for every delivered segment
        if "RST" in flags:
            self._teardown(TcpError("connection reset by peer"))
            return
        # Capture the previously-advertised window before updating: RFC 5681
        # duplicate-ACK classification needs to know whether this segment
        # changed it (a pure window update is not a dup ACK).
        prev_window = self.peer_window
        self.peer_window = tcp.window

        if self.state == "SYN_SENT":
            if "SYN" in flags and "ACK" in flags and tcp.ack == 1:
                self.rcv_nxt = 1
                self.snd_una = 1
                self.state = "ESTABLISHED"
                self._send_segment()  # pure ACK completes the handshake
                self._established_evt.succeed(self)
                self._pump()
            return

        if self.state == "SYN_RCVD":
            if "ACK" in flags and tcp.ack >= 1:
                self.snd_una = 1
                self.state = "ESTABLISHED"
                self._established_evt.succeed(self)
                self.stack._deliver_accept(self)
                self._pump()
            # fall through: the ACK may carry data too

        plen = len(payload)  # the one measurement of this segment's payload
        if "ACK" in flags:
            # Only an ACK that can change sender state costs a call: one that
            # advances snd_una, may be a duplicate, or carries SACK or ECE.
            una = self.snd_una
            if tcp.ack > una or una < self.snd_nxt or tcp.sack or "ECE" in flags:
                self._process_ack(tcp, plen, prev_window)

        if self._persist_armed and self.peer_window > 0:
            # Window reopened — stop probing and resume normal transmission.
            self._persist_stop()
            if self.state in ("ESTABLISHED", "FIN_WAIT"):
                self._pump()

        # ECN echo state (RFC 3168 subset): CWR from the peer means our ECE
        # was heard — clear it first, so a CE mark on this very segment
        # re-raises the echo for the *next* window.
        if "CWR" in flags:
            self._ecn_echo = False
        if ce:
            self._ecn_echo = True

        fin = "FIN" in flags
        if fin or plen:
            self._process_data(tcp.seq, payload, plen, fin)

    def _process_ack(self, tcp: TCPHeader, plen: int, prev_window: int) -> None:
        ack = tcp.ack
        if ack > self.snd_nxt:
            return  # acks data we never sent; ignore
        if tcp.sack:
            self._register_sack(tcp.sack)
        if "ECE" in tcp.flags:
            self._on_ece()
        if ack > self.snd_una:
            acked = ack - self.snd_una
            # Captured before snd_una moves: RFC 2861-style congestion-window
            # validation needs to know whether the flow was actually
            # cwnd-limited when this window of data was sent.
            flight_before = self.snd_nxt - self.snd_una
            self.snd_una = ack
            self.bytes_acked += acked
            self.dup_acks = 0
            self.rto = min(max(self.rto, MIN_RTO), MAX_RTO)
            # Pop every newly-acked segment; each one never retransmitted
            # is an RTT sample (Karn) for the Jacobson/Karels estimator.
            inflight = self.inflight
            now = self.sim._now
            while inflight and inflight[0][1] <= ack:
                entry = inflight.popleft()
                if entry[5]:
                    continue
                sample = now - entry[4]
                srtt = self.srtt
                if srtt is None:
                    self.srtt = sample
                    self.rttvar = sample / 2
                else:
                    self.rttvar = 0.75 * self.rttvar + 0.25 * abs(srtt - sample)
                    self.srtt = 0.875 * srtt + 0.125 * sample
                self.rto = min(max(self.srtt + 4 * self.rttvar, MIN_RTO), MAX_RTO)
                _RTT.observe(sample)
            if self._sacked:
                self._drop_sacked_below(ack)
            if self.in_recovery:
                # RFC 6582: full vs partial acknowledgment.  ``recover`` was
                # ``snd_nxt`` at recovery entry, so ``ack == recover`` already
                # covers the whole epoch — only a *smaller* ACK is partial.
                if ack >= self.recover or ack >= self.snd_nxt:
                    # Full ACK — deflate to ssthresh and leave recovery.
                    self.in_recovery = False
                    self._high_rtx = 0
                    flight = max(self.snd_nxt - self.snd_una, self.mss)
                    self.cwnd = min(self.ssthresh, flight + self.mss)
                else:
                    # Partial ACK — the next hole is lost too: retransmit it
                    # immediately and deflate by the amount acknowledged.
                    self._partial_retransmit(ack)
                    self.cwnd = max(self.cwnd - acked + self.mss, self.mss)
            elif not self.cwnd_validation or flight_before + self.mss >= self.cwnd:
                # With validation on, a flow that was not using its window
                # (receiver- or application-limited) does not grow it — so a
                # window-limited steady flow pins cwnd exactly (RFC 2861).
                if self.cwnd < self.ssthresh:
                    self.cwnd += min(acked, self.mss)  # slow start
                else:
                    self.cwnd += max(1, self.mss * self.mss // self.cwnd)  # AIMD
            if self.fluid:
                self._fluid_clean += acked
            if self.snd_una >= self.snd_nxt:
                self._cancel_timer()  # everything acked
                if self.state == "FIN_WAIT" and ack > self._fin_seq:
                    self._maybe_finish()
            else:
                self._arm_timer()
            self._pump()
            if self.fluid:
                if self._fluid_want:
                    if self.snd_una >= self.snd_nxt:
                        self._fluid_try_jump()
                elif not self._fluid_active:
                    self._maybe_fluid_enter()
        elif (
            ack == self.snd_una
            and self.snd_una < self.snd_nxt
            and plen == 0
            and tcp.window == prev_window
            and "SYN" not in tcp.flags
            and "FIN" not in tcp.flags
        ):
            # A true duplicate ACK per RFC 5681 §2: no data, no window
            # change, nothing new acknowledged, data still outstanding.
            # (The old code counted *any* ack == snd_una — the peer's data
            # segments in a bidirectional transfer triggered spurious fast
            # retransmits.)
            self.dup_acks += 1
            if not self.in_recovery:
                if self.dup_acks == 3 and self.inflight:
                    self._enter_recovery()
            else:
                # Each further dup ACK means another segment left the
                # network — inflate cwnd and try to fill known SACK holes.
                self.cwnd += self.mss
                if self._sacked:
                    self._sack_retransmit()
                self._pump()

    # -- NewReno fast recovery (RFC 6582) ----------------------------------------------
    def _enter_recovery(self) -> None:
        self.recover = self.snd_nxt
        flight = max(self.snd_nxt - self.snd_una, self.mss)
        self.ssthresh = max(flight // 2, 2 * self.mss)
        self.in_recovery = True
        self._fluid_clean = 0
        self._fluid_want = False  # loss while draining aborts the jump
        self._high_rtx = self.snd_una
        self.fast_recoveries += 1
        _FAST_RECOVERIES.inc()
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "tcp", "fast_recovery",
                node=self.node.name, recover=self.recover,
            )
        self._retransmit_entry(self.inflight[0], "fast")
        # Inflate by the three dup ACKs that signalled the loss.
        self.cwnd = self.ssthresh + 3 * self.mss
        self._arm_timer()

    def _partial_retransmit(self, ack: int) -> None:
        """Retransmit the first unacked, un-SACKed segment after a partial ACK."""
        for entry in self.inflight:
            seq = entry[0]
            if seq < ack:
                continue
            if self._sack_covered(seq, entry[1]):
                continue
            self._retransmit_entry(entry, "partial")
            self._arm_timer()
            return

    def _retransmit_entry(self, entry: list, kind: str) -> None:
        entry[5] += 1
        seq, end, payload, flags = entry[:4]
        self.segments_retransmitted += 1
        _RETRANSMITS.inc()
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "tcp", "retransmit",
                node=self.node.name, kind=kind, seq=seq,
            )
        self._send_segment(flags, seq, payload, len(payload))
        if end > self._high_rtx:
            self._high_rtx = end

    # -- SACK scoreboard (RFC 2018) ----------------------------------------------------
    def _register_sack(self, blocks: tuple) -> None:
        """Merge peer-reported received ranges into the sorted scoreboard."""
        self._fluid_clean = 0  # reordering/loss signal: not a steady flow
        sacked = self._sacked
        una = self.snd_una
        for start, end in blocks:
            if end <= una:
                continue  # stale block below the cumulative ACK
            if end > self.snd_nxt:
                # Bytes never sent: a forged or corrupt block (RFC 2018 §8).
                self.sack_beyond_sent += 1
                _SACK_BEYOND_SENT.value += 1
                continue
            if start < una:
                start = una
            # Insertion + merge keeping ``sacked`` sorted and disjoint.
            merged = False
            for rng in sacked:
                if start <= rng[1] and end >= rng[0]:  # overlaps/abuts
                    if start < rng[0]:
                        rng[0] = start
                    if end > rng[1]:
                        rng[1] = end
                    merged = True
                    break
            if not merged:
                sacked.append([start, end])
        if len(sacked) > 1:
            sacked.sort()
            # Coalesce neighbours that merging may have brought together.
            out = [sacked[0]]
            for rng in sacked[1:]:
                if rng[0] <= out[-1][1]:
                    if rng[1] > out[-1][1]:
                        out[-1][1] = rng[1]
                else:
                    out.append(rng)
            self._sacked = out

    def _drop_sacked_below(self, ack: int) -> None:
        self._sacked = [
            rng if rng[0] >= ack else [ack, rng[1]]
            for rng in self._sacked
            if rng[1] > ack
        ]

    def _sack_covered(self, start: int, end: int) -> bool:
        for s, e in self._sacked:
            if s <= start and end <= e:
                return True
        return False

    def _sack_retransmit(self) -> None:
        """Fill the lowest un-SACKed hole below the highest SACKed byte.

        A hole is only *known* lost once SACKed data sits above it; at most
        one hole is filled per incoming ACK (matching the one-segment-per-ACK
        clocking of fast recovery).
        """
        top = self._sacked[-1][1]  # scoreboard is sorted: highest SACKed byte
        high_rtx = self._high_rtx
        for entry in self.inflight:
            seq, end = entry[0], entry[1]
            if end > top:
                break  # not known-lost: no SACKed data above this hole
            if seq < high_rtx:
                continue  # already retransmitted this recovery
            if self._sack_covered(seq, end):
                continue  # peer has it
            self._retransmit_entry(entry, "sack")
            self._arm_timer()
            return

    # -- ECN (RFC 3168 subset) ---------------------------------------------------------
    def _on_ece(self) -> None:
        """Peer echoed a CE mark: reduce once per window, then signal CWR."""
        if self.snd_una < self._ecn_recover or self.in_recovery:
            return  # already reduced for this window (or recovering from loss)
        flight = max(self.snd_nxt - self.snd_una, self.mss)
        self.ssthresh = max(flight // 2, 2 * self.mss)
        self.cwnd = self.ssthresh
        self._ecn_recover = self.snd_nxt
        self._cwr_pending = True
        self.ecn_reductions += 1
        _ECN_REDUCTIONS.inc()
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "tcp", "ecn_reduction", node=self.node.name,
            )
        self._fluid_clean = 0
        if self._fluid_active:
            self._fluid_exit("ecn")  # congestion: back to per-packet fidelity
        elif self._fluid_want:
            self._fluid_want = False

    def _sack_blocks(self) -> tuple:
        """Receiver side: out-of-order ranges to advertise (ascending)."""
        spans = sorted(
            (seq, seq + len(p) + (1 if fin else 0))
            for seq, (p, fin) in self.ooo.items()
        )
        blocks: list[tuple[int, int]] = []
        for start, end in spans:
            if blocks and start <= blocks[-1][1]:
                if end > blocks[-1][1]:
                    blocks[-1] = (blocks[-1][0], end)
            else:
                blocks.append((start, end))
        return tuple(blocks[:SACK_MAX_BLOCKS])

    # -- fluid fast-forward (flow-level bulk mode) ---------------------------------------
    #
    # Protocol: once a window-limited bulk flow has been steady for
    # FLUID_STABLE_WINDOWS windows, the sender (1) stops emitting new
    # segments and sends an in-band probe announcing its directory id,
    # (2) waits for the pipe to drain (snd_una == snd_nxt) and for the
    # probe to have linked the peer connection object, then (3) advances
    # both endpoints in closed form at min(cwnd, peer_window)/srtt via one
    # rearmed callback timer, charging first-hop link costs per virtual byte.
    # Neither end is a tunnel endpoint.  Any disturbance — loss, ECN echo, a
    # window change, a competing flow on either stack, peer teardown — drops
    # the flow back to packet mode with exactly the sender/receiver state a
    # per-packet run would have at that stream offset.

    def _fluid_eligible(self) -> bool:
        if (
            self.state != "ESTABLISHED"
            or self.node._output_shims  # a tunnel endpoint: see _fluid_try_jump
            or self.in_recovery
            or self._sacked
            or self._ecn_echo
            or self._cwr_pending
            or self._persist_armed
            or self.pacing
            or self.srtt is None
            or self.ooo
        ):
            return False
        wnd = self.peer_window
        # Strictly past the cwnd-validation equilibrium (cwnd > wnd + mss):
        # below it cwnd is still creeping up each ACK, and freezing early
        # would diverge from the per-packet run.
        if wnd <= 0 or self.cwnd <= wnd + self.mss:
            return False
        if self._fluid_clean < FLUID_STABLE_WINDOWS * wnd:
            return False
        remaining = self.snd_buf_end - self.snd_nxt
        if remaining < FLUID_MIN_WINDOWS * wnd or remaining < 4 * self.mss:
            return False
        # Every byte that would be fast-forwarded must be virtual — real
        # bytes always travel as segments.
        for _, end, chunk in self.snd_buf:
            if end <= self.snd_nxt:
                continue
            if not isinstance(chunk, VirtualPayload):
                return False
        return True

    def _maybe_fluid_enter(self) -> None:
        if not self._fluid_eligible():
            return
        self._fluid_want = True
        self._fluid_goal = self.snd_buf_end
        self._fluid_wait_tries = 0
        if self._fluid_peer is None:
            self._fluid_send_probe()
        if self.snd_una >= self.snd_nxt:
            self._fluid_try_jump()

    def _fluid_send_probe(self) -> None:
        """In-band peer discovery: a pure ACK whose meta names our directory id.

        It rides the normal dataplane, so whatever endpoint demultiplexes it
        *is* the peer connection object, address translation included.
        """
        header = TCPHeader(
            self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt,
            _ACK_FLAGS, self.recv_window, _EMPTY_SACK,
        )
        packet = Packet(
            # repro: ignore[PERF001] -- fluid probes fire once per discovery round-trip, not per fluid-advance event; the meta dict is how the peer demultiplexes them
            headers=(header,), payload=b"", meta={"fluid_probe": self._fluid_id}
        )
        self.node.send_ip(self.remote_addr, "tcp", packet, src=self.local_addr)
        self.segments_sent += 1
        _SEGMENTS_SENT.value += 1
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "tcp", "fluid_probe",
                node=self.node.name, dst_port=self.remote_port,
            )

    def _on_fluid_probe(self, sender_id: int) -> None:
        if self.state not in ("ESTABLISHED", "FIN_WAIT"):
            return
        conns = self.sim.services.get("tcp.fluid_conns")
        sender = None if conns is None else conns.get(sender_id)
        if sender is None or sender is self or sender.sim is not self.sim:
            return
        sender._fluid_peer = self
        self._fluid_peer = sender  # back-link severed on either teardown

    def _fluid_try_jump(self) -> None:
        if not self._fluid_want or self.state != "ESTABLISHED":
            return
        peer = self._fluid_peer
        if peer is None:
            # Probe (or its link-back) still in flight: check again in an
            # RTT, give up after a few tries.
            self._fluid_wait_tries += 1
            if self._fluid_wait_tries > FLUID_PROBE_RETRIES:
                self._fluid_abort()
                return
            if self._fluid_wait_tries > 1:
                self._fluid_send_probe()
            self._fluid_arm(max(self.srtt or 0.0, 0.01))
            return
        # Neither end may be a tunnel endpoint: HIP, the SSL VPN and Teredo
        # charge their per-packet costs on packets a fluid flow never sends.
        if (
            peer.state != "ESTABLISHED"
            or peer.node._output_shims
            or peer.sim is not self.sim
            or peer.rcv_nxt != self.snd_nxt
            or peer.ooo
            or peer._fluid_active
        ):
            self._fluid_abort()
            return
        wnd = min(self.cwnd, self.peer_window)
        if wnd <= 0 or self.srtt is None:
            self._fluid_abort()
            return
        self._fluid_want = False
        self._fluid_active = True
        self._fluid_rate = wnd / self.srtt
        self._fluid_entry_flows = len(self.stack._connections) + len(
            peer.stack._connections
        )
        self._fluid_entry_wnd = self.peer_window
        self.fluid_enters += 1
        _FLUID_ENTERS.inc()
        self.fluid_log.append(
            ("enter", self.sim.now, self.snd_nxt, self.cwnd, self.bytes_acked)
        )
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "tcp", "fluid_enter",
                node=self.node.name, dst_port=self.remote_port,
                seq=self.snd_nxt, rate_bps=self._fluid_rate * 8.0,
            )
        self._fluid_schedule()

    def _fluid_abort(self) -> None:
        """Leave the drain state without having jumped; resume packet mode."""
        self._fluid_want = False
        self._fluid_clean = 0
        if self.state in ("ESTABLISHED", "FIN_WAIT"):
            self._pump()

    def _fluid_arm(self, delay: float) -> None:
        handle = self._fluid_timer
        if handle is None:
            self._fluid_timer = self.sim.call_later(
                delay, TcpConnection._fluid_fired, self
            )
        else:
            handle.rearm(delay)

    def _fluid_schedule(self) -> None:
        remaining = self._fluid_goal - self.snd_nxt
        chunk = min(remaining, max(int(self._fluid_rate * FLUID_CHUNK_S), self.mss))
        self._fluid_chunk = chunk
        self._fluid_arm(chunk / self._fluid_rate)

    def _fluid_fired(self) -> None:
        if self._fluid_active:
            self._fluid_advance()
        elif self._fluid_want:
            if self.snd_una >= self.snd_nxt:
                self._fluid_try_jump()
            # else: still draining; the ACK path retries the jump.

    def _fluid_advance(self) -> None:
        if self.state != "ESTABLISHED":
            return
        peer = self._fluid_peer
        if (
            peer is None
            or peer.state != "ESTABLISHED"
            or (
                self.fluid_flow_guard
                and len(self.stack._connections) + len(peer.stack._connections)
                != self._fluid_entry_flows
            )
            or self.peer_window != self._fluid_entry_wnd
        ):
            self._fluid_exit("disturbed")
            return
        n = min(self._fluid_chunk, self._fluid_goal - self.snd_nxt)
        if n <= 0:
            self._fluid_exit("complete")
            return
        # Deliver the stream slice(s) to the peer's receiver exactly as
        # per-packet _accept_data would, minus the segment events.
        seq = self.snd_nxt
        end = seq + n
        while seq < end:
            piece, n_piece = self._gather(seq, end - seq)
            peer._deliver(piece)
            seq += n_piece
        self.snd_nxt = end
        self.snd_una = end
        self.bytes_sent += n
        self.bytes_acked += n
        self.fluid_bytes += n
        peer.rcv_nxt = end
        peer.bytes_received += n
        _FLUID_BYTES.value += n
        self._fluid_charge(n)
        # Trim delivered chunks (same drop rule as _gather's).
        buf = self.snd_buf
        while buf and buf[0][1] <= self.snd_una:
            buf.popleft()
        if self.snd_nxt < self._fluid_goal:
            self._fluid_schedule()
        else:
            self._fluid_exit("complete")

    def _fluid_charge(self, n: int) -> None:
        """Charge the first-hop link costs the skipped segments would have paid."""
        segs = (n + self.mss - 1) // self.mss
        # First-hop wire accounting on the sender's egress.
        iface = self.node.routes.lookup(self.remote_addr)
        if iface is not None and iface._endpoint is not None:
            iface._endpoint.account_fluid(n, segs)

    def _fluid_exit(self, why: str) -> None:
        if not self._fluid_active:
            return
        self._fluid_active = False
        self._fluid_clean = 0  # require fresh stability before re-entering
        self.fluid_exits += 1
        _FLUID_EXITS.inc()
        self.fluid_log.append(
            ("exit:" + why, self.sim.now, self.snd_nxt, self.cwnd, self.bytes_acked)
        )
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "tcp", "fluid_exit",
                node=self.node.name, dst_port=self.remote_port,
                seq=self.snd_nxt, why=why,
            )
        if self._fluid_timer is not None:
            self._fluid_timer.cancel()
        if self.state == "ESTABLISHED":
            self._pump()  # resume per-packet transmission (FIN included)

    def _process_data(self, seq: int, payload: Payload, plen: int, fin: bool) -> None:
        rcv_nxt = self.rcv_nxt
        if seq > rcv_nxt:
            if seq > rcv_nxt + self.recv_window:
                # Starts beyond the window: unacceptable (RFC 9293 §3.10.7.4).
                # Neither buffered nor SACKed; the ACK restates rcv_nxt.
                self.rx_beyond_window += 1
                _RX_BEYOND_WINDOW.value += 1
            else:
                self.ooo[seq] = (payload, fin)
            self._ack_now()  # immediate dup ACK (with SACK blocks) signals the gap
            return
        if seq + plen + (1 if fin else 0) <= rcv_nxt:
            self._send_segment()  # pure duplicate; re-ACK
            return
        # In-order, possibly overlapping data already delivered (SACK
        # retransmits and zero-window probes produce real overlap): trim the
        # payload to start at rcv_nxt so bytes are never double-counted.
        if seq < rcv_nxt:
            trim = rcv_nxt - seq
            if trim >= plen:
                payload, plen = b"", 0  # only the FIN is new
            else:
                plen -= trim
                payload = _slice_payload(payload, trim, plen)
        had_ooo = bool(self.ooo)
        self._accept_data(payload, plen, fin)
        # Pull any queued out-of-order continuations, trimming overlaps.
        ooo = self.ooo
        while ooo:
            nxt = self.rcv_nxt
            if nxt in ooo:
                nxt_payload, nxt_fin = ooo.pop(nxt)
                self._accept_data(nxt_payload, len(nxt_payload), nxt_fin)
                continue
            # No exact match: look for a stored segment straddling rcv_nxt
            # (deterministic: dict iteration is insertion-ordered).
            straddle = None
            for s, (p, f) in ooo.items():
                if s < nxt:
                    straddle = (s, p, f)
                    break
            if straddle is None:
                break
            s, p, f = straddle
            del ooo[s]
            end = s + len(p) + (1 if f else 0)
            if end <= nxt:
                continue  # fully stale; drop
            trim = nxt - s
            plen = max(len(p) - trim, 0)
            self._accept_data(_slice_payload(p, trim, plen) if plen else b"", plen, f)
        if fin or had_ooo:
            self._ack_now()
            return
        self._delack_pending += 1
        if self._delack_pending >= 2:
            self._ack_now()
        elif not self._delack_timer_armed:
            self._delack_timer_armed = True
            handle = self._delack_handle
            if handle is None:
                self._delack_handle = self.sim.call_later(
                    DELACK_TIMEOUT, TcpConnection._delack_fired, self
                )
            else:
                handle.rearm(DELACK_TIMEOUT)

    def _ack_now(self) -> None:
        self._delack_pending = 0
        self._send_segment()  # cumulative ACK

    def _delack_fired(self) -> None:
        self._delack_timer_armed = False
        if self._delack_pending and self.state not in ("CLOSED",):
            self._ack_now()

    def _accept_data(self, payload: Payload, plen: int, fin: bool) -> None:
        if plen:
            self.rcv_nxt += plen
            self.bytes_received += plen
            self._deliver(payload)
        if fin:
            self.rcv_nxt += 1
            self._peer_fin_seen = True
            self._deliver(b"")  # EOF marker
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        """Close fully once our FIN is acked and the peer's FIN arrived."""
        fin_seq = self._fin_seq
        if self._peer_fin_seen and fin_seq is not None and self.snd_una > fin_seq:
            self._teardown(None)

    def _teardown(self, error: TcpError | None) -> None:
        if self.state == "CLOSED":
            return
        self.state = "CLOSED"
        self._cancel_timer()
        if self._delack_handle is not None:
            # LIF001 catch: a pending delayed-ACK timer survived teardown,
            # keeping the closed connection live on the heap until it fired.
            self._delack_handle.cancel()
            self._delack_timer_armed = False
        self._persist_stop()
        if self._pace_timer is not None:
            self._pace_timer.cancel()
        if self._fluid_timer is not None:
            self._fluid_timer.cancel()
        self._fluid_active = False
        self._fluid_want = False
        if self._fluid_id:
            conns = self.sim.services.get("tcp.fluid_conns")
            if conns is not None:
                conns.pop(self._fluid_id, None)
        peer = self._fluid_peer
        if peer is not None:
            self._fluid_peer = None
            if peer._fluid_peer is self:
                peer._fluid_peer = None
                if peer._fluid_active:
                    peer._fluid_exit("peer_closed")
        self.stack._forget(self)
        if error is not None:
            _FAILURES.inc()
            if RECORDER.enabled:
                RECORDER.record(
                    self.sim.now, "tcp", "teardown",
                    node=self.node.name, dst_port=self.remote_port, error=str(error),
                )
        if not self._established_evt.triggered:
            self._established_evt.fail(error or TcpError("closed before established"))
        if not self._closed_evt.triggered:
            self._closed_evt.succeed(error)
        if error is not None and not self._peer_fin_seen:
            self._deliver(b"")  # unblock readers with EOF (the stream ends once)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TcpConnection {self.local_addr}:{self.local_port} -> "
            f"{self.remote_addr}:{self.remote_port} {self.state}>"
        )


class TcpListener:
    """Passive socket: queue of established inbound connections."""

    def __init__(
        self,
        stack: "TcpStack",
        port: int,
        recv_window: int,
        mss: int,
        fluid: bool = False,
        fluid_flow_guard: bool = True,
    ) -> None:
        self.stack = stack
        self.port = port
        self.recv_window = recv_window
        self.mss = mss
        self.fluid = fluid
        self.fluid_flow_guard = fluid_flow_guard
        self.backlog = Queue(stack.node.sim, capacity=128)

    def accept(self):
        """Event yielding the next ESTABLISHED TcpConnection."""
        return self.backlog.get()

    def close(self) -> None:
        self.stack._listeners.pop(self.port, None)


class TcpStack:
    """Per-node TCP engine."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self._connections: dict[tuple, TcpConnection] = {}
        self._listeners: dict[int, TcpListener] = {}
        #: Refcount of live connections per local port — the ephemeral
        #: allocator must not hand out a port that still keys a connection
        #: (the demux tuple would collide).
        self._local_ports: dict[int, int] = {}
        self._next_ephemeral = 33000
        node.register_protocol("tcp", self._on_packet, TCPHeader)
        self.rx_unmatched = 0

    # -- API ----------------------------------------------------------------------
    def listen(
        self,
        port: int,
        recv_window: int = DEFAULT_WINDOW,
        mss: int = DEFAULT_MSS,
        fluid: bool = False,
        fluid_flow_guard: bool = True,
    ) -> TcpListener:
        if port in self._listeners:
            raise OSError(f"TCP port {port} already listening on {self.node.name}")
        listener = TcpListener(self, port, recv_window, mss, fluid=fluid,
                               fluid_flow_guard=fluid_flow_guard)
        self._listeners[port] = listener
        return listener

    def connect(
        self,
        remote_addr: IPAddress,
        remote_port: int,
        local_addr: IPAddress | None = None,
        recv_window: int = DEFAULT_WINDOW,
        mss: int = DEFAULT_MSS,
        pacing: bool = False,
        fluid: bool = False,
        fluid_flow_guard: bool = True,
    ) -> TcpConnection:
        """Initiate a connection; wait on ``conn.established`` to use it."""
        if local_addr is None:
            local_addr = self.node._pick_source(remote_addr)
            if local_addr is None:
                raise TcpError(f"no route to {remote_addr}")
        local_port = self._alloc_ephemeral()
        conn = TcpConnection(
            self, local_addr, local_port, remote_addr, remote_port,
            mss=mss, recv_window=recv_window, pacing=pacing,
            fluid=fluid, fluid_flow_guard=fluid_flow_guard,
        )
        self._connections[self._key(local_port, remote_addr, remote_port)] = conn
        self._local_ports[local_port] = self._local_ports.get(local_port, 0) + 1
        conn._start_connect()
        return conn

    def open_connection(self, remote_addr: IPAddress, remote_port: int, **kw) -> Generator:
        """Process-generator: connect and wait until established."""
        conn = self.connect(remote_addr, remote_port, **kw)
        yield conn.established
        return conn

    # -- internals ---------------------------------------------------------------------
    @staticmethod
    def _key(local_port: int, remote_addr: IPAddress, remote_port: int) -> tuple:
        return (local_port, remote_addr.family, remote_addr.value, remote_port)

    def _alloc_ephemeral(self) -> int:
        # Skip ports still held by live connections or listeners: handing a
        # long-lived connection's port out twice would corrupt the demux key.
        in_use = self._local_ports
        listeners = self._listeners
        for _ in range(65536 - 33000):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = 33000
            if not in_use.get(port) and port not in listeners:
                return port
        raise TcpError("ephemeral port space exhausted")

    def _forget(self, conn: TcpConnection) -> None:
        removed = self._connections.pop(
            self._key(conn.local_port, conn.remote_addr, conn.remote_port), None
        )
        if removed is not None:
            port = conn.local_port
            count = self._local_ports.get(port, 0) - 1
            if count > 0:
                self._local_ports[port] = count
            else:
                self._local_ports.pop(port, None)

    def _deliver_accept(self, conn: TcpConnection) -> None:
        listener = self._listeners.get(conn.local_port)
        if listener is not None:
            listener.backlog.try_put(conn)

    def _on_packet(self, node: "Node", packet: Packet, iface: "Interface | None") -> None:
        # Index the header stack in place (this runs once per delivered
        # segment); Node dispatch guarantees headers[1] is a TCPHeader.
        headers = packet.headers
        ip = headers[0]
        tcp = headers[1]
        body_payload = packet.payload
        src = ip.src
        key = (tcp.dst_port, src.family, src.value, tcp.src_port)  # self._key, inlined per segment
        conn = self._connections.get(key)
        if conn is not None:
            meta = packet.meta
            if meta:
                probe = meta.get("fluid_probe")
                if probe:
                    conn._on_fluid_probe(probe)
            conn._on_segment(tcp, body_payload, True if meta and meta.get("ce") else False)
            return
        if tcp.has("SYN") and not tcp.has("ACK"):
            listener = self._listeners.get(tcp.dst_port)
            if listener is not None:
                conn = TcpConnection(
                    self, ip.dst, tcp.dst_port, ip.src, tcp.src_port,
                    mss=listener.mss, recv_window=listener.recv_window,
                    fluid=listener.fluid,
                    fluid_flow_guard=listener.fluid_flow_guard,
                )
                self._connections[key] = conn
                self._local_ports[tcp.dst_port] = (
                    self._local_ports.get(tcp.dst_port, 0) + 1
                )
                conn._start_accept()
                return
        self.rx_unmatched += 1
        if not tcp.has("RST"):
            # Refuse with RST per RFC 793 §3.4 reset generation: if the
            # offending segment carried an ACK, the reset takes its seq from
            # that ACK; otherwise seq is 0 and the reset ACKs the segment so
            # the peer can match it (the old code used tcp.ack even for
            # ACK-less segments — garbage/zero seq on the wire).
            if tcp.has("ACK"):
                rst = TCPHeader(
                    src_port=tcp.dst_port, dst_port=tcp.src_port,
                    seq=tcp.ack, ack=0, flags=_RST_FLAGS,
                )
            else:
                seg_len = (
                    len(body_payload)
                    + (1 if tcp.has("SYN") else 0)
                    + (1 if tcp.has("FIN") else 0)
                )
                rst = TCPHeader(
                    src_port=tcp.dst_port, dst_port=tcp.src_port,
                    seq=0, ack=tcp.seq + seg_len, flags=_RST_ACK_FLAGS,
                )
            node.send_ip(ip.src, "tcp", Packet(headers=(rst,)), src=ip.dst)
