"""NewReno fast recovery, SACK scoreboard, ECN echo, zero-window persist.

These tests drive one real :class:`TcpConnection` against a *scripted* peer:
a bare node whose ``tcp`` protocol handler records every segment and lets the
test inject hand-crafted ACKs (duplicate ACKs, SACK blocks, zero windows,
ECE/CWR).  That makes the sender-side state machine observable step by step
without a second stack's behaviour in the way.
"""

import pytest

from repro.net.addresses import ipv4, prefix
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet, TCPHeader
from repro.net.tcp import TcpError, TcpStack
from repro.net.topology import lan_pair

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")
MSS = 100  # small segments keep sequence arithmetic readable


class FakePeer:
    """Scripted TCP endpoint: records inbound segments, sends crafted replies."""

    def __init__(self, sim, node, addr, remote):
        self.sim = sim
        self.node = node
        self.addr = addr
        self.remote = remote
        self.segments: list[tuple[TCPHeader, object]] = []
        node.register_protocol("tcp", self._on_packet)

    def _on_packet(self, node, packet, iface):
        tcp = packet.find(TCPHeader)
        self.segments.append((tcp, packet.payload))

    def reply(self, flags=("ACK",), seq=0, ack=0, window=65535, payload=b"",
              sack=()):
        client = self.segments[0][0]
        hdr = TCPHeader(
            src_port=80, dst_port=client.src_port, seq=seq, ack=ack,
            flags=frozenset(flags), window=window, sack=tuple(sack),
        )
        self.node.send_ip(self.remote, "tcp",
                          Packet(headers=(hdr,), payload=payload),
                          src=self.addr)

    def data_seqs(self):
        """Sequence numbers of every non-empty data segment seen, in order."""
        return [t.seq for t, p in self.segments if len(p)]


@pytest.fixture
def scripted(sim):
    """(conn, peer): an ESTABLISHED connection facing the scripted peer."""
    a, b = Node(sim, "a"), Node(sim, "b")
    link = Link(sim, bandwidth_bps=1e9, delay_s=1e-3)
    ia = a.add_interface("eth0", A)
    ib = b.add_interface("eth0", B)
    link.connect(ia, ib)
    a.routes.add(prefix("10.0.0.0/24"), ia)
    b.routes.add(prefix("10.0.0.0/24"), ib)
    ta = TcpStack(a)
    peer = FakePeer(sim, b, B, A)
    conn = ta.connect(B, 80, mss=MSS)
    sim.run(until=sim.now + 0.01)
    peer.reply(flags=("SYN", "ACK"), seq=0, ack=1)
    sim.run(until=sim.now + 0.01)
    assert conn.state == "ESTABLISHED"
    return conn, peer


def _settle(sim, dt=0.01):
    sim.run(until=sim.now + dt)


class TestDupAckClassification:
    """RFC 5681 §2: only payload-less, window-unchanged ACKs are duplicates."""

    def test_peer_data_segments_are_not_dup_acks(self, sim, scripted):
        conn, peer = scripted
        conn.cwnd = 10 * MSS
        conn.write(b"x" * 500)
        _settle(sim)
        assert conn.snd_nxt == 501
        # Peer sends its own data; each segment repeats ack == snd_una.
        for i in range(4):
            peer.reply(seq=1 + i, ack=1, payload=b"z")
            _settle(sim)
        assert conn.dup_acks == 0
        assert conn.segments_retransmitted == 0
        assert not conn.in_recovery

    def test_window_update_is_not_a_dup_ack(self, sim, scripted):
        conn, peer = scripted
        conn.cwnd = 10 * MSS
        conn.write(b"x" * 500)
        _settle(sim)
        for win in (60000, 50000, 40000):
            peer.reply(ack=1, window=win)
            _settle(sim)
        assert conn.dup_acks == 0
        assert conn.segments_retransmitted == 0

    def test_true_dup_acks_still_trigger_fast_retransmit(self, sim, scripted):
        conn, peer = scripted
        conn.cwnd = 10 * MSS
        conn.write(b"x" * 500)
        _settle(sim)
        for _ in range(3):
            peer.reply(ack=1)
            _settle(sim)
        assert conn.in_recovery
        assert conn.segments_retransmitted == 1
        # The retransmission is the head-of-line segment.
        assert peer.data_seqs().count(1) == 2


class TestNewRenoRecovery:
    def _fill(self, sim, conn, nbytes=1000):
        conn.cwnd = nbytes
        conn.write(b"x" * nbytes)
        _settle(sim)
        assert conn.snd_nxt == 1 + nbytes

    def test_enter_recovery_sets_state_and_inflates(self, sim, scripted):
        conn, peer = scripted
        self._fill(sim, conn)
        for _ in range(3):
            peer.reply(ack=1)
        _settle(sim)
        assert conn.in_recovery
        assert conn.recover == conn.snd_nxt
        assert conn.ssthresh == 500  # half of the 1000-byte flight
        assert conn.cwnd == conn.ssthresh + 3 * MSS
        assert conn.fast_recoveries == 1

    def test_dup_acks_in_recovery_inflate_cwnd(self, sim, scripted):
        conn, peer = scripted
        self._fill(sim, conn)
        for _ in range(3):
            peer.reply(ack=1)
        _settle(sim)
        inflated = conn.cwnd
        peer.reply(ack=1)
        _settle(sim)
        assert conn.cwnd == inflated + MSS

    def test_partial_ack_retransmits_next_hole_and_stays(self, sim, scripted):
        conn, peer = scripted
        self._fill(sim, conn)
        for _ in range(3):
            peer.reply(ack=1)
        _settle(sim)
        # Partial ACK: first segment arrived, hole at 101 remains.
        peer.reply(ack=101)
        _settle(sim)
        assert conn.in_recovery  # partial ACK does not exit recovery
        assert peer.data_seqs().count(101) == 2  # hole retransmitted at once
        assert conn.snd_una == 101

    def test_full_ack_deflates_and_exits(self, sim, scripted):
        conn, peer = scripted
        self._fill(sim, conn)
        for _ in range(3):
            peer.reply(ack=1)
        _settle(sim)
        recover = conn.recover
        peer.reply(ack=recover)
        _settle(sim)
        assert not conn.in_recovery
        assert conn.cwnd <= conn.ssthresh  # deflated, no lingering inflation
        assert conn.snd_una == recover


class TestSackScoreboard:
    def test_sack_blocks_populate_scoreboard(self, sim, scripted):
        conn, peer = scripted
        conn.cwnd = 1000
        conn.write(b"x" * 1000)
        _settle(sim)
        peer.reply(ack=1, sack=((101, 201), (301, 401)))
        _settle(sim)
        assert conn._sacked == [[101, 201], [301, 401]]
        peer.reply(ack=1, sack=((201, 301),))  # fills the gap -> one range
        _settle(sim)
        assert conn._sacked == [[101, 401]]

    def test_selective_retransmit_fills_known_holes(self, sim, scripted):
        conn, peer = scripted
        conn.cwnd = 1000
        conn.write(b"x" * 1000)
        _settle(sim)
        # Three dup ACKs SACKing 101-201: recovery, head (seq 1) retransmitted.
        for _ in range(3):
            peer.reply(ack=1, sack=((101, 201),))
        _settle(sim)
        assert conn.in_recovery
        assert peer.data_seqs().count(1) == 2
        # Further dup ACK SACKs 301-501: the 201-301 hole is now known-lost
        # (SACKed data above it) and must be selectively retransmitted.
        peer.reply(ack=1, sack=((101, 201), (301, 501)))
        _settle(sim)
        assert peer.data_seqs().count(201) == 2
        # Segment 101-201 was SACKed: never retransmitted.
        assert peer.data_seqs().count(101) == 1

    def test_unsacked_tail_above_sacked_data_not_retransmitted(self, sim, scripted):
        conn, peer = scripted
        conn.cwnd = 1000
        conn.write(b"x" * 1000)
        _settle(sim)
        for _ in range(3):
            peer.reply(ack=1, sack=((101, 201),))
        _settle(sim)
        # No SACKed data above 901: the tail is not known-lost, only the
        # head retransmission should have happened.
        assert peer.data_seqs().count(901) == 1

    def test_rto_clears_scoreboard(self, sim, scripted):
        conn, peer = scripted
        conn.cwnd = 1000
        conn.write(b"x" * 1000)
        _settle(sim)
        peer.reply(ack=1, sack=((101, 201),))
        _settle(sim)
        assert conn._sacked
        sim.run(until=sim.now + 3.0)  # let the RTO fire, no more ACKs
        assert conn._sacked == []  # receiver may renege: scoreboard dropped
        assert not conn.in_recovery

    def test_receiver_advertises_merged_ooo_ranges(self, sim, scripted):
        conn, peer = scripted
        # Deliver out-of-order data *to* the connection: 201-301 and 401-501.
        peer.reply(seq=201, ack=1, payload=b"a" * 100)
        peer.reply(seq=401, ack=1, payload=b"b" * 100)
        _settle(sim)
        sacks = [t.sack for t, _ in peer.segments if t.sack]
        assert sacks, "expected dup ACKs carrying SACK blocks"
        assert sacks[-1] == ((201, 301), (401, 501))


class TestEcn:
    def test_ce_mark_is_echoed_until_cwr(self, sim, scripted):
        conn, peer = scripted
        hdr = TCPHeader(src_port=80, dst_port=conn.local_port,
                        seq=1, ack=conn.snd_nxt, flags=frozenset({"ACK"}))
        conn._on_segment(hdr, b"", ce=True)
        assert conn._ecn_echo
        before = len(peer.segments)
        conn.write(b"q" * 10)
        _settle(sim)
        assert all("ECE" in t.flags for t, _ in peer.segments[before:])
        # Peer acknowledges the reduction with CWR: echo stops.
        cwr = TCPHeader(src_port=80, dst_port=conn.local_port,
                        seq=1, ack=conn.snd_nxt, flags=frozenset({"ACK", "CWR"}))
        conn._on_segment(cwr, b"")
        assert not conn._ecn_echo

    def test_ece_reduces_cwnd_once_per_window(self, sim, scripted):
        conn, peer = scripted
        conn.cwnd = 1000
        conn.write(b"x" * 1000)
        _settle(sim)
        peer.reply(flags=("ACK", "ECE"), ack=1)
        _settle(sim)
        assert conn.ecn_reductions == 1
        assert conn.cwnd == conn.ssthresh == 500
        assert conn._cwr_pending or any(
            "CWR" in t.flags for t, _ in peer.segments
        )
        # A second ECE within the same window must not reduce again.
        peer.reply(flags=("ACK", "ECE"), ack=101)
        _settle(sim)
        assert conn.ecn_reductions == 1

    def test_red_threshold_marks_and_sender_reduces(self, sim):
        """End to end: deep standing queue -> CE marks -> ECE echo -> cwnd cut."""
        a, b = lan_pair(sim, "a", "b", bandwidth_bps=5e6, delay_s=2e-3,
                        ecn_threshold=8)
        ta, tb = TcpStack(a), TcpStack(b)
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(400_000)

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            from repro.net.packet import VirtualPayload

            conn.write(VirtualPayload(400_000))
            got["conn"] = conn

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        assert len(got["data"]) == 400_000
        ep = a.interface("eth0")._endpoint
        assert ep.ecn_marks > 0
        assert got["conn"].ecn_reductions > 0
        # ECN kept the transfer loss-free: marks instead of overflow drops.
        assert got["conn"].segments_retransmitted == 0


class TestZeroWindowPersist:
    def test_no_transmission_into_closed_window(self, sim, scripted):
        conn, peer = scripted
        conn.write(b"x" * 500)  # cwnd 2*MSS: segments 1 and 101 leave
        _settle(sim)
        assert conn.snd_nxt == 201
        peer.reply(ack=201, window=0)  # acks everything, closes the window
        _settle(sim)
        assert conn.snd_nxt == 201  # old code would keep sending one MSS
        assert conn._persist_armed

    def test_probe_fires_and_window_reopen_resumes(self, sim, scripted):
        conn, peer = scripted
        conn.write(b"x" * 500)
        _settle(sim)
        peer.reply(ack=201, window=0)
        _settle(sim)
        sim.run(until=sim.now + 0.6)  # first persist backoff (0.5 s) elapses
        assert conn.zero_window_probes == 1
        assert conn.snd_nxt == 202  # exactly one probe byte past the edge
        # Probe response reopens the window: the stream resumes (ACK-clock
        # the rest out — cwnd collapsed while the window was closed).
        peer.reply(ack=202, window=65535)
        _settle(sim)
        assert not conn._persist_armed
        for _ in range(6):
            peer.reply(ack=conn.snd_nxt)
            _settle(sim)
        assert conn.snd_nxt == 501

    def test_probe_backoff_is_exponential(self, sim, scripted):
        conn, peer = scripted
        conn.write(b"x" * 500)
        _settle(sim)
        peer.reply(ack=201, window=0)
        _settle(sim)
        first = conn._persist_backoff
        sim.run(until=sim.now + first + 0.1)
        assert conn.zero_window_probes == 1
        assert conn._persist_backoff == first * 2

    def test_close_into_closed_window_sends_the_fin_as_the_probe(self, sim, scripted):
        conn, peer = scripted
        conn.write(b"x" * 200)
        _settle(sim)
        peer.reply(ack=201, window=0)  # all data acked, window closed
        _settle(sim)
        conn.close()  # nothing left but the FIN, and no window to send it in
        _settle(sim)
        assert conn._persist_armed and conn.snd_nxt == 201
        first = conn._persist_backoff
        sim.run(until=sim.now + first + 0.1)
        assert conn.zero_window_probes == 1
        fins = [t.seq for t, p in peer.segments if "FIN" in t.flags]
        assert fins == [201]
        assert (conn.state, conn.snd_nxt) == ("FIN_WAIT", 202)
        assert conn._rto_timer.active
        assert conn._persist_backoff == first * 2

    def test_zero_window_stall_and_resume_end_to_end(self, sim):
        """Receiver closes its window mid-transfer, reopens later; the
        sender must stall (not blast into the closed window), probe, and
        complete the transfer once reopened."""
        a, b = lan_pair(sim, "a", "b")
        ta, tb = TcpStack(a), TcpStack(b)
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            first = yield conn.recv()
            total = len(first)
            conn.recv_window = 0  # advertise zero from the next ACK on
            yield sim.timeout(2.0)
            conn.recv_window = 65535
            while total < 100_000:
                chunk = yield conn.recv()
                total += len(chunk)
            got["total"] = total

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            from repro.net.packet import VirtualPayload

            conn.write(VirtualPayload(100_000))
            got["conn"] = conn

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        assert got["total"] == 100_000
        assert got["conn"].zero_window_probes >= 1


class TestPacing:
    def test_paced_close_sends_the_fin_after_the_last_segment(self, sim, scripted):
        conn, peer = scripted
        conn.pacing = True
        conn.write(b"x" * 100)  # no RTT sample yet: the first flight bursts
        _settle(sim)
        peer.reply(ack=101)
        _settle(sim)
        assert conn.srtt is not None  # paced from here on
        conn.write(b"y" * 300)
        conn.close()
        _settle(sim, 0.05)  # the pacer drains the buffer; the RTO (>= 0.2 s) waits
        assert peer.data_seqs() == [1, 101, 201, 301]
        assert not any("FIN" in t.flags for t, _ in peer.segments)
        peer.reply(ack=401)  # the ACK's pump hands the FIN to the pacer
        _settle(sim)
        last, payload = peer.segments[-1]
        assert "FIN" in last.flags and last.seq == 401 and not len(payload)
        assert (conn.state, conn.snd_nxt) == ("FIN_WAIT", 402)
        assert conn._rto_timer.active

    def test_paced_transfer_completes_and_spreads_segments(self, sim):
        a, b = lan_pair(sim, "a", "b", bandwidth_bps=1e9, delay_s=2e-3)
        ta, tb = TcpStack(a), TcpStack(b)
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(200_000)

        def client():
            conn = yield sim.process(
                ta.open_connection(B, 80, pacing=True)
            )
            from repro.net.packet import VirtualPayload

            conn.write(VirtualPayload(200_000))
            got["conn"] = conn

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        assert len(got["data"]) == 200_000
        assert got["conn"].pacing
