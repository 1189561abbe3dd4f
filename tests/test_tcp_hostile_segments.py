"""Segments no honest peer sends: data far beyond the receive window, and
SACK blocks for bytes the sender never sent.

Each drives one real :class:`TcpConnection` against the scripted peer of
``test_net_tcp_newreno`` and checks the connection's state and the segments
it answers with.  Neither defence is an ``assert``, so CI runs this file
under ``python -O`` too.
"""

from repro.metrics import METRICS
from tests.test_net_tcp_newreno import MSS, _settle, scripted  # noqa: F401 — fixture

_RX_BEYOND = METRICS.counter("tcp.rx_beyond_window")
_SACK_BEYOND = METRICS.counter("tcp.sack_beyond_sent")


def _acks_after(peer, before):
    """Segments the connection sent since ``before``, as headers."""
    return [t for t, _ in peer.segments[before:]]


class TestDataBeyondWindow:
    """RFC 9293 §3.10.7.4: a segment starting beyond rcv_nxt + RCV.WND is
    not acceptable; the receiver drops it and answers with an ACK."""

    def test_far_segment_is_dropped_not_buffered_or_sacked(self, sim, scripted):
        conn, peer = scripted
        counted = _RX_BEYOND.value
        far = conn.rcv_nxt + 10**9
        before = len(peer.segments)
        peer.reply(seq=far, ack=1, payload=b"z" * 1000)
        _settle(sim)
        assert conn.ooo == {}
        assert conn._sack_blocks() == ()
        assert conn.rx_beyond_window == 1
        assert _RX_BEYOND.value == counted + 1
        # An immediate ACK restates rcv_nxt and advertises no SACK block.
        acks = _acks_after(peer, before)
        assert len(acks) == 1
        assert acks[0].ack == conn.rcv_nxt and acks[0].sack == ()

    def test_one_past_the_edge_is_dropped(self, sim, scripted):
        conn, peer = scripted
        edge = conn.rcv_nxt + conn.recv_window
        peer.reply(seq=edge + 1, ack=1, payload=b"z")
        _settle(sim)
        assert conn.ooo == {}
        assert conn.rx_beyond_window == 1

    def test_fin_on_the_window_edge_is_kept(self, sim, scripted):
        """"Strictly beyond": the sender may put its FIN exactly on the edge."""
        conn, peer = scripted
        edge = conn.rcv_nxt + conn.recv_window
        peer.reply(flags=("ACK", "FIN"), seq=edge, ack=1)
        _settle(sim)
        assert edge in conn.ooo
        assert conn.rx_beyond_window == 0

    def test_in_window_gap_is_still_buffered_and_sacked(self, sim, scripted):
        conn, peer = scripted
        start = conn.rcv_nxt + 500
        before = len(peer.segments)
        peer.reply(seq=start, ack=1, payload=b"z" * 100)
        _settle(sim)
        assert start in conn.ooo
        assert conn.rx_beyond_window == 0
        assert _acks_after(peer, before)[-1].sack == ((start, start + 100),)


class TestSackBeyondSent:
    """RFC 2018 §8 / RFC 6675: a SACK block must lie within
    [snd_una, snd_nxt]; one reaching past snd_nxt is ignored."""

    def _sent(self, sim, conn, nbytes=500):
        conn.cwnd = nbytes
        conn.write(b"x" * nbytes)
        _settle(sim)
        assert conn.snd_nxt == 1 + nbytes

    def test_forged_block_never_enters_the_scoreboard(self, sim, scripted):
        conn, peer = scripted
        self._sent(sim, conn)
        counted = _SACK_BEYOND.value
        far = conn.snd_nxt + 10**6
        peer.reply(ack=1, sack=((far, far + 1000),))
        _settle(sim)
        assert conn._sacked == []
        assert conn.sack_beyond_sent == 1
        assert _SACK_BEYOND.value == counted + 1

    def test_block_straddling_snd_nxt_is_ignored(self, sim, scripted):
        conn, peer = scripted
        self._sent(sim, conn)
        peer.reply(ack=1, sack=((conn.snd_nxt - MSS, conn.snd_nxt + 1),))
        _settle(sim)
        assert conn._sacked == []
        assert conn.sack_beyond_sent == 1

    def test_honest_blocks_beside_a_forged_one_still_count(self, sim, scripted):
        conn, peer = scripted
        self._sent(sim, conn)
        nxt = conn.snd_nxt
        peer.reply(ack=1, sack=((101, 201), (nxt + 50, nxt + 150), (301, nxt)))
        _settle(sim)
        assert conn._sacked == [[101, 201], [301, nxt]]
        assert conn.sack_beyond_sent == 1

    def test_forged_blocks_cannot_drive_sack_retransmits(self, sim, scripted):
        """Three dup ACKs carrying only a forged block still enter recovery
        on the dup-ACK count, but no hole is 'known lost' above snd_nxt."""
        conn, peer = scripted
        self._sent(sim, conn)
        far = conn.snd_nxt + 10**6
        for _ in range(4):
            peer.reply(ack=1, sack=((far, far + MSS),))
        _settle(sim)
        assert conn._sacked == []
        # Only the head-of-line fast retransmit: nothing filled from SACK.
        assert conn.segments_retransmitted == 1
