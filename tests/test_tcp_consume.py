"""``TcpConnection.consume``: a receive stream handed to a callback.

A bulk sink whose per-chunk work is local accounting takes the stream at
delivery instead of waking a process per chunk.  The contract: chunks
already queued reach the callback first and in order, every later chunk
and the ``b""`` EOF marker (from a FIN or a reset) arrive inline, fluid
transfers deliver the same way, and ``recv()`` is closed afterwards.
"""

import pytest

from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpError, TcpStack
from repro.net.topology import lan_pair
from repro.sim import Simulator

PORT = 5001


def pair(sim, **link):
    node_a, node_b = lan_pair(sim, **link)
    return TcpStack(node_a), TcpStack(node_b), node_b.addresses()[0]


def test_queued_chunks_flush_in_order_then_data_arrives_inline(sim):
    tcp_a, tcp_b, addr_b = pair(sim)
    got = []

    def server():
        conn = yield tcp_b.listen(PORT).accept()
        head = yield from conn.recv_bytes(2)  # leaves b"c" as a partial chunk
        yield sim.timeout(0.05)  # b"def" queues meanwhile
        assert len(conn.rx) == 1
        conn.consume(got.append)
        assert got == [b"c", b"def"]
        return head

    def client():
        conn = yield sim.process(tcp_a.open_connection(addr_b, PORT))
        conn.write(b"abc")
        yield sim.timeout(0.01)
        conn.write(b"def")
        yield sim.timeout(0.1)
        conn.write(b"gh")
        conn.close()

    served = sim.process(server())
    sim.process(client())
    sim.run(until=1.0)
    assert served.value == b"ab"
    assert got == [b"c", b"def", b"gh", b""]  # the FIN's EOF marker last


def test_reset_delivers_the_eof_marker(sim):
    tcp_a, tcp_b, addr_b = pair(sim)
    got = []

    def server():
        conn = yield tcp_b.listen(PORT).accept()
        conn.consume(got.append)

    def client():
        conn = yield sim.process(tcp_a.open_connection(addr_b, PORT))
        conn.write(b"xyz")
        yield sim.timeout(0.05)
        conn.abort()

    sim.process(server())
    sim.process(client())
    sim.run(until=1.0)
    assert got == [b"xyz", b""]


def test_fluid_transfer_delivers_to_the_consumer():
    sim = Simulator()
    tcp_a, tcp_b, addr_b = pair(sim, delay_s=0.02)
    n_bytes = 2_000_000
    listener = tcp_b.listen(PORT, fluid=True)
    received = []
    out = {}

    def server():
        conn = yield listener.accept()
        out["conn"] = conn
        conn.write(VirtualPayload(n_bytes, tag="bulk"))
        conn.close()

    def client():
        conn = yield sim.process(
            tcp_a.open_connection(addr_b, PORT, recv_window=65536)
        )
        conn.consume(received.append)

    sim.process(server())
    sim.process(client())
    sim.run(until=60)
    sim.close()
    assert out["conn"].fluid_bytes > n_bytes // 2
    assert sum(len(chunk) for chunk in received) == n_bytes
    assert received[-1] == b""


def test_recv_and_second_consume_raise_after_consume(sim):
    tcp_a, tcp_b, addr_b = pair(sim)

    def server():
        conn = yield tcp_b.listen(PORT).accept()
        conn.consume(lambda chunk: None)
        with pytest.raises(TcpError, match="consume"):
            conn.recv()
        with pytest.raises(TcpError, match="consume"):
            conn.consume(lambda chunk: None)
        return "checked"

    def client():
        yield sim.process(tcp_a.open_connection(addr_b, PORT))

    done = sim.process(server())
    sim.process(client())
    assert sim.run(until=done) == "checked"

