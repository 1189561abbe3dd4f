"""Fluid fast-forward TCP: entry, exit, accounting and golden parity.

A cwnd-stabilised bulk flow leaves per-packet simulation and advances as a
closed-form rate integral (``min(cwnd, peer_window) / srtt``), re-entering
packet mode when disturbed.  These tests pin the contract: the stream the
receiver sees is byte-identical, the skipped segments' dataplane costs are
still charged, disturbances (competing flow, rekey epoch bump) force an
exit, and the whole dance is bit-identical to the retired reference
engine's golden run.
"""

from repro.metrics import METRICS
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.sim.engine import Simulator
from tests.test_replay_golden import load_golden

N_BYTES = 2_000_000
WINDOW = 65536
DELAY = 0.02  # 40 ms RTT: fluid rate ~1.6 MB/s, several 0.25 s chunks
PORT = 5001


def run_transfer(
    fluid=True,
    flow_guard=True,
    payload=None,
    disturb=None,
    n_bytes=N_BYTES,
):
    """One window-limited bulk server->client transfer.

    ``disturb`` is an optional ``(at, fn)`` pair; ``fn(sim, ctx)`` runs at
    sim-time ``at`` with ``ctx`` holding the nodes and stacks.
    """
    sim = Simulator()
    node_a, node_b = lan_pair(sim, delay_s=DELAY)
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    data = payload if payload is not None else VirtualPayload(n_bytes, tag="bulk")
    collect = isinstance(data, (bytes, bytearray))
    out = {
        "received": bytearray(),
        "received_n": 0,
        "done_at": None,
        "server_conn": None,
    }

    listener = tcp_b.listen(PORT, fluid=fluid, fluid_flow_guard=flow_guard)

    def server():
        conn = yield listener.accept()
        out["server_conn"] = conn
        yield conn.rx.get()  # the go-ahead
        conn.write(data)
        while True:  # wait for the client's FIN
            chunk = yield conn.rx.get()
            if not chunk:
                break
        conn.close()

    def client():
        conn = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], PORT, recv_window=WINDOW)
        )
        conn.write(b"go")
        while out["received_n"] < n_bytes:
            chunk = yield conn.rx.get()
            if not chunk:
                break
            out["received_n"] += len(chunk)
            if collect:
                out["received"] += bytes(chunk)
        out["done_at"] = sim.now
        conn.close()
        while True:  # drain to EOF
            chunk = yield conn.rx.get()
            if not chunk:
                break

    sim.process(server())
    sim.process(client())
    if disturb is not None:
        at, fn = disturb
        ctx = {
            "sim": sim, "node_a": node_a, "node_b": node_b,
            "tcp_a": tcp_a, "tcp_b": tcp_b,
        }
        sim.call_later(at, lambda: fn(sim, ctx))
    segs_before = METRICS.counter("tcp.segments_sent").value
    sim.run(until=120)
    out["segments"] = METRICS.counter("tcp.segments_sent").value - segs_before
    sim.close()
    return out


def test_fluid_transfer_completes_with_clean_exit():
    out = run_transfer(fluid=True)
    conn = out["server_conn"]
    assert out["received_n"] == N_BYTES
    assert conn.fluid_enters >= 1
    assert conn.fluid_bytes > 0
    assert [e[0] for e in conn.fluid_log if e[0].startswith("exit")] == [
        "exit:complete"
    ]


def test_real_bytes_never_fast_forward():
    """Only virtual payloads may skip the wire: a concrete byte stream must
    travel as segments (and arrive intact) even on a fluid listener."""
    payload = bytes(range(256)) * (N_BYTES // 256)
    out = run_transfer(fluid=True, payload=payload)
    conn = out["server_conn"]
    assert bytes(out["received"]) == payload
    assert conn.fluid_enters == 0
    assert conn.fluid_bytes == 0


def test_fluid_skips_most_segments():
    packet = run_transfer(fluid=False)
    fluid = run_transfer(fluid=True)
    assert packet["received_n"] == fluid["received_n"] == N_BYTES
    assert fluid["server_conn"].fluid_bytes > 0.8 * N_BYTES
    assert fluid["segments"] < packet["segments"] / 3


def test_fluid_completion_time_close_to_packet_mode():
    """The rate integral ``wnd/srtt`` tracks the window-limited packet-mode
    throughput: completion times agree within modeling tolerance."""
    packet = run_transfer(fluid=False)
    fluid = run_transfer(fluid=True)
    assert abs(fluid["done_at"] - packet["done_at"]) < 0.2 * packet["done_at"]


def fluid_golden_row():
    out = run_transfer(fluid=True)
    conn = out["server_conn"]
    return {
        "done_at": out["done_at"],
        "received_n": out["received_n"],
        "segments": out["segments"],
        "fluid_log": [list(entry) for entry in conn.fluid_log],
        "fluid_bytes": conn.fluid_bytes,
    }


def test_fluid_identical_across_engine_modes():
    """The retired reference engine's last fluid transfer (frozen in
    tests/golden/replay_digests.json) is reproduced to the last float."""
    assert fluid_golden_row() == load_golden()["tcp_fluid"]


def _open_competing_flow(sim, ctx):
    tcp_b = ctx["tcp_b"]
    tcp_a = ctx["tcp_a"]
    listener = tcp_b.listen(PORT + 1)

    def second_server():
        conn = yield listener.accept()
        while True:
            chunk = yield conn.rx.get()
            if not chunk:
                break

    def second_client():
        conn = yield sim.process(
            tcp_a.open_connection(ctx["node_b"].addresses()[0], PORT + 1)
        )
        conn.write(b"competing flow")
        # stays open: the stacks' connection counts remain changed

    sim.process(second_server())
    sim.process(second_client())


def test_competing_flow_exits_fluid():
    out = run_transfer(fluid=True, disturb=(0.6, _open_competing_flow))
    conn = out["server_conn"]
    assert out["received_n"] == N_BYTES  # correct through exit/re-enter
    reasons = [e[0] for e in conn.fluid_log if e[0].startswith("exit")]
    assert "exit:disturbed" in reasons


def test_flow_guard_off_ignores_competing_flow():
    out = run_transfer(
        fluid=True, flow_guard=False, disturb=(0.6, _open_competing_flow)
    )
    conn = out["server_conn"]
    assert out["received_n"] == N_BYTES
    reasons = [e[0] for e in conn.fluid_log if e[0].startswith("exit")]
    assert reasons == ["exit:complete"]
    assert conn.fluid_enters == 1


def _bump_epoch(sim, ctx):
    # What a rekey does to the dataplane: invalidates cached crypto state.
    ctx["node_b"].dataplane_epoch += 1


def test_rekey_epoch_bump_exits_fluid():
    out = run_transfer(fluid=True, disturb=(0.6, _bump_epoch))
    conn = out["server_conn"]
    assert out["received_n"] == N_BYTES
    reasons = [e[0] for e in conn.fluid_log if e[0].startswith("exit")]
    assert "exit:disturbed" in reasons


def test_fluid_charges_dataplane_taxers():
    """Every fast-forwarded byte is charged to both endpoints' taxers with
    the segment count the packet path would have used."""
    charged = {"out": 0, "in": 0, "out_segs": 0, "in_segs": 0}

    def arm_taxers(sim, ctx):
        def tax_b(addr, n, segs, direction):
            charged[direction] += n
            charged[direction + "_segs"] += segs

        ctx["node_b"].fluid_taxers.append(tax_b)
        ctx["node_a"].fluid_taxers.append(tax_b)

    out = run_transfer(fluid=True, disturb=(0.0, arm_taxers))
    conn = out["server_conn"]
    assert conn.fluid_bytes > 0
    assert charged["out"] == conn.fluid_bytes
    assert charged["in"] == conn.fluid_bytes
    assert charged["out_segs"] >= conn.fluid_bytes // 1448
