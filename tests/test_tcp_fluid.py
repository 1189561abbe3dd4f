"""Fluid fast-forward TCP: entry, exit, accounting and golden parity.

A cwnd-stabilised bulk flow leaves per-packet simulation and advances as a
closed-form rate integral (``min(cwnd, peer_window) / srtt``), re-entering
packet mode when disturbed.  These tests pin the contract: the stream the
receiver sees is byte-identical, a competing flow forces an exit, a flow
between tunnel endpoints (HIP, SSL VPN, Teredo) never goes fluid and is
charged exactly as in packet mode, and the whole dance is bit-identical to the
retired reference engine's golden run.
"""

import pytest

from repro.hip.daemon import HipConfig
from repro.metrics import METRICS
from repro.net.addresses import ipv4
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpStack
from repro.net.teredo import TeredoClient, TeredoServer
from repro.net.topology import lan_pair
from repro.sim.engine import Simulator
from tests.conftest import build_hip_pair, build_vpn_pair, vpn_addr
from tests.test_net_nat_teredo import build_natted_net
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
    pair=None,
):
    """One window-limited bulk server->client transfer.

    ``disturb`` is an optional ``(at, fn)`` pair; ``fn(sim, ctx)`` runs at
    sim-time ``at`` with ``ctx`` holding the nodes and stacks.  ``pair(sim)``
    builds the hosts and returns ``(node_a, node_b, address of b)``; by
    default two plain hosts on one link.
    """
    sim = Simulator()
    if pair is None:
        node_a, node_b = lan_pair(sim, delay_s=DELAY)
        dst = node_b.addresses()[0]
    else:
        node_a, node_b, dst = pair(sim)
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    data = payload if payload is not None else VirtualPayload(n_bytes, tag="bulk")
    collect = isinstance(data, (bytes, bytearray))
    out = {
        "received": bytearray(),
        "received_n": 0,
        "done_at": None,
        "server_conn": None,
        "nodes": (node_a, node_b),
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
            tcp_a.open_connection(dst, PORT, recv_window=WINDOW)
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


def tunnel_pair(kind, identities, vpn_keys, cpu_scale, daemons):
    """A ``pair`` for :func:`run_transfer`: two tunnel endpoints, ``b``
    addressed by its HIT, its LSI, its VPN address (all on the usual link)
    or its Teredo address (``a`` behind a NAT, both already qualified).  The
    daemons land in ``daemons``."""

    def build(sim):
        if kind == "teredo":
            net = build_natted_net(sim)
            a, b = net["a"], net["b"]
            TeredoServer(net["server"], net["udp_srv"])
            da = TeredoClient(a, net["udp_a"], ipv4("203.0.113.1"))
            db = TeredoClient(b, net["udp_b"], ipv4("203.0.113.1"))
            sim.run(until=sim.process(da.qualify()))
            dst = sim.run(until=sim.process(db.qualify()))
        elif kind == "vpn":
            _, a, b, da, db = build_vpn_pair(sim, vpn_keys, delay_s=DELAY)
            dst = vpn_addr(11)
        else:
            config = HipConfig(real_crypto=False)
            _, a, b, da, db = build_hip_pair(sim, identities, config, delay_s=DELAY)
            dst = db.hit if kind == "hit" else da.lsi_for_peer(db.hit)
        a.cpu_scale = b.cpu_scale = cpu_scale
        daemons[:] = [da, db]
        return a, b, dst

    return build


@pytest.mark.parametrize("cpu_scale", [1, 8])
@pytest.mark.parametrize("kind", ["hit", "lsi", "vpn", "teredo"])
def test_no_fluid_between_tunnel_endpoints(kind, cpu_scale, session_identities, vpn_keys):
    """A flow to a HIT, an LSI, a VPN or a Teredo address never goes fluid:
    the tunnel's per-packet costs (address translation, ESP or TLS record
    transform, Teredo encapsulation) are charged on packets, so both hosts
    book the same CPU as with ``fluid=False``, at any ``cpu_scale``."""
    runs = {}
    for fluid in (False, True):
        daemons = []
        pair = tunnel_pair(kind, session_identities, vpn_keys, cpu_scale, daemons)
        out = run_transfer(fluid=fluid, pair=pair)
        assert out["received_n"] == N_BYTES
        runs[fluid] = [node.cpu_busy_seconds for node in out["nodes"]]
        da, db = daemons
    assert out["server_conn"].fluid_enters == 0
    assert out["server_conn"].fluid_bytes == 0
    assert runs[True] == runs[False]
    if kind == "teredo":
        sent = (db.packets_encapsulated, da.packets_encapsulated)
        assert sent == (da.packets_decapsulated, db.packets_decapsulated)
    elif kind == "vpn":
        assert (db.packets_sent, da.packets_sent) == (da.packets_received, db.packets_received)
    else:
        for tx, rx in ((da, db), (db, da)):
            sa_out, sa_in = tx.assocs[rx.hit].sa_out, rx.assocs[tx.hit].sa_in
            assert sa_out.packets_protected == sa_in.packets_verified > 0
