"""Golden replay digests: the surviving engine vs the retired reference engine.

Until PR 12 every scenario here ran twice — on the callback-lane dataplane
and on the generator-process reference engine kept beside it — and the
flight-recorder digests had to match.  They did, from PR 5 on, so the
reference engine was deleted and its *last* outputs (captured at
``f39621e`` with reference == fast asserted in the same run) were frozen in
``tests/golden/replay_digests.json``.  These tests hold the one remaining
engine to those values: if a change reorders, drops or duplicates a traced
event, or moves a counter, the digest splits.  Each row also pins a
``nonlink_digest`` over every event outside the ``link`` layer, so a change
to the link layer's own records can be told apart from a change anywhere
else.

Regenerating the file is legitimate only for a deliberate behaviour change
named in CHANGES.md (see DESIGN.md "Golden digests")::

    PYTHONPATH=src python tests/test_replay_golden.py --write
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.replay import assert_replay_deterministic, record_run
from repro.metrics import METRICS

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "replay_digests.json"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def counters_digest() -> str:
    """sha256 over the final non-zero ``METRICS`` counters, minus ``sim.steps``.

    ``sim.steps`` (heap pops) is the one number the two engines were built
    to differ in, so the reference arm's value cannot be pinned.  Zero
    counters are dropped because ``METRICS.reset()`` zeroes in place: which
    zero-valued names exist depends on what ran earlier in the process, not
    on the scenario.
    """
    counters = {
        name: value
        for name, value in METRICS.snapshot()["counters"].items()
        if value and name != "sim.steps"
    }
    return hashlib.sha256(
        json.dumps(dict(sorted(counters.items())), sort_keys=True).encode()
    ).hexdigest()


def nonlink_digest(events: list[str]) -> str:
    """sha256 over the canonical events whose layer is not ``link``.

    The full ``digest`` splits on any trace change; this one stays put when
    only the link layer's own records move, so a link-trace schema change
    is separable from a behaviour change elsewhere.
    """
    hasher = hashlib.sha256()
    for line in events:
        if json.loads(line)[1] != "link":
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
    return hasher.hexdigest()


def replay_row(scenario) -> dict:
    run = record_run(scenario)
    assert len(run.events) == run.n_events  # every event kept for the split
    return {
        "digest": run.digest,
        "nonlink_digest": nonlink_digest(run.events),
        "n_events": run.n_events,
        "counters_digest": counters_digest(),
    }


def iperf_scenario():
    from repro.apps.iperf import run_iperf
    from repro.net.tcp import TcpStack
    from repro.net.topology import lan_pair
    from repro.sim.engine import Simulator

    sim = Simulator()
    node_a, node_b = lan_pair(sim)
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)

    def main():
        result = yield from run_iperf(tcp_b, tcp_a, node_b.addresses()[0], 2_000_000)
        assert result.bytes_received == 2_000_000

    sim.process(main())
    sim.run()
    sim.close()


def lossy_iperf_scenario():
    """Bulk transfer over a 1%-loss 50 ms-RTT link: exercises the whole
    NewReno+SACK machine (dup-ACK classification, fast recovery, partial
    ACKs, selective retransmission, RTO fallback)."""
    from repro.apps.iperf import run_iperf
    from repro.net.tcp import TcpStack
    from repro.net.topology import lan_pair
    from repro.sim import RngStreams
    from repro.sim.engine import Simulator

    sim = Simulator()
    rngs = RngStreams(2024)
    node_a, node_b = lan_pair(
        sim, bandwidth_bps=20e6, delay_s=0.025,
        loss_rate=0.01, loss_rng=rngs.stream("loss"),
    )
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)

    def main():
        result = yield from run_iperf(tcp_b, tcp_a, node_b.addresses()[0], 500_000)
        assert result.bytes_received == 500_000

    sim.process(main())
    sim.run(until=120)
    sim.close()


def paced_ecn_scenario():
    """Paced sender through an ECN-marking bottleneck: the pacing timers and
    the CE/ECE/CWR echo."""
    from repro.net.packet import VirtualPayload
    from repro.net.tcp import TcpStack
    from repro.net.topology import lan_pair
    from repro.sim.engine import Simulator

    sim = Simulator()
    node_a, node_b = lan_pair(
        sim, bandwidth_bps=10e6, delay_s=0.005, ecn_threshold=8,
    )
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)

    def server():
        listener = tcp_b.listen(5001)
        conn = yield listener.accept()
        total = 0
        while total < 300_000:
            chunk = yield conn.recv()
            total += len(chunk)

    def client():
        conn = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], 5001, pacing=True)
        )
        conn.write(VirtualPayload(300_000))

    sim.process(server())
    sim.process(client())
    sim.run(until=60)
    sim.close()


def fluid_bulk_scenario():
    """Bulk transfer through the fluid fast-forward, including a forced
    mid-flight disturbance (competing flow) and re-entry: the probe,
    enter, exit and re-enter events, and every segment around them."""
    from repro.net.packet import VirtualPayload
    from repro.net.tcp import TcpStack
    from repro.net.topology import lan_pair
    from repro.sim.engine import Simulator

    n_bytes = 2_000_000
    sim = Simulator()
    node_a, node_b = lan_pair(sim, delay_s=0.02)
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    listener = tcp_b.listen(5001, fluid=True)

    def server():
        conn = yield listener.accept()
        yield conn.rx.get()
        conn.write(VirtualPayload(n_bytes, tag="bulk"))
        while True:
            chunk = yield conn.rx.get()
            if not chunk:
                break
        conn.close()
        assert conn.fluid_enters >= 2  # disturbed once, re-entered

    def client():
        conn = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], 5001, recv_window=65536)
        )
        conn.write(b"go")
        got = 0
        while got < n_bytes:
            chunk = yield conn.rx.get()
            got += len(chunk)
        conn.close()
        while True:
            chunk = yield conn.rx.get()
            if not chunk:
                break

    def competing():
        yield sim.timeout(0.6)
        side = tcp_b.listen(5002)

        def sink():
            conn2 = yield side.accept()
            yield conn2.rx.get()

        sim.process(sink())
        conn2 = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], 5002)
        )
        conn2.write(b"disturbance")

    sim.process(server())
    sim.process(client())
    sim.process(competing())
    sim.run(until=60)
    sim.close()


def rubis_scenario():
    from repro.apps.workload import ClosedLoopClients
    from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud

    dep = build_rubis_cloud(seed=7, security="basic", n_web=1, extra_tenants=0)
    clients = ClosedLoopClients(
        dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
        n_clients=2, rng=dep.rngs.stream("replay-smoke"),
        timeout=2.0, warmup=0.2,
    )
    proc = dep.sim.process(clients.run(1.0))
    dep.sim.run(until=proc)
    dep.sim.close()


SCENARIOS = {
    "iperf": iperf_scenario,
    "lossy_iperf": lossy_iperf_scenario,
    "paced_ecn": paced_ecn_scenario,
    "fluid_bulk": fluid_bulk_scenario,
    "rubis": rubis_scenario,
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.smoke) if name == "rubis" else name
        for name in SCENARIOS
    ],
)
def test_trace_matches_golden(name):
    row = replay_row(SCENARIOS[name])
    assert row == load_golden()["replay"][name]
    assert row["n_events"] > 500  # the tap really saw the scenario


def test_iperf_replay_deterministic():
    """Two runs under the same seed produce the identical event stream."""
    report = assert_replay_deterministic(iperf_scenario)
    assert report.runs[0].n_events > 1000


def write_golden() -> None:
    """Re-record every row from the working tree."""
    import platform

    from tests.test_shard import echo_golden_row
    from tests.test_tcp_fluid import fluid_golden_row

    golden = {
        "provenance": {
            "python": platform.python_version(),
            "parent_sha": load_golden()["provenance"]["parent_sha"],
            "arm": "regenerated by tests/test_replay_golden.py --write; no "
                   "longer the reference engine's output at parent_sha",
        },
        "replay": {
            name: replay_row(scenario) for name, scenario in SCENARIOS.items()
        },
        "shard_echo": echo_golden_row(),
        "tcp_fluid": fluid_golden_row(),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_replay_golden.py --write")
    # Run as a script, ``tests`` is not importable until the repo root is.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    write_golden()
