"""TCP loss-recovery benchmark: NewReno+SACK goodput on a lossy link.

Bulk *simulated* goodput across a 1%-average-loss, 50 ms-RTT, 20 Mbit/s
link.  Written to ``BENCH_tcp.json`` at the repo root.  Two loss regimes,
both at the same 1% average rate:

* ``random`` — i.i.d. drops.  At 1% the loss-limited cwnd is ~12 packets,
  so windows almost never contain two losses and SACK is structurally idle.
  Reported for context, not scored.

* ``burst`` — drops arrive in runs of 3 (``loss_burst=3``), which is how
  drop-tail queues actually lose packets.  Multi-loss windows are the norm:
  a sender without a recovery state must detect each hole with a fresh
  3-dup-ACK round and usually starves into an RTO, while the SACK
  scoreboard repairs the whole run in one RTT.  This is the acceptance
  metric.

The floor is absolute: ``burst_loss`` goodput must stay >= 1.5x what the
legacy Reno machine (fast retransmit, no recovery state, no SACK) reached on
this exact link before it was deleted — :data:`RENO_BURST_GOODPUT_MBPS`,
measured at the commit named beside it.  Goodput is measured in simulated
time, so it is exact and completely insensitive to machine load.

Run directly::

    PYTHONPATH=src python benchmarks/bench_tcp.py            # full transfer
    PYTHONPATH=src python benchmarks/bench_tcp.py --quick    # CI smoke

Both modes enforce their floor and exit nonzero below it.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.apps.iperf import IPERF_PORT, IperfServer
from repro.metrics import METRICS
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.sim import RngStreams
from repro.sim.engine import Simulator

try:  # imported as a package (tests) or run as a script (CI / local)
    from benchmarks._provenance import provenance
except ImportError:  # pragma: no cover
    from _provenance import provenance

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``burst_loss`` goodput of the deleted legacy-Reno machine, per mode
#: (transfer size differs), last measured at the commit below by this
#: script's predecessor.  Simulated goodput is exact, so these are constants
#: of that commit, not samples.
RENO_BASELINE_SHA = "f39621e1d2b3b6607d8151c44f84bdd6fec0b895"
RENO_BURST_GOODPUT_MBPS = {"full": 0.614871315231302, "quick": 0.3895120302348585}
TARGET_RATIO = 1.5

LOSS_RATE = 0.01
BANDWIDTH_BPS = 20e6
DELAY_S = 0.025  # per direction -> 50 ms RTT
SEED = 2024


def bench_goodput(n_bytes: int, loss_burst: int) -> dict:
    """One seeded lossy-link transfer; returns simulated-goodput stats."""
    sim = Simulator()
    rngs = RngStreams(SEED)
    node_a, node_b = lan_pair(
        sim, bandwidth_bps=BANDWIDTH_BPS, delay_s=DELAY_S,
        loss_rate=LOSS_RATE, loss_rng=rngs.stream("loss"),
        loss_burst=loss_burst,
    )
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    box: dict = {}

    def main():
        server = IperfServer(tcp_b, port=IPERF_PORT)
        measurement = sim.process(server.measure_once())
        conn = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], IPERF_PORT)
        )
        conn.write(VirtualPayload(n_bytes, tag="bench"))
        conn.close()
        result = yield measurement
        box["result"] = result
        box["conn"] = conn

    done = sim.process(main(), name="bench-newreno")
    start = time.perf_counter()
    sim.run(until=done)
    wall = time.perf_counter() - start
    sim.close()
    METRICS.reset()
    result, conn = box["result"], box["conn"]
    return {
        "transfer_bytes": n_bytes,
        "loss_rate": LOSS_RATE,
        "loss_burst": loss_burst,
        "bandwidth_mbps": BANDWIDTH_BPS / 1e6,
        "rtt_ms": 2 * DELAY_S * 1e3,
        "newreno": {
            "cc": "newreno",
            "goodput_mbps": result.throughput_mbps,
            "sim_duration_s": result.duration,
            "segments_retransmitted": conn.segments_retransmitted,
            "fast_recoveries": conn.fast_recoveries,
            "rtos": conn.rtos,
            "wall_s": wall,
        },
    }


def run_bench(quick: bool = False) -> dict:
    mode = "quick" if quick else "full"
    n_bytes = 500_000 if quick else 2_000_000
    random_loss = bench_goodput(n_bytes, loss_burst=1)
    burst_loss = bench_goodput(n_bytes, loss_burst=3)
    measured = burst_loss["newreno"]["goodput_mbps"]
    floor = TARGET_RATIO * RENO_BURST_GOODPUT_MBPS[mode]
    return {
        **provenance(),
        "mode": mode,
        "results": {"random_loss": random_loss, "burst_loss": burst_loss},
        "acceptance": {
            "metric": "burst_loss.newreno.goodput_mbps",
            "floor_mbps": floor,
            "floor_basis": f"{TARGET_RATIO} x legacy Reno goodput at {RENO_BASELINE_SHA[:7]}",
            "measured_mbps": measured,
            "pass": measured >= floor,
        },
    }


def write_report(report: dict) -> pathlib.Path:
    path = REPO_ROOT / "BENCH_tcp.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    report = run_bench(quick=quick)
    path = write_report(report)
    for regime in ("random_loss", "burst_loss"):
        v = report["results"][regime]["newreno"]
        print(f"{regime:>11}: {v['goodput_mbps']:.2f} Mbit/s "
              f"({v['segments_retransmitted']} rtx, "
              f"{v['fast_recoveries']} fast recoveries, {v['rtos']} RTOs)")
    acc = report["acceptance"]
    print(f"acceptance: {acc['measured_mbps']:.2f} Mbit/s vs "
          f"{acc['floor_mbps']:.2f} Mbit/s floor ({acc['floor_basis']}) -> "
          f"{'PASS' if acc['pass'] else 'FAIL'}  (written to {path})")
    return 0 if acc["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
