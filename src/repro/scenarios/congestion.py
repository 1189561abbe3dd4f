"""Congestion scenario matrix: the contended regimes the paper never measured.

The paper's iperf/RUBiS numbers were taken on a clean LAN; consolidated IaaS
tenants actually share lossy, queue-bloated, contended links.  This module
opens that workload space on top of the NewReno+SACK transport:

* :func:`run_lossy_link` — bulk goodput across a random-loss link, with the
  sender's recovery statistics (fast recoveries, retransmits, RTO count).
* :func:`run_bufferbloat` — RTT inflation through a deep FIFO bottleneck
  versus the same queue with RED-style ECN marking.
* :func:`run_fairness` — N competing tenant flows through one bottleneck,
  scored with Jain's fairness index.
* :func:`run_loss_sweep` — HIP vs TLS-VPN vs plain TCP goodput across a
  loss-rate sweep (tunnels established loss-free, then loss switched on, so
  the sweep measures steady-state transport behaviour, not handshake luck).
* :func:`run_matrix` — all of the above, each emitting a repro-metrics/2
  ``metrics.json``; the CLI entry point used by CI's smoke run.

Everything is seeded through :class:`~repro.sim.RngStreams`; every scenario
is deterministic.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

from repro.apps.iperf import run_iperf
from repro.metrics import METRICS
from repro.metrics.report import write_json_report
from repro.net.icmp import IcmpStack, ping
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.sim import RngStreams
from repro.sim.engine import Simulator

SECURITY_MODES = ("plain", "ssl", "hip")


def jain_index(xs: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one flow hogs all."""
    if not xs:
        return float("nan")
    total = sum(xs)
    sumsq = sum(x * x for x in xs)
    if sumsq == 0.0:
        return float("nan")
    return total * total / (len(xs) * sumsq)


def _link_endpoints(node_a, node_b):
    return node_a.interface("eth0")._endpoint, node_b.interface("eth0")._endpoint


# ------------------------------------------------------------------ lossy link --

def run_lossy_link(
    seed: int = 42,
    loss_rate: float = 0.01,
    transfer_bytes: int = 2_000_000,
    bandwidth_bps: float = 20e6,
    delay_s: float = 0.025,
) -> dict:
    """Bulk goodput over a ``loss_rate`` random-loss, 2*``delay_s``-RTT link."""
    sim = Simulator()
    rngs = RngStreams(seed)
    node_a, node_b = lan_pair(
        sim, bandwidth_bps=bandwidth_bps, delay_s=delay_s,
        loss_rate=loss_rate, loss_rng=rngs.stream("loss"),
    )
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    out: dict = {}

    def main():
        # An explicit connection (not run_iperf) so the sender's recovery
        # statistics can be read off ``conn`` afterwards.
        from repro.apps.iperf import IPERF_PORT, IperfServer

        server = IperfServer(tcp_b, port=IPERF_PORT)
        measurement = sim.process(server.measure_once())
        conn = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], IPERF_PORT)
        )
        conn.write(VirtualPayload(transfer_bytes, tag="lossy"))
        conn.close()
        result = yield measurement
        out["result"] = result
        out["conn"] = conn

    done = sim.process(main(), name="lossy-link")
    sim.run(until=done)
    sim.close()
    result, conn = out["result"], out["conn"]
    ep_a, ep_b = _link_endpoints(node_a, node_b)
    return {
        "scenario": "lossy_link",
        "cc": "newreno",
        "loss_rate": loss_rate,
        "transfer_bytes": transfer_bytes,
        "bandwidth_mbps": bandwidth_bps / 1e6,
        "rtt_ms": 2 * delay_s * 1e3,
        "goodput_mbps": result.throughput_mbps,
        "duration_s": result.duration,
        "segments_retransmitted": conn.segments_retransmitted,
        "fast_recoveries": conn.fast_recoveries,
        "packets_lost": ep_a.lost_packets + ep_b.lost_packets,
    }


# ----------------------------------------------------------------- bufferbloat --

def _bufferbloat_once(
    ecn_threshold: int | None,
    bandwidth_bps: float,
    delay_s: float,
    queue_packets: int,
    load_s: float,
    probe_count: int,
) -> dict:
    sim = Simulator()
    node_a, node_b = lan_pair(
        sim, bandwidth_bps=bandwidth_bps, delay_s=delay_s,
        queue_packets=queue_packets, ecn_threshold=ecn_threshold,
    )
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    icmp_a, _icmp_b = IcmpStack(node_a), IcmpStack(node_b)
    addr_b = node_b.addresses()[0]
    out: dict = {}

    def sink():
        # A large advertised window lets cwnd, not flow control, fill the
        # queue — that is the bufferbloat condition.
        listener = tcp_b.listen(5001, recv_window=2_000_000)
        conn = yield listener.accept()
        eof = sim.event()

        def discard(chunk) -> None:  # at delivery, no wake per chunk
            if len(chunk) == 0 and not eof.triggered:
                eof.succeed()

        conn.consume(discard)
        yield eof

    def main():
        base = yield sim.process(
            ping(icmp_a, addr_b, count=probe_count, interval=0.05)
        )
        conn = yield sim.process(tcp_a.open_connection(addr_b, 5001))
        conn.write(VirtualPayload(int(bandwidth_bps), tag="bloat"))  # ~8 s of data
        yield sim.timeout(load_s)  # let the standing queue build
        loaded = yield sim.process(
            ping(icmp_a, addr_b, count=probe_count, interval=0.2, timeout=5.0)
        )
        base_ok = [r for r in base if r is not None]
        loaded_ok = [r for r in loaded if r is not None]
        out["base_rtt_ms"] = 1e3 * sum(base_ok) / len(base_ok)
        out["loaded_rtt_ms"] = (
            1e3 * sum(loaded_ok) / len(loaded_ok) if loaded_ok else float("inf")
        )
        out["probes_lost"] = sum(1 for r in loaded if r is None)
        out["ecn_reductions"] = conn.ecn_reductions
        out["retransmits"] = conn.segments_retransmitted

    sim.process(sink(), name="bloat-sink")
    done = sim.process(main(), name="bufferbloat")
    sim.run(until=done)
    sim.close()
    out["inflation"] = out["loaded_rtt_ms"] / out["base_rtt_ms"]
    return out


def run_bufferbloat(
    seed: int = 42,
    bandwidth_bps: float = 10e6,
    delay_s: float = 5e-3,
    queue_packets: int = 512,
    ecn_threshold: int = 32,
    load_s: float = 2.0,
    probe_count: int = 8,
) -> dict:
    """RTT inflation through a deep drop-tail queue, with and without ECN.

    ``seed`` is accepted for interface symmetry; the scenario is loss-free
    and fully deterministic.
    """
    fifo = _bufferbloat_once(
        None, bandwidth_bps, delay_s, queue_packets, load_s, probe_count,
    )
    ecn = _bufferbloat_once(
        ecn_threshold, bandwidth_bps, delay_s, queue_packets, load_s, probe_count,
    )
    return {
        "scenario": "bufferbloat",
        "seed": seed,
        "bandwidth_mbps": bandwidth_bps / 1e6,
        "queue_packets": queue_packets,
        "ecn_threshold": ecn_threshold,
        "fifo": fifo,
        "ecn": ecn,
        "inflation_fifo": fifo["inflation"],
        "inflation_ecn": ecn["inflation"],
    }


# -------------------------------------------------------------------- fairness --

def run_fairness(
    seed: int = 42,
    n_flows: int = 4,
    duration: float = 5.0,
    warmup: float = 1.0,
    bandwidth_bps: float = 20e6,
    delay_s: float = 10e-3,
) -> dict:
    """N tenant flows through one bottleneck; Jain index over their goodputs."""
    sim = Simulator()
    node_a, node_b = lan_pair(sim, bandwidth_bps=bandwidth_bps, delay_s=delay_s)
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    addr_b = node_b.addresses()[0]
    received = [0] * n_flows
    t_start = warmup
    t_end = warmup + duration

    def sink(idx):
        # Counted at delivery, no process wake per chunk (EOF adds 0).
        def count(chunk) -> None:
            if t_start <= sim.now <= t_end:
                received[idx] += len(chunk)
        return count

    def server():
        listener = tcp_b.listen(5001)
        for idx in range(n_flows):
            conn = yield listener.accept()
            conn.consume(sink(idx))

    def client(idx):
        # Staggered joins, like tenants arriving one after another.
        yield sim.timeout(idx * 0.02)
        conn = yield sim.process(tcp_a.open_connection(addr_b, 5001))
        conn.write(VirtualPayload(int(bandwidth_bps), tag=f"flow{idx}"))

    sim.process(server(), name="fair-server")
    for i in range(n_flows):
        sim.process(client(i), name=f"fair-client-{i}")
    sim.run(until=t_end)
    sim.close()
    goodputs = [8 * r / duration / 1e6 for r in received]
    return {
        "scenario": "fairness",
        "seed": seed,
        "n_flows": n_flows,
        "duration_s": duration,
        "bandwidth_mbps": bandwidth_bps / 1e6,
        "per_flow_mbps": goodputs,
        "aggregate_mbps": sum(goodputs),
        "jain_index": jain_index(goodputs),
    }


# ------------------------------------------------------------------ loss sweep --

def _secured_pair(sim, rngs: RngStreams, mode: str, node_a, node_b):
    """Return (target_addr, establish_generator) for the security mode."""
    addr_a = node_a.addresses()[0]
    addr_b = node_b.addresses()[0]
    if mode == "plain":
        def establish():
            return
            yield  # pragma: no cover - generator marker
        return addr_b, establish
    if mode == "ssl":
        from repro.crypto.rsa import RsaKeyPair
        from repro.net.addresses import IPAddress
        from repro.tls.vpn import SslVpnDaemon, VPN_SUBNET

        key_rng = rngs.stream("ssl-keys")
        key_a = RsaKeyPair.generate(512, key_rng)
        key_b = RsaKeyPair.generate(512, key_rng)
        vpn_a = IPAddress(4, VPN_SUBNET.network.value + 1)
        vpn_b = IPAddress(4, VPN_SUBNET.network.value + 2)
        da = SslVpnDaemon(node_a, vpn_a, key_a, rng=rngs.stream("ssl-a"))
        db = SslVpnDaemon(node_b, vpn_b, key_b, rng=rngs.stream("ssl-b"))
        da.add_peer(vpn_b, addr_b, key_b.public)
        db.add_peer(vpn_a, addr_a, key_a.public)

        def establish():
            yield from da.connect(vpn_b, timeout=30.0)

        return vpn_b, establish
    if mode == "hip":
        from repro.hip.daemon import HipConfig, HipDaemon
        from repro.hip.identity import HostIdentity

        id_rng = rngs.stream("hip-ident")
        ident_a = HostIdentity.generate(id_rng, "rsa", rsa_bits=512)
        ident_b = HostIdentity.generate(id_rng, "rsa", rsa_bits=512)
        cfg = HipConfig(real_crypto=False)
        da = HipDaemon(node_a, ident_a, rng=rngs.stream("hip-a"), config=cfg)
        db = HipDaemon(node_b, ident_b, rng=rngs.stream("hip-b"), config=cfg)
        da.add_peer(db.hit, [addr_b])
        db.add_peer(da.hit, [addr_a])
        icmp_a, _ = IcmpStack(node_a), IcmpStack(node_b)

        def establish():
            # One ping over the HIT triggers the base exchange; the loss
            # sweep then measures data-plane behaviour only.
            yield sim.process(ping(icmp_a, db.hit, count=1, timeout=30.0))

        return db.hit, establish
    raise ValueError(f"unknown security mode {mode!r}")


def _sweep_point(
    seed: int,
    mode: str,
    loss_rate: float,
    transfer_bytes: int,
    bandwidth_bps: float,
    delay_s: float,
) -> dict:
    sim = Simulator()
    rngs = RngStreams(seed)
    # Build the link loss-free (the loss stream is attached but dormant) so
    # tunnel establishment cannot flake; loss starts with the measurement.
    node_a, node_b = lan_pair(
        sim, bandwidth_bps=bandwidth_bps, delay_s=delay_s,
        loss_rate=0.0, loss_rng=rngs.stream(f"loss-{mode}-{loss_rate}"),
    )
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    target, establish = _secured_pair(sim, rngs, mode, node_a, node_b)
    out: dict = {}

    def main():
        yield from establish()
        ep_a, ep_b = _link_endpoints(node_a, node_b)
        ep_a.loss_rate = loss_rate
        ep_b.loss_rate = loss_rate
        result = yield sim.process(
            run_iperf(tcp_b, tcp_a, target, n_bytes=transfer_bytes)
        )
        out["goodput_mbps"] = result.throughput_mbps

    done = sim.process(main(), name=f"sweep-{mode}")
    sim.run(until=done)
    sim.close()
    return {
        "mode": mode,
        "loss_rate": loss_rate,
        "goodput_mbps": out["goodput_mbps"],
    }


def run_loss_sweep(
    seed: int = 42,
    loss_rates: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05),
    modes: Sequence[str] = SECURITY_MODES,
    transfer_bytes: int = 1_000_000,
    bandwidth_bps: float = 20e6,
    delay_s: float = 0.01,
) -> dict:
    """HIP vs TLS vs plain goodput across a loss sweep (fresh pair per cell)."""
    points = []
    for mode in modes:
        for rate in loss_rates:
            points.append(
                _sweep_point(seed, mode, rate, transfer_bytes, bandwidth_bps, delay_s)
            )
    return {
        "scenario": "loss_sweep",
        "seed": seed,
        "transfer_bytes": transfer_bytes,
        "bandwidth_mbps": bandwidth_bps / 1e6,
        "loss_rates": list(loss_rates),
        "modes": list(modes),
        "points": points,
    }


# ---------------------------------------------------------------------- matrix --

def run_matrix(out_dir: str | pathlib.Path, smoke: bool = False, seed: int = 42) -> dict:
    """Run every scenario, writing one ``metrics.json`` per scenario."""
    out_root = pathlib.Path(out_dir)
    if smoke:
        runs = {
            "lossy_link": lambda: run_lossy_link(seed, transfer_bytes=300_000),
            "bufferbloat": lambda: run_bufferbloat(seed, load_s=1.0, probe_count=5),
            "fairness": lambda: run_fairness(seed, n_flows=3, duration=2.0,
                                             warmup=0.5),
            "loss_sweep": lambda: run_loss_sweep(
                seed, loss_rates=(0.0, 0.01, 0.03), transfer_bytes=200_000,
            ),
        }
    else:
        runs = {
            "lossy_link": lambda: run_lossy_link(seed),
            "bufferbloat": lambda: run_bufferbloat(seed),
            "fairness": lambda: run_fairness(seed),
            "loss_sweep": lambda: run_loss_sweep(seed),
        }
    summary: dict = {"smoke": smoke, "seed": seed, "scenarios": {}}
    for name, runner in runs.items():
        METRICS.reset()
        result = runner()
        scenario_dir = out_root / name
        scenario_dir.mkdir(parents=True, exist_ok=True)
        write_json_report(scenario_dir / "metrics.json", extra=result)
        summary["scenarios"][name] = result
    METRICS.reset()
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="congestion scenario matrix")
    parser.add_argument("--out", default="congestion_results",
                        help="output directory for per-scenario metrics.json")
    parser.add_argument("--smoke", action="store_true",
                        help="short seeded CI variant")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    summary = run_matrix(args.out, smoke=args.smoke, seed=args.seed)
    lossy = summary["scenarios"]["lossy_link"]
    bloat = summary["scenarios"]["bufferbloat"]
    fair = summary["scenarios"]["fairness"]
    print(f"lossy link:  {lossy['goodput_mbps']:.2f} Mbit/s at "
          f"{lossy['loss_rate']:.1%} loss "
          f"({lossy['fast_recoveries']} fast recoveries)")
    print(f"bufferbloat: RTT inflation {bloat['inflation_fifo']:.1f}x FIFO vs "
          f"{bloat['inflation_ecn']:.1f}x with ECN")
    print(f"fairness:    Jain {fair['jain_index']:.3f} over "
          f"{fair['n_flows']} flows ({fair['aggregate_mbps']:.2f} Mbit/s total)")
    for point in summary["scenarios"]["loss_sweep"]["points"]:
        print(f"loss sweep:  {point['mode']:>5} @ {point['loss_rate']:.1%} -> "
              f"{point['goodput_mbps']:.2f} Mbit/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
