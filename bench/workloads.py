"""The five workloads.  Each is a **fixed simulated job**: ``setup`` builds a
deployment from the seed, ``run`` drives it through public entry points and
returns what happened, ``close`` releases it.  The driver (``bench.run``)
repeats the job, times the calls from outside, and checks the outcome.

Load comes from one process; only ``scale_sharded`` forks, one worker per
zone and never more workers than cores.  Names are fixed — later issues
refer to them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from bench.trace import Spans
from repro.apps.iperf import run_iperf
from repro.apps.workload import ClosedLoopClients
from repro.cloud.iaas import PublicCloud
from repro.cloud.tenant import SpreadPlacement, Tenant
from repro.hip.daemon import HipConfig, HipDaemon
from repro.hip.identity import HostIdentity
from repro.metrics.stats import percentile
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud
from repro.scenarios.rubis_scale import ScaleParams, scale_builders
from repro.sim import RngStreams, Simulator
from repro.sim.shard import ShardedSimulation

#: Job sizes.  ``full`` is tuned so one repeat costs 1-4 host-s on the 2-core
#: sandbox and a 20 s run holds at least five of them; ``smoke`` exists for
#: ``bench/test_smoke.py`` and says nothing about speed.
#:
#: The scale job's media tier serves 2 MiB objects through a 64 KiB window
#: (the window ``benchmarks/bench_scale.py`` uses) rather than the 8 MiB /
#: 256 KiB defaults: a fetch costs ~6k engine events in packet mode before it
#: goes fluid whatever its size, so at this job length the ~17 default-sized
#: fetches made host cost per session swing +-15 % with the seed.  As sized
#: here the swing is +-3.6 % and 90 % of media bytes still move in fluid mode.
SIZES = {
    "full": {
        "iperf_bytes": 60_000_000,
        "rubis_clients": 20, "rubis_warmup_s": 0.5, "rubis_measured_s": 1.0,
        # 20 clients saturate the web micros, so HIP's CPU cost shows as lost
        # simulated throughput; the smoke size does not load them enough.
        "rubis_saturated": True,
        "hip_vms": 6, "hip_data_bytes": 600_000,
        "scale_sim_s": 2.5,
        "scale": ScaleParams(
            n_zones=2, n_clients=16, n_web=2, n_filler_vms=60, n_racks=2,
            hosts_per_rack=4, media_prob=0.02, media_bytes=2 << 20,
            media_window=65536, n_fleets=4, fleet_size=3,
            fleet_placement="affinity",
        ),
    },
    "smoke": {
        "iperf_bytes": 2_000_000,
        "rubis_clients": 4, "rubis_warmup_s": 0.1, "rubis_measured_s": 0.3,
        "rubis_saturated": False,
        "hip_vms": 2, "hip_data_bytes": 20_000,
        "scale_sim_s": 0.3,
        "scale": ScaleParams(
            n_zones=2, n_clients=3, n_web=1, n_filler_vms=4, n_racks=1,
            hosts_per_rack=2, media_prob=0.02, n_fleets=2, fleet_size=3,
            fleet_placement="affinity",
        ),
    },
}

#: Simulated seconds granted after a job for packets in flight to land, so
#: "every protected packet was verified" is exact rather than racy.
DRAIN_SIM_S = 1.0


@dataclass
class Outcome:
    """What one repeat of a job did, as seen through return values."""

    attempted: int  # operations, in the workload's own unit
    failed: int
    ops: float  # numerator of ops_per_wall_s
    sim: dict  # the simulated results; must repeat bit-for-bit
    violations: list[str] = field(default_factory=list)  # failed output checks
    #: host seconds per named phase, when ``ops`` belongs to one phase only
    phases: dict[str, float] = field(default_factory=dict)
    ops_phase: str | None = None


#: ``span(name)`` is the driver's context manager (``Spans.span``): a job with
#: phases opens one around each, so they land among the driver spans.
Span = Callable[[str], Any]


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # the unit ``ops_per_wall_s`` counts
    why: str
    setup: Callable[[int, dict], Any]
    run: Callable[[Any, dict, Span], Outcome]
    close: Callable[[Any], None]
    #: objects the work counts are read from (daemons, proxies, clouds, shards)
    observe: Callable[[Any, dict], dict]
    #: whether real AES blocks are expected; where not, a single one fails the
    #: repeat.  rubis_hip asks for ``HipConfig(real_crypto=False)`` as the
    #: paper runs do, but at c292c0a that option is never read: ESP encrypts
    #: every real-byte payload, so the HTTP bytes of rubis_hip are AES'd too.
    real_aes: bool = False


def sim_digest(sim_results: dict) -> str:
    """SHA-256 of the simulated results: compare two commits at a glance."""
    blob = json.dumps(sim_results, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------- iperf_plain --


@dataclass
class _IperfRig:
    sim: Simulator
    server_tcp: TcpStack
    client_tcp: TcpStack
    server_addr: Any


def _iperf_setup(seed: int, size: dict) -> _IperfRig:
    # A lossless LAN draws no random numbers: the job is the same for every seed.
    sim = Simulator()
    node_a, node_b = lan_pair(sim)
    return _IperfRig(sim, TcpStack(node_b), TcpStack(node_a), node_b.addresses()[0])


def _iperf_run(rig: _IperfRig, size: dict, span: Span) -> Outcome:
    n_bytes = size["iperf_bytes"]
    done = rig.sim.process(
        run_iperf(rig.server_tcp, rig.client_tcp, rig.server_addr, n_bytes)
    )
    res = rig.sim.run(until=done)
    return Outcome(
        attempted=n_bytes, failed=n_bytes - res.bytes_received,
        ops=res.bytes_received / 1e6,
        sim={
            "bytes_received": res.bytes_received, "duration_s": res.duration,
            "first_byte_at_s": res.first_byte_at,
            "goodput_mbps": res.throughput_mbps,
        },
        violations=[] if res.bytes_received == n_bytes else ["bytes received != sent"],
    )


# -------------------------------------------------------------------- rubis_* --


def _rubis_setup(security: str) -> Callable[[int, dict], Any]:
    def setup(seed: int, size: dict):
        return build_rubis_cloud(seed=seed, security=security, cache_enabled=False)
    return setup


def _esp_totals(daemons) -> tuple[int, int, int, list[str]]:
    """(protected, verified, rejects, violations) over every association."""
    protected = verified = rejects = 0
    violations = []
    for daemon in daemons:
        for assoc in daemon.assocs.values():
            if not assoc.is_established:
                violations.append(
                    f"association {daemon.node.name}->{assoc.peer_hit} is {assoc.state}"
                )
                continue
            protected += assoc.sa_out.packets_protected
            verified += assoc.sa_in.packets_verified
            rejects += assoc.sa_in.replay_drops + assoc.sa_in.auth_failures
    if protected != verified:
        violations.append(f"ESP protected {protected} != verified {verified}")
    if rejects:
        violations.append(f"{rejects} ESP rejects")
    return protected, verified, rejects, violations


def _rubis_run(dep, size: dict, span: Span) -> Outcome:
    clients = ClosedLoopClients(
        dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
        n_clients=size["rubis_clients"], rng=dep.rngs.stream("bench-clients"),
        warmup=size["rubis_warmup_s"],
    )
    sim = dep.sim
    res = sim.run(until=sim.process(clients.run(size["rubis_measured_s"])))
    sim.run(until=sim.now + DRAIN_SIM_S)
    latencies = sorted(res.latencies())
    violations = _esp_totals(dep.daemons.values())[3]
    if res.failures:
        violations.append(f"{res.failures} failed requests")
    return Outcome(
        attempted=len(res.samples), failed=res.failures, ops=res.successes,
        sim={
            "samples": len(res.samples), "successes": res.successes,
            "requests_per_s": res.throughput,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "latency_mean_ms": res.mean_latency() * 1e3,
        },
        violations=violations,
    )


def _rubis_observe(dep, size: dict) -> dict:
    return {"daemons": list(dep.daemons.values()), "proxies": [dep.lb],
            "vms": len(dep.provider.instances)}


# ------------------------------------------------------------- hip_realcrypto --

_DATA_PORT = 7000


@dataclass
class _HipRig:
    sim: Simulator
    rngs: RngStreams
    cloud: PublicCloud
    daemons: list
    tcps: list


def _hip_setup(seed: int, size: dict) -> _HipRig:
    sim = Simulator()
    rngs = RngStreams(seed)
    cloud = PublicCloud(sim)
    cloud.placement = SpreadPlacement()
    tenant = Tenant("bench-realcrypto")
    vms = [cloud.launch(tenant, "t1.micro", name=f"vm{i}")
           for i in range(size["hip_vms"])]
    ident_rng = rngs.stream("hip-ident")
    daemons = [
        HipDaemon(
            vm, HostIdentity.generate(ident_rng, "rsa", rsa_bits=1024),
            rng=rngs.stream(f"hipd-{vm.name}"), config=HipConfig(real_crypto=True),
        )
        for vm in vms
    ]
    for a in daemons:
        for b, vm_b in zip(daemons, vms):
            if a is not b:
                a.add_peer(b.hit, [vm_b.primary_address])
    return _HipRig(sim, rngs, cloud, daemons, [TcpStack(vm) for vm in vms])


def _hip_run(rig: _HipRig, size: dict, span: Span) -> Outcome:
    sim, daemons = rig.sim, rig.daemons
    n = len(daemons)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]

    def all_pairs():
        for a, b in pairs:
            yield from daemons[a].associate(daemons[b].hit)

    with span("bex") as bex:
        sim.run(until=sim.process(all_pairs()))
    established = sum(
        1 for a, b in pairs
        if daemons[a].assocs[daemons[b].hit].is_established
        and daemons[b].assocs[daemons[a].hit].is_established
    )
    bex_sim_s = sim.now

    # Real bytes through the first pair's SAs: AES-128-CBC + HMAC-SHA1 per packet.
    payload = rig.rngs.stream("bench-payload").randbytes(size["hip_data_bytes"])
    sa_out = daemons[0].assocs[daemons[1].hit].sa_out
    protected_before = sa_out.packets_protected
    received = []

    def server():
        listener = rig.tcps[1].listen(_DATA_PORT)
        conn = yield listener.accept()
        data = yield from conn.recv_bytes(len(payload))
        received.append(bytes(data))
        conn.close()
        listener.close()

    def client():
        conn = yield sim.process(
            rig.tcps[0].open_connection(daemons[1].hit, _DATA_PORT)
        )
        conn.write(payload)
        conn.close()
        yield conn.closed

    served = sim.process(server())
    sim.process(client())
    with span("data") as data:
        sim.run(until=served)
    data_sim_s = sim.now - bex_sim_s
    data_packets = sa_out.packets_protected - protected_before
    sim.run(until=sim.now + DRAIN_SIM_S)

    intact = bool(received) and received[0] == payload
    protected, verified, rejects, violations = _esp_totals(daemons)
    if established != len(pairs):
        violations.append(f"{len(pairs) - established} associations not ESTABLISHED")
    if not intact:
        violations.append("payload received != payload sent")
    return Outcome(
        attempted=len(pairs) + data_packets,
        failed=(len(pairs) - established) + (0 if intact else data_packets)
        + (protected - verified),
        ops=data_packets, ops_phase="data",
        phases={"bex": Spans.seconds(bex), "data": Spans.seconds(data)},
        sim={
            "handshakes": established, "bex_sim_s": bex_sim_s,
            "data_packets": data_packets, "data_sim_s": data_sim_s,
            "esp_protected": protected, "esp_verified": verified,
            "payload_sha256": hashlib.sha256(received[0] if received else b"").hexdigest(),
        },
        violations=violations,
    )


def _hip_observe(rig: _HipRig, size: dict) -> dict:
    return {"daemons": rig.daemons, "vms": len(rig.cloud.instances)}


# -------------------------------------------------------------- scale_sharded --


def scale_setup(parallel: bool) -> Callable[[int, dict], ShardedSimulation]:
    def setup(seed: int, size: dict) -> ShardedSimulation:
        params = size["scale"]
        cores = os.cpu_count() or 1
        if parallel and cores < params.n_zones:
            raise RuntimeError(
                f"scale_sharded forks {params.n_zones} workers but this host has "
                f"{cores} core(s): the result would be hardware-limited; not reporting"
            )
        return ShardedSimulation(
            scale_builders(params), seed, parallel=parallel, adaptive=True
        )
    return setup


def _scale_run(sharded: ShardedSimulation, size: dict, span: Span) -> Outcome:
    per_zone = sharded.run(size["scale_sim_s"])
    sessions = sum(z["sessions"] for z in per_zone.values())
    errors = sum(z["errors"] for z in per_zone.values())
    stats = sharded.sync_stats()
    return Outcome(
        attempted=sessions + errors, failed=errors, ops=sessions,
        sim={
            "per_zone": per_zone, "boundary_digest": sharded.boundary_digest,
            "windows": stats["windows"], "envelopes": stats["envelopes_routed"],
        },
        violations=[f"{errors} session errors"] if errors else [],
    )


def _scale_close(sharded: ShardedSimulation) -> None:
    """Nothing to do: ``run()`` stops and reaps its workers, also on error,
    and so does a constructor that fails."""


def _scale_observe(sharded: ShardedSimulation, size: dict) -> dict:
    # The zones live inside the workers; the VM count is what the builders
    # were asked to launch (web + db + media + fillers per zone, plus fleets).
    p = size["scale"]
    vms = p.n_zones * (p.n_web + 2 + p.n_filler_vms) + p.n_fleets * p.fleet_size
    return {"sharded": sharded, "vms": vms}


def _close_sim(rig) -> None:
    rig.sim.close()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "iperf_plain", "simulated MB delivered",
            "Bulk TCP over one plain IPv4 hop, packet mode: tcp, engine, link and "
            "node do all the work; hip, crypto, apps, cloud and shard do none - "
            "the bypass workload for every security, app or shard change.",
            _iperf_setup, _iperf_run, _close_sim, lambda rig, size: {},
        ),
        Workload(
            "rubis_basic", "ok requests",
            "Paper Fig. 2 baseline: 20 closed-loop clients against the RUBiS "
            "cloud in the clear - hundreds of short connections and multi-hop "
            "forwarding use the same TCP/link code differently from iperf_plain.",
            _rubis_setup("basic"), _rubis_run, _close_sim, _rubis_observe,
        ),
        Workload(
            "rubis_hip", "ok requests",
            "The paper's headline comparison: the rubis_basic load with the "
            "LB-web-db hops under HIP/ESP; the extra host time is hip.daemon, "
            "hip.esp and crypto (ESP encrypts the HTTP bytes for real).",
            _rubis_setup("hip"), _rubis_run, _close_sim, _rubis_observe,
            real_aes=True,
        ),
        Workload(
            "hip_realcrypto", "ESP packets protected (phase data)",
            "Crypto and HIP alone: phase bex is 15 RSA-1024 base exchanges "
            "(asymmetric, once per peer pair), phase data is real AES-128-CBC + "
            "HMAC-SHA1 per packet through the SAs; all else is negligible.",
            _hip_setup, _hip_run, _close_sim, _hip_observe, real_aes=True,
        ),
        Workload(
            "scale_sharded", "sessions",
            "ROADMAP north-star figure at sandbox size: two RUBiS zones on two "
            "forked shard workers (= nproc) - sync windows, frame codec, fork "
            "IPC, fluid TCP and cloud placement; nothing else touches sim.shard.",
            scale_setup(parallel=True), _scale_run, _scale_close, _scale_observe,
        ),
    )
}
