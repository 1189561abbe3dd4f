"""The metric catalogue: every name the benchmark prints, with unit and clock.

``BENCHMARK.json`` at the repo root lists the same names in the driver's
schema (name / unit / better / bound); this module adds what that schema has
no room for — which **clock** a number is on (``host``: wall seconds of this
machine; ``sim``: seconds of the modelled cloud; ``-``: a pure count), what
it measures, and which end-to-end metric each layer metric is predicted to
move.  ``bench/test_smoke.py`` checks the two stay in step.
"""

from __future__ import annotations

from dataclasses import dataclass

from bench.layers import LAYERS

#: Host seconds one driver run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    clock: str  # "host" | "sim" | "-"
    what: str
    bound: float | None = None  # end-to-end only: share of the parent's median


#: What a user of the simulator sees.  Every workload reports all four;
#: ``ops_per_wall_s`` counts the workload's own unit of work (``Workload.op``).
END_TO_END = (
    Metric("setup_s", "s", "lower", "host",
           "import the program + build the deployment (median build of the run)",
           bound=0.25),
    Metric("run_wall_s", "s", "lower", "host",
           "one repeat of the fixed simulated job (median of the run)", bound=0.25),
    Metric("ops_per_wall_s", "1/s", "higher", "host",
           "work completed per host second (median of per-repeat rates)",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "max RSS of the driver and its reaped shard workers", bound=0.10),
)

#: The simulated job's own results.  They repeat bit-for-bit for one seed,
#: so the benchmark *checks* them (every repeat identical, ``sim_digest``
#: printed) instead of bounding them; they are listed with the layer metrics
#: because the driver's schema bounds end-to-end metrics as a share of a
#: median taken across seeds, which cannot express "exactly equal".
SIM_RESULTS = (
    Metric("sim.result.goodput_mbps", "Mbit/s", "higher", "sim",
           "IperfResult.throughput_mbps (iperf_plain)"),
    Metric("sim.result.requests_per_s", "1/s", "higher", "sim",
           "WorkloadResult.throughput, Fig. 2's y-axis (rubis_*)"),
    Metric("sim.result.latency_p50_ms", "ms", "lower", "sim",
           "median simulated request latency after warm-up (rubis_*)"),
    Metric("sim.result.latency_p90_ms", "ms", "lower", "sim",
           "p90 simulated request latency; >=10 samples lie beyond it (rubis_*)"),
)

_TRACE = tuple(
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_s", "s", "lower", "host",
               "traced repeat: host time inside the layer's own functions"),
        Metric(f"{layer}.self_share", "share", "lower", "host",
               "self_s over the sum of all layers' self_s"),
        Metric(f"{layer}.calls_in", "count", "lower", "-",
               "traced repeat: calls crossing into the layer from another one"),
    )
) + (
    Metric("trace.overhead_x", "x", "lower", "host",
           "traced run_wall_s / untraced run_wall_s of the same job"),
)


def _count(name: str, what: str, unit: str = "count", better: str = "lower",
           clock: str = "-") -> Metric:
    return Metric(name, unit, better, clock, what)


#: Work counts: read after an untraced repeat from public counters and
#: objects; exact-repeat for one seed.  A count whose source is absent is
#: printed as ``null`` in the ledger and as 0 on the driver's result line.
WORK_COUNTS = (
    _count("sim.engine.events", "engine heap entries dispatched"),
    _count("sim.engine.us_per_event", "run_wall_s / events", "us", clock="host"),
    _count("net.link.tx_packets", "packets serialized onto links"),
    _count("net.link.tx_bytes", "bytes serialized onto links", "B"),
    _count("net.link.queue_drops", "packets refused by a full egress queue"),
    _count("net.link.lost_packets", "packets lost by the loss model"),
    _count("net.tcp.segments_sent", "TCP segments handed to IP"),
    _count("net.tcp.segments_retransmitted", "TCP retransmissions"),
    _count("net.tcp.connects", "active opens completed"),
    _count("net.tcp.fluid_byte_fraction",
           "payload bytes moved by fluid fast-forward / link bytes", "share",
           "higher"),
    _count("hip.daemon.bex_completed", "base exchanges completed (both roles)"),
    _count("hip.daemon.data_packets_sent", "packets sent through an SA"),
    _count("hip.daemon.drops", "no-mapping + policy + ESP drops"),
    _count("hip.daemon.handshakes_per_wall_s",
           "base exchanges per host second of phase bex (hip_realcrypto)",
           "1/s", "higher", "host"),
    _count("hip.esp.packets_protected", "ESP packets protected"),
    _count("hip.esp.packets_verified", "ESP packets verified"),
    _count("hip.esp.rejects", "replay drops + authentication failures"),
    _count("crypto.aes_blocks", "real AES block operations"),
    _count("crypto.hmac_ops", "real HMAC computations"),
    _count("crypto.asym_ops", "asymmetric operations charged on daemon meters"),
    _count("apps.proxy.requests", "requests the reverse proxy accepted"),
    _count("apps.proxy.upstream_errors", "upstream failures"),
    _count("apps.proxy.pool_reuse_ratio",
           "pooled upstream connections reused / (reused + dialled)", "share",
           "higher"),
    _count("cloud.vms", "virtual machines launched"),
    _count("sim.shard.windows", "synchronization windows"),
    _count("sim.shard.envelopes", "cross-shard envelopes routed"),
    _count("sim.shard.envelopes_per_window", "useful outcomes per barrier",
           "count", "higher"),
    _count("sim.shard.frame_bytes", "bytes of window frames, both directions", "B"),
    _count("sim.shard.worker_busy_s", "sum of workers' in-window wall time",
           "s", clock="host"),
    _count("sim.shard.worker_cpu_s",
           "CPU seconds of the reaped workers (RUSAGE_CHILDREN)", "s",
           clock="host"),
    _count("sim.shard.idle_fraction", "mean share of window wall a worker idled",
           "share", clock="host"),
    _count("sim.shard.forked_over_inline",
           "forked run_wall_s / inline run_wall_s of the same job", "x",
           clock="host"),
)


def _rate(name: str, what: str) -> Metric:
    return Metric(name, "1/s", "higher", "host", what)


#: Direct drive: the layer's public functions timed alone (``bench.direct``).
DIRECT = (
    _rate("sim.engine.call_later_events_per_s", "call_later chain through Simulator.run"),
    _rate("sim.engine.process_events_per_s", "generator process yielding timeouts"),
    _rate("net.link.send_packets_per_s",
          "Interface.send -> serializer -> delivery to a sink on the peer node"),
    _rate("hip.daemon.i2_parse_serialize_per_s", "HipPacket.parse + serialize of an I2"),
    _rate("hip.esp.virtual_roundtrip_per_s", "SA protect+verify, virtual payload"),
    _rate("hip.esp.real_1400B_roundtrip_per_s", "SA protect+verify, 1400 real bytes"),
    _rate("hip.esp.real_64B_roundtrip_per_s", "SA protect+verify, 64 real bytes"),
    _rate("crypto.aes_cbc_1400B_per_s", "cbc_encrypt of 1400 bytes"),
    _rate("crypto.hmac_sha1_1400B_per_s", "HmacKey.digest of 1400 bytes"),
    _rate("crypto.rsa1024_sign_per_s", "RsaKeyPair.sign"),
    _rate("crypto.rsa1024_verify_per_s", "RsaPublicKey.verify"),
    _rate("crypto.dh_shared_per_s", "DHKeyPair.shared_secret, MODP group 1"),
    _rate("crypto.ecdsa_p256_sign_per_s", "EcdsaKeyPair.sign"),
    _rate("crypto.puzzle_k8_solve_per_s", "solve_puzzle at K=8"),
    _rate("sim.shard.frame_codec_envelopes_per_s",
          "encode_envelopes + decode_envelopes, per envelope"),
)

PER_LAYER = _TRACE + WORK_COUNTS + SIM_RESULTS + DIRECT

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


#: Predictions written down before measuring: a layer metric, the end-to-end
#: metric it should move and where, and where it must not move anything.
#: Every simulator is one Python thread, so a faster layer saves at most its
#: ``self_share`` of ``run_wall_s``; only ``scale_sharded`` has contention.
INTERACTIONS = (
    ("sim.engine.self_s, sim.engine.us_per_event, sim.engine.call_later_events_per_s",
     "ops_per_wall_s, run_wall_s (~15 % share)",
     "all but hip_realcrypto", "hip_realcrypto"),
    ("net.tcp.self_s, net.tcp.segments_sent",
     "ops_per_wall_s (35 % on iperf_plain; 17 % / 7 % on rubis_basic / rubis_hip)",
     "iperf_plain, rubis_basic, rubis_hip", "hip_realcrypto"),
    ("net.link.self_s, net.node.self_s, net.link.send_packets_per_s",
     "ops_per_wall_s (42 % combined on rubis_basic, 39 % on scale_sharded)",
     "rubis_basic, scale_sharded, then iperf_plain (28 %)", "hip_realcrypto"),
    ("hip.daemon.self_s, hip.esp.self_s, hip.esp.virtual_roundtrip_per_s, "
     "crypto.self_s (cost-model path)",
     "ops_per_wall_s (~26 % direct, plus induced engine/node work)",
     "rubis_hip", "rubis_basic, iperf_plain, scale_sharded"),
    ("crypto.aes_cbc_1400B_per_s, crypto.hmac_sha1_1400B_per_s, "
     "hip.esp.real_*_roundtrip_per_s",
     "ops_per_wall_s (ESP packets of phase data)", "hip_realcrypto",
     "hip.daemon.handshakes_per_wall_s; every other workload "
     "(crypto.aes_blocks stays 0 there)"),
    ("crypto.rsa1024_*, crypto.dh_shared_per_s, crypto.puzzle_k8_solve_per_s, "
     "hip.daemon.i2_parse_serialize_per_s",
     "run_wall_s via phase bex (hip.daemon.handshakes_per_wall_s); setup_s (keygen)",
     "hip_realcrypto; setup_s also on rubis_hip", "ops_per_wall_s of hip_realcrypto"),
    ("apps.proxy.*, apps.rubis.self_s",
     "ops_per_wall_s (<=5 % on rubis_*: below the bound, report as unresolved; "
     "~9 % on scale_sharded)",
     "rubis_basic, scale_sharded", "iperf_plain"),
    ("apps.workload.self_s",
     "nothing: above ~5 % share the benchmark is measuring its own load generator",
     "-", "-"),
    ("metrics.self_share",
     "ops_per_wall_s (ROADMAP item 2 budget: <=2 %)", "iperf_plain first",
     "sim.result.*"),
    ("sim.shard.windows, envelopes_per_window, worker_busy_s, idle_fraction, "
     "forked_over_inline, frame_codec_envelopes_per_s",
     "ops_per_wall_s", "scale_sharded only", "the other four"),
    ("cloud.vms", "setup_s", "scale_sharded, rubis_*",
     "ops_per_wall_s, run_wall_s (cloud.self_s covers run only and should stay ~0)"),
)
