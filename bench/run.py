#!/usr/bin/env python3
"""The benchmark's one command.

Driver contract (one workload, one pass, result on the last line)::

    python3 bench/run.py --workload rubis_hip --seed 7 --seconds 16 --trace 0
    python3 bench/run.py --workload rubis_hip --seed 7 --seconds 16 --trace 1

``--trace 0`` repeats the fixed job for ``--seconds`` host seconds after one
warm-up repeat and prints the end-to-end metrics (medians over the repeats);
``--trace 1`` runs one untraced and one profiled repeat and prints every
per-layer metric.  Without ``--workload`` every workload runs both passes and
the whole ledger is printed (``--ledger PATH`` also writes it as JSON);
``--selfcheck`` runs the end-to-end set twice and fails if the two disagree
by more than a metric's own bound; ``--direct`` prints only the direct-drive
layer table; ``--smoke`` shrinks every job for ``bench/test_smoke.py``.

Every number names its clock: **host** (wall seconds of this machine) or
**sim** (seconds of the modelled cloud).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# setup_s includes what a user pays before the first deployment can be built:
# importing the program.  It is paid once per process, so it is timed once.
_import_start = time.perf_counter()
from bench import workloads  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _import_start

from bench import direct  # noqa: E402
from bench.layers import LAYERS  # noqa: E402
from bench.metrics import (  # noqa: E402
    BY_NAME, END_TO_END, INTERACTIONS, PER_LAYER, RUN_SECONDS,
)
from bench.trace import LayerProfile, Spans, profiled  # noqa: E402
from bench.workloads import (  # noqa: E402
    SIZES, WORKLOADS, Outcome, Workload, scale_setup, sim_digest,
)
from repro.metrics import METRICS  # noqa: E402

MIN_TIMED_REPEATS = 3

#: Share of ``--seconds`` each direct-drive rate gets inside a traced pass
#: (15 rates: about a quarter of the run in all); ``--direct`` gives each 1 s.
DIRECT_SHARE = 1 / 64

#: Work count → the public registry counter it is read from.
_REGISTRY_COUNTS = {
    "sim.engine.events": "sim.steps",
    "net.link.tx_packets": "link.tx_packets",
    "net.link.tx_bytes": "link.tx_bytes",
    "net.link.queue_drops": "link.queue_drops",
    "net.link.lost_packets": "link.lost_packets",
    "net.tcp.segments_sent": "tcp.segments_sent",
    "net.tcp.segments_retransmitted": "tcp.segments_retransmitted",
    "net.tcp.connects": "tcp.connects",
    "hip.daemon.bex_completed": "hip.bex_completed",
    "hip.daemon.data_packets_sent": "hip.data_packets_sent",
    "hip.esp.packets_protected": "esp.packets_protected",
    "hip.esp.packets_verified": "esp.packets_verified",
    "crypto.aes_blocks": "crypto.aes_blocks",
    "crypto.hmac_ops": "crypto.hmac_ops",
    "apps.proxy.requests": "proxy.requests",
    "apps.proxy.upstream_errors": "proxy.upstream_errors",
}


@dataclass
class Repeat:
    """One repeat of a job, timed from outside."""

    build_s: float = 0.0
    run_wall_s: float = 0.0
    outcome: Outcome | None = None
    counts: dict = field(default_factory=dict)
    profile: LayerProfile | None = None
    children_cpu_s: float = 0.0
    crash: str | None = None

    @property
    def ok(self) -> bool:
        return self.crash is None and not self.outcome.violations

    @property
    def ops_per_wall_s(self) -> float:
        out = self.outcome
        wall = out.phases[out.ops_phase] if out.ops_phase else self.run_wall_s
        return out.ops / wall


def _ratio(num, den):
    return None if num is None or not den else num / den


def _sum_known(*values):
    return None if any(v is None for v in values) else sum(values)


def work_counts(observed: dict, repeat: Repeat) -> dict:
    """Kind-2 per-layer metrics: exact-repeat counts from public counters.

    A source that is absent (a renamed registry counter, no daemons in this
    workload) yields ``None``, never an exception.
    """
    reg = {counter.name: counter.value for counter in METRICS.counters()}
    counts = {name: reg.get(source) for name, source in _REGISTRY_COUNTS.items()}
    events = counts["sim.engine.events"]
    counts["sim.engine.us_per_event"] = _ratio(repeat.run_wall_s * 1e6, events)
    counts["net.tcp.fluid_byte_fraction"] = _ratio(
        reg.get("tcp.fluid_bytes"), counts["net.link.tx_bytes"]
    )
    counts["hip.esp.rejects"] = _sum_known(
        reg.get("esp.replay_drops"), reg.get("esp.auth_failures")
    )
    reuses, dials = reg.get("proxy.pool_reuses"), reg.get("proxy.upstream_dials")
    counts["apps.proxy.pool_reuse_ratio"] = _ratio(reuses, _sum_known(reuses, dials))
    counts["cloud.vms"] = observed.get("vms")

    daemons = observed.get("daemons")
    if daemons:  # the objects the driver holds beat the process-global registry
        counts["hip.daemon.bex_completed"] = sum(d.bex_completed for d in daemons)
        counts["hip.daemon.data_packets_sent"] = sum(d.data_packets_sent for d in daemons)
        counts["hip.daemon.drops"] = sum(
            d.drops_no_mapping + d.drops_policy + d.drops_esp for d in daemons
        )
        counts["crypto.asym_ops"] = sum(d.meter.total_ops("asym.") for d in daemons)
    else:
        counts["hip.daemon.drops"] = _sum_known(
            reg.get("hip.drops_no_mapping"), reg.get("hip.drops_policy"),
            reg.get("hip.esp_drops"),
        )
        counts["crypto.asym_ops"] = None
    phases = repeat.outcome.phases
    counts["hip.daemon.handshakes_per_wall_s"] = _ratio(
        repeat.outcome.sim.get("handshakes"), phases.get("bex")
    )

    sharded = observed.get("sharded")
    if sharded is not None:
        stats = sharded.sync_stats()
        shards = stats["per_shard"].values()
        idle = [s["idle_fraction"] for s in shards if s["idle_fraction"] is not None]
        counts.update({
            "sim.shard.windows": stats["windows"],
            "sim.shard.envelopes": stats["envelopes_routed"],
            "sim.shard.envelopes_per_window": stats["envelopes_per_window"],
            "sim.shard.frame_bytes": stats["frame_bytes_tx"] + stats["frame_bytes_rx"],
            "sim.shard.worker_busy_s": sum(s["busy_s"] for s in shards),
            "sim.shard.worker_cpu_s": repeat.children_cpu_s,
            "sim.shard.idle_fraction": statistics.fmean(idle) if idle else None,
        })
    return counts


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Max RSS of this process and of the children it has reaped, in MB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def one_repeat(workload: Workload, seed: int, size: dict, spans: Spans,
               traced: bool = False, setup=None) -> Repeat:
    """setup → run → close, each under a driver span; never raises."""
    repeat = Repeat()
    spans.repeat += 1
    gc.collect()
    METRICS.reset()
    cpu_before = _children_cpu_s()
    handle = None
    try:
        with spans.span("setup") as span:
            handle = (setup or workload.setup)(seed, size)
        repeat.build_s = Spans.seconds(span)
        with spans.span("run") as span:
            if traced:
                repeat.outcome, repeat.profile = profiled(
                    lambda: workload.run(handle, size, spans.span)
                )
            else:
                repeat.outcome = workload.run(handle, size, spans.span)
        repeat.run_wall_s = Spans.seconds(span)
        repeat.children_cpu_s = _children_cpu_s() - cpu_before
        repeat.counts = work_counts(workload.observe(handle, size), repeat)
    except Exception:  # the run must go on to report the failure
        repeat.crash = traceback.format_exc()
    finally:
        if handle is not None:
            with spans.span("close"):
                workload.close(handle)
    return repeat


@dataclass
class Pass:
    """Everything one pass over one workload produced."""

    workload: Workload
    seed: int
    repeats: list[Repeat]  # timed repeats (the warm-up is not among them)
    spans: Spans
    violations: list[str]
    sim: dict
    metrics: dict  # name -> value, or None where the source is absent
    samples: dict = field(default_factory=dict)  # name -> per-repeat values
    edges: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.violations

    @property
    def attempted(self) -> int:
        return max(1, sum(self._ops(r)[0] for r in self.repeats))

    @property
    def failed(self) -> int:
        if not self.correct and all(r.ok for r in self.repeats):
            return self.attempted  # a cross-repeat check failed: trust nothing
        return sum(self._ops(r)[1] for r in self.repeats)

    def _ops(self, repeat: Repeat) -> tuple[int, int]:
        """(attempted, failed); a repeat that fails a check fails all its ops."""
        if repeat.crash is not None:
            nominal = next((r.outcome.attempted for r in self.repeats if r.outcome), 1)
            return nominal, nominal
        out = repeat.outcome
        return out.attempted, (out.failed if repeat.ok else out.attempted)


def _check_repeats(workload: Workload, repeats: list[Repeat]) -> tuple[list[str], dict]:
    """Output checks over a list of repeats of the same job."""
    violations: list[str] = []
    digests = set()
    sim: dict = {}
    for i, repeat in enumerate(repeats):
        if repeat.crash is not None:
            violations.append(f"repeat {i} crashed:\n{repeat.crash}")
            continue
        violations += [f"repeat {i}: {v}" for v in repeat.outcome.violations]
        aes = repeat.counts.get("crypto.aes_blocks")
        if aes and not workload.real_aes:
            violations.append(f"repeat {i}: {aes} real AES blocks on a plaintext workload")
        digests.add(sim_digest(repeat.outcome.sim))
        sim = repeat.outcome.sim
    if len(digests) > 1:
        violations.append("simulated results differ between repeats of one seed"
                          " (for scale_sharded: or between forked and inline)")
    return violations, sim


def _paper_shape(seed: int, size: dict, spans: Spans, hip_sim: dict) -> list[str]:
    """rubis_hip only: one rubis_basic job with the same seed and load must
    complete more simulated requests per second (the paper's Fig. 2 shape)."""
    if not size["rubis_saturated"]:
        return []
    spans.workload = "rubis_hip/basic-reference"
    basic = one_repeat(WORKLOADS["rubis_basic"], seed, size, spans)
    spans.workload = "rubis_hip"
    if basic.crash is not None:
        return [f"rubis_basic reference crashed:\n{basic.crash}"]
    hip_rps, basic_rps = hip_sim["requests_per_s"], basic.outcome.sim["requests_per_s"]
    if hip_rps < basic_rps:
        return []
    return [f"paper shape lost: sim requests/s hip {hip_rps} >= basic {basic_rps}"]


def end_to_end_pass(workload: Workload, seed: int, seconds: float, size: dict) -> Pass:
    """Warm-up, then repeat the job for ``seconds`` host seconds, tracing off."""
    spans = Spans(workload.name)
    checked = [one_repeat(workload, seed, size, spans)]  # the warm-up
    repeats: list[Repeat] = []
    start = time.perf_counter()
    while True:
        repeats.append(one_repeat(workload, seed, size, spans))
        enough = (time.perf_counter() - start >= seconds
                  and len(repeats) >= MIN_TIMED_REPEATS)
        if enough or repeats[-1].crash is not None:
            break
    if workload.name == "scale_sharded":
        # The referee: one inline repeat must reproduce the forked runs'
        # boundary digest, window counts and per-zone results.
        checked.append(one_repeat(workload, seed, size, spans,
                                  setup=scale_setup(parallel=False)))
    violations, sim = _check_repeats(workload, checked + repeats)
    if not violations and workload.name == "rubis_hip":
        violations += _paper_shape(seed, size, spans, sim)
    good = [r for r in repeats if r.crash is None]
    samples = {
        "setup_s": [IMPORT_S + r.build_s for r in good],
        "run_wall_s": [r.run_wall_s for r in good],
        "ops_per_wall_s": [r.ops_per_wall_s for r in good],
    }
    metrics = {k: statistics.median(v) if v else None for k, v in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Pass(workload, seed, repeats, spans, violations, sim, metrics, samples)


def traced_pass(workload: Workload, seed: int, size: dict, direct_budget_s: float) -> Pass:
    """One untraced and one profiled repeat, plus the direct-drive table."""
    spans = Spans(workload.name)
    forked = None
    setup = None
    if workload.name == "scale_sharded":
        # Traced inline so both shards' work is visible to the profiler; the
        # fork-only numbers come from one forked repeat.
        setup = scale_setup(parallel=False)
        one_repeat(workload, seed, size, spans, setup=setup)  # warm-up
        forked = one_repeat(workload, seed, size, spans)
    else:
        one_repeat(workload, seed, size, spans)  # warm-up
    plain = one_repeat(workload, seed, size, spans, setup=setup)
    traced = one_repeat(workload, seed, size, spans, traced=True, setup=setup)
    repeats = [r for r in (forked, plain, traced) if r is not None]
    violations, sim = _check_repeats(workload, repeats)
    if not violations and workload.name == "rubis_hip":
        violations += _paper_shape(seed, size, spans, sim)

    metrics: dict = {m.name: None for m in PER_LAYER}
    edges: dict = {}
    if not violations:
        metrics.update(plain.counts)
        if forked is not None:
            metrics.update({k: v for k, v in forked.counts.items()
                            if k.startswith("sim.shard.")})
            metrics["sim.shard.forked_over_inline"] = forked.run_wall_s / plain.run_wall_s
        profile = traced.profile
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = profile.self_s[layer]
            metrics[f"{layer}.self_share"] = profile.share(layer)
            metrics[f"{layer}.calls_in"] = profile.calls_in[layer]
        metrics["trace.overhead_x"] = traced.run_wall_s / plain.run_wall_s
        edges = profile.edges
        for key in ("goodput_mbps", "requests_per_s", "latency_p50_ms", "latency_p90_ms"):
            if key in sim:
                metrics[f"sim.result.{key}"] = sim[key]
        metrics.update({k: v["value"] for k, v in direct.measure(direct_budget_s).items()})
    return Pass(workload, seed, repeats, spans, violations, sim, metrics, edges=edges)


# -- reporting -----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_pass(result: Pass, names) -> None:
    w = result.workload
    print(f"== {w.name}  seed={result.seed}  op={w.op!r}  "
          f"timed repeats={len(result.repeats)}  sim_digest={sim_digest(result.sim)[:16]}")
    for name in names:
        meta = BY_NAME[name]
        extra = ""
        if name in result.samples and len(result.samples[name]) > 1:
            q1, _, q3 = statistics.quantiles(result.samples[name], n=4)
            extra = f"  [q1 {_fmt(q1)}, q3 {_fmt(q3)}, n={len(result.samples[name])}]"
        print(f"  {name:42s} {_fmt(result.metrics.get(name)):>14s} "
              f"{meta.unit:7s} {meta.clock:4s}{extra}")
    for name, values in result.samples.items():
        print(f"  samples {name}: {' '.join(_fmt(v) for v in values)}")
    for key, value in result.sim.items():
        if not isinstance(value, dict):
            print(f"  sim: {key} = {value}")
    for violation in result.violations:
        print(f"  CHECK FAILED: {violation}")


def print_trace_detail(result: Pass) -> None:
    """Boundary spans and driver spans of the traced pass."""
    if result.edges:
        print("  boundary spans (parent layer -> layer: calls, host-s below the edge)")
        ranked = sorted(result.edges.items(), key=lambda kv: -kv[1]["inclusive_s"])
        for (parent, layer), edge in ranked[:24]:
            print(f"    {parent:14s} -> {layer:14s} {edge['count']:>9d} "
                  f"{edge['inclusive_s']:9.4f}")
    print("  driver spans (repeat, name, host-s)")
    for record in result.spans.records:
        indent = "  " if record["parent"] is not None else ""
        print(f"    #{record['repeat']} {indent}{record['name']:8s} "
              f"{Spans.seconds(record):9.4f}  ({record['workload']})")


def result_line(result: Pass, names) -> str:
    """The driver's result: one JSON object, absent sources reported as 0."""
    metrics = {
        name: {"value": result.metrics.get(name) or 0, "unit": BY_NAME[name].unit}
        for name in names
    }
    return json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": metrics,
    })


def provenance(seed: int, size_name: str, seconds: float) -> dict:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "--short", "HEAD")
    if sha and git("status", "--porcelain"):
        sha += "-dirty"
    return {
        "git": sha or "unknown", "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "load_avg_1min_at_start": os.getloadavg()[0],
        "seed": seed, "size": size_name, "seconds_per_workload": seconds,
        "min_timed_repeats": MIN_TIMED_REPEATS, "import_s": IMPORT_S,
    }


def _pass_json(result: Pass, names) -> dict:
    return {
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "timed_repeats": len(result.repeats),
        "sim_digest": sim_digest(result.sim), "sim": result.sim,
        "violations": result.violations,
        "metrics": {n: result.metrics.get(n) for n in names},
        "samples": result.samples,
        "boundary_spans": [
            {"parent": p, "layer": c, **edge} for (p, c), edge in result.edges.items()
        ],
        "driver_spans": result.spans.records,
    }


E2E_NAMES = [m.name for m in END_TO_END]
LAYER_NAMES = [m.name for m in PER_LAYER]


def child_pass(args, workload: str, trace: int) -> dict:
    """One pass in a fresh interpreter, through the driver's own command.

    Import time and peak RSS belong to a process, so the many-workload modes
    give every pass its own; the child's table is echoed, its last line (the
    full pass as JSON) is returned.
    """
    command = [sys.executable, __file__, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--full-json"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    *table, last = done.stdout.rstrip("\n").split("\n")
    print("\n".join(table))
    return json.loads(last)


def run_ledger(args) -> int:
    """Every workload, both passes; the whole table; optional JSON."""
    ledger = {
        "schema": "repro-bench/1",
        "provenance": provenance(args.seed, args.size_name, args.seconds),
        "catalogue": [dataclasses.asdict(m) for m in END_TO_END + PER_LAYER],
        "predictions": [
            dict(zip(("layer_metrics", "should_move", "on", "should_not_move"), row))
            for row in INTERACTIONS
        ],
        "workloads": {},
    }
    ok = True
    for name, workload in WORKLOADS.items():
        e2e, traced = child_pass(args, name, 0), child_pass(args, name, 1)
        ok = ok and e2e["correct"] and traced["correct"]
        ledger["workloads"][name] = {
            "why": workload.why, "op": workload.op,
            "end_to_end": e2e, "per_layer": traced,
        }
    if args.ledger:
        pathlib.Path(args.ledger).write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"ledger written to {args.ledger}")
    print("ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def run_selfcheck(args) -> int:
    """The end-to-end set twice; fail if the two disagree beyond a bound."""
    sets = [{name: child_pass(args, name, 0) for name in WORKLOADS} for _ in range(2)]
    ok = True
    print(f"{'workload':15s} {'metric':15s} {'median A':>12s} {'median B':>12s} "
          f"{'gap':>8s} {'bound':>6s}  quartiles A | B")
    for name in WORKLOADS:
        first, second = sets[0][name], sets[1][name]
        if not (first["correct"] and second["correct"]):
            ok = False
            print(f"{name:15s} output checks failed: "
                  f"{first['violations'] + second['violations']}")
            continue
        if first["sim_digest"] != second["sim_digest"]:
            ok = False
            print(f"{name:15s} sim-clock results differ between the two sets")
        for metric in END_TO_END:
            a, b = first["metrics"][metric.name], second["metrics"][metric.name]
            gap = abs(b - a) / a
            ok = ok and gap <= metric.bound
            quartiles = " | ".join(
                "{:.4g}..{:.4g}".format(*statistics.quantiles(s, n=4)[::2])
                if len(s) > 1 else "-"
                for s in (first["samples"].get(metric.name, []),
                          second["samples"].get(metric.name, []))
            )
            print(f"{name:15s} {metric.name:15s} {a:12.5g} {b:12.5g} {gap:8.2%} "
                  f"{metric.bound:6.0%}  {quartiles}"
                  f"{'' if gap <= metric.bound else '  EXCEEDS BOUND'}")
    print("SELFCHECK PASSED" if ok else "SELFCHECK FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"host seconds measured per workload (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny jobs for the schema test; says nothing about speed")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--direct", action="store_true",
                        help="only the direct-drive layer table, >=1 s per rate")
    parser.add_argument("--ledger", metavar="PATH", help="also write the ledger as JSON")
    parser.add_argument("--full-json", action="store_true",
                        help="with --workload: the last line is the whole pass (spans, "
                             "samples, boundary spans), as the many-workload modes read it")
    args = parser.parse_args(argv)
    args.size_name = "smoke" if args.smoke else "full"
    size = SIZES[args.size_name]
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(RUN_SECONDS)

    if args.direct:
        for name, row in direct.measure(budget_s=1.0).items():
            print(f"{name:42s} {row['value']:14.6g} 1/s host  "
                  f"(n={row['iterations']})")
        return 0
    if args.selfcheck:
        return run_selfcheck(args)
    if args.workload is None:
        return run_ledger(args)

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced_pass(workload, args.seed, size, args.seconds * DIRECT_SHARE)
        names = LAYER_NAMES
    else:
        result = end_to_end_pass(workload, args.seed, args.seconds, size)
        names = E2E_NAMES
    print_pass(result, names)
    if args.trace:
        print_trace_detail(result)
    print(json.dumps(_pass_json(result, names)) if args.full_json
          else result_line(result, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
