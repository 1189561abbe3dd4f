"""Runtime replay sanitizer: the dynamic complement to the static rules.

The static checkers catch *syntactically visible* nondeterminism (wall-clock
reads, ambient randomness).  What they cannot see — iteration over a set of
objects buried behind an attribute, an unseeded draw threaded through a
callback — still leaves a fingerprint: the flight-recorder event stream of
two runs under the same seed will diverge.  So the sanitizer runs a scenario
twice, streams every recorded event through a SHA-256 digest (via the
recorder's ``sink`` tap, so ring eviction hides nothing), and compares.

Usage::

    from repro.analysis.replay import check_replay

    def scenario():
        dep = build_rubis_cloud(seed=7, security="basic")
        ...
        dep.sim.run(until=done)

    report = check_replay(scenario)
    assert report.deterministic, report.describe()

The scenario callable must construct *everything* fresh on each invocation
(simulator, topology, RNG streams) — module-global state it mutates is on it.
``METRICS`` and ``RECORDER`` are reset around each run and restored after.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable


def canonical_event(ev) -> str:
    """Stable one-line encoding of a TraceEvent (strict JSON, sorted keys)."""
    return json.dumps(
        [ev.t, ev.layer, ev.event, ev.fields],
        sort_keys=True,
        default=repr,
        allow_nan=False,
    )


@dataclass
class ReplayRun:
    """One instrumented execution of the scenario."""

    digest: str  # sha256 over the canonical event stream
    n_events: int
    tally: dict[str, int]
    counters_digest: str  # sha256 over the final METRICS counters and histograms
    events: list[str] = field(default_factory=list, repr=False)


@dataclass
class ReplayReport:
    """Outcome of the double-run comparison."""

    runs: list[ReplayRun]

    @property
    def deterministic(self) -> bool:
        first = self.runs[0]
        return all(
            run.digest == first.digest
            and run.counters_digest == first.counters_digest
            for run in self.runs[1:]
        )

    @property
    def first_divergence(self) -> tuple[int, str, str] | None:
        """(event index, run-0 line, run-1 line) of the first differing
        event, or None if the streams match (or diverge only in length)."""
        a, b = self.runs[0].events, self.runs[1].events
        for i, (ev_a, ev_b) in enumerate(zip(a, b)):
            if ev_a != ev_b:
                return i, ev_a, ev_b
        return None

    def describe(self) -> str:
        if self.deterministic:
            run = self.runs[0]
            return (
                f"deterministic: {run.n_events} events, "
                f"digest {run.digest[:16]}"
            )
        lines = [
            "replay divergence under identical seed:",
            *(
                f"  run {i}: {run.n_events} events, digest {run.digest[:16]}, "
                f"counters {run.counters_digest[:16]}"
                for i, run in enumerate(self.runs)
            ),
        ]
        div = self.first_divergence
        if div is not None:
            index, ev_a, ev_b = div
            lines += [
                f"  first differing event (#{index}):",
                f"    run 0: {ev_a}",
                f"    run 1: {ev_b}",
            ]
        elif self.runs[0].n_events != self.runs[1].n_events:
            lines.append(
                "  streams are a prefix of one another "
                f"({self.runs[0].n_events} vs {self.runs[1].n_events} events)"
            )
        return "\n".join(lines)


def record_run(
    scenario: Callable[[], object],
    *,
    keep_events: bool = True,
    max_kept_events: int = 250_000,
) -> ReplayRun:
    """Execute ``scenario`` once with the recorder tapped; return its digest.

    Resets ``METRICS``/``RECORDER`` before the run and restores the
    recorder's prior enabled/sink state afterwards, so the sanitizer can run
    inside a larger instrumented session without clobbering it.
    """
    from repro.metrics import METRICS, RECORDER

    hasher = hashlib.sha256()
    kept: list[str] = []
    n_events = 0

    def sink(ev) -> None:
        nonlocal n_events
        line = canonical_event(ev)
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
        n_events += 1
        if keep_events and len(kept) < max_kept_events:
            kept.append(line)

    prev_enabled, prev_sink = RECORDER.enabled, RECORDER.sink
    # GC fence.  A suspended process generator abandoned by an *earlier* run
    # (or an earlier test) is finalized whenever the collector gets around to
    # it — and its ``finally`` blocks can emit trace events or bump counters
    # mid-window, at GC-timing-dependent moments.  Collect that backlog now,
    # with the recorder off, so the measurement window starts clean.
    RECORDER.enabled = False
    RECORDER.sink = None
    gc.collect()
    METRICS.reset()
    RECORDER.clear()
    RECORDER.sink = sink
    RECORDER.enabled = True
    try:
        scenario()
        tally = RECORDER.tally()
    finally:
        RECORDER.sink = None
        RECORDER.enabled = False
        # Closing fence: finalize *this* run's orphans before the metric
        # snapshot, so their bumps land at a deterministic point (the trace
        # digest is safe either way — the recorder is already off).
        gc.collect()
        RECORDER.sink = prev_sink
        RECORDER.enabled = prev_enabled

    counters_digest = hashlib.sha256(
        json.dumps(METRICS.snapshot(), sort_keys=True).encode()
    ).hexdigest()
    return ReplayRun(
        digest=hasher.hexdigest(),
        n_events=n_events,
        tally=tally,
        counters_digest=counters_digest,
        events=kept,
    )


def check_replay(
    scenario: Callable[[], object],
    *,
    runs: int = 2,
    keep_events: bool = True,
) -> ReplayReport:
    """Run ``scenario`` ``runs`` times and compare event-stream digests."""
    if runs < 2:
        raise ValueError("replay comparison needs at least two runs")
    return ReplayReport(
        runs=[record_run(scenario, keep_events=keep_events) for _ in range(runs)]
    )


def assert_replay_deterministic(
    scenario: Callable[[], object], *, runs: int = 2
) -> ReplayReport:
    """``check_replay`` that raises ``AssertionError`` with the divergence
    diagnosis on mismatch; returns the report when clean."""
    report = check_replay(scenario, runs=runs)
    if not report.deterministic:
        raise AssertionError(report.describe())
    return report
