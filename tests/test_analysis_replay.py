"""Replay-sanitizer tests.

The sanitizer must (a) certify a genuinely deterministic scenario, (b) fire
on the dynamic residue the static rules cannot see — here an artificially
injected wall-clock-seeded draw — and (c) leave the global recorder the way
it found it.  The smoke test runs the real RUBiS deployment twice under one
seed and demands digest equality end to end.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.analysis.replay import (
    assert_replay_deterministic,
    canonical_event,
    check_replay,
    record_run,
)
from repro.metrics import METRICS, RECORDER
from repro.metrics.recorder import TraceEvent


def deterministic_scenario():
    rng = random.Random(1234)
    for i in range(50):
        RECORDER.record(i * 0.1, "test", "draw", value=rng.random(), seq=i)


def clock_seeded_scenario():
    # The exact failure mode the sanitizer exists to catch: a draw whose
    # seed depends on the host clock, invisible to AST rules when smuggled
    # through a variable.
    rng = random.Random(time.time_ns())
    for i in range(50):
        RECORDER.record(i * 0.1, "test", "draw", value=rng.random(), seq=i)


def test_deterministic_scenario_passes():
    report = check_replay(deterministic_scenario)
    assert report.deterministic
    assert report.runs[0].digest == report.runs[1].digest
    assert report.runs[0].n_events == 50
    assert report.runs[0].tally == {"test.draw": 50}
    assert report.first_divergence is None
    assert "deterministic" in report.describe()


def test_clock_seeded_draw_is_detected():
    report = check_replay(clock_seeded_scenario)
    assert not report.deterministic
    index, ev_a, ev_b = report.first_divergence
    assert index == 0 and ev_a != ev_b
    assert "divergence" in report.describe()
    with pytest.raises(AssertionError, match="divergence"):
        assert_replay_deterministic(clock_seeded_scenario)


def test_divergent_event_count_is_reported():
    flip = []

    def scenario():
        flip.append(None)
        for i in range(len(flip)):
            RECORDER.record(0.0, "test", "tick", n=i)

    report = check_replay(scenario)
    assert not report.deterministic
    assert report.runs[0].n_events == 1 and report.runs[1].n_events == 2
    assert "1 vs 2 events" in report.describe()


def test_counters_divergence_is_detected_even_with_identical_trace():
    flip = []

    def scenario():
        flip.append(None)
        METRICS.counter("test.replay_runs").inc(len(flip))

    report = check_replay(scenario)
    assert not report.deterministic
    assert report.runs[0].digest == report.runs[1].digest
    assert report.runs[0].counters_digest != report.runs[1].counters_digest


def test_histogram_divergence_is_detected_even_with_identical_counters():
    flip = []

    def scenario():
        flip.append(None)
        METRICS.histogram("test.replay_latency_s").observe(0.001 * len(flip))

    report = check_replay(scenario)
    assert not report.deterministic
    assert report.runs[0].digest == report.runs[1].digest


def test_record_run_digests_past_ring_eviction():
    """Events evicted from the ring still contribute to the digest."""

    def scenario():
        for i in range(RECORDER.capacity + 100):
            RECORDER.record(0.0, "test", "tick", n=i)

    run = record_run(scenario, keep_events=False)
    assert run.n_events == RECORDER.capacity + 100
    assert run.events == []


def test_recorder_state_restored_after_run():
    RECORDER.disable()
    RECORDER.sink = None
    record_run(deterministic_scenario)
    assert RECORDER.enabled is False
    assert RECORDER.sink is None


def test_canonical_event_is_key_order_independent():
    a = canonical_event(TraceEvent(1.0, "l", "e", {"x": 1, "y": 2}))
    b = canonical_event(TraceEvent(1.0, "l", "e", {"y": 2, "x": 1}))
    assert a == b


@pytest.mark.smoke
def test_smoke_rubis_replay_is_deterministic():
    """One second of closed-loop RUBiS load, twice, same seed: the full
    flight-recorder stream and the final counters must digest identically."""
    from repro.apps.workload import ClosedLoopClients
    from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud

    def scenario():
        dep = build_rubis_cloud(seed=7, security="basic", n_web=1, extra_tenants=0)
        clients = ClosedLoopClients(
            dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
            n_clients=2, rng=dep.rngs.stream("replay-smoke"),
            timeout=2.0, warmup=0.2,
        )
        proc = dep.sim.process(clients.run(1.0))
        result = dep.sim.run(until=proc)
        assert result.successes > 0
        # Finalize abandoned server handlers at a deterministic point; left
        # to the GC they would emit FINs mid-*next*-run at arbitrary times.
        dep.sim.close()

    report = assert_replay_deterministic(scenario)
    assert report.runs[0].n_events > 100  # the tap really saw the run
