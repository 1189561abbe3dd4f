"""Raw-timer tests: ``TimerHandle``s and their ordering against events.

Covers the scheduling contract the dataplane is built on:
``call_later``/``call_at`` handles (validation, cancellation, rearm),
same-timestamp FIFO interleaving of events and raw timers (one heap-entry
kind, one sequence counter), ``close()`` with pending raw callbacks, and
already-processed Event resume/failure semantics.
"""

import pytest

from repro.metrics import METRICS
from repro.sim import Simulator
from repro.sim.engine import TimerHandle


# -- call_later / call_at basics ----------------------------------------------

def test_call_later_fires_without_arg(sim):
    fired = []
    sim.call_later(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]


def test_call_later_passes_arg(sim):
    fired = []
    sim.call_later(0.5, fired.append, "payload")
    sim.run()
    assert fired == ["payload"]


def test_call_later_returns_handle(sim):
    handle = sim.call_later(2.0, lambda: None)
    assert isinstance(handle, TimerHandle)
    assert handle.active
    assert handle.when == 2.0


def test_call_later_validates_callable(sim):
    with pytest.raises(TypeError):
        sim.call_later(1.0, "not-callable")


def test_call_later_rejects_negative_delay(sim):
    with pytest.raises(ValueError):
        sim.call_later(-0.1, lambda: None)


def test_call_at_fires_at_absolute_time(sim):
    fired = []

    def proc():
        yield sim.timeout(1.0)
        sim.call_at(3.0, lambda: fired.append(sim.now))

    sim.process(proc())
    sim.run()
    assert fired == [3.0]


def test_call_at_returns_cancellable_handle(sim):
    fired = []
    handle = sim.call_at(2.0, fired.append, "x")
    assert isinstance(handle, TimerHandle)
    assert handle.when == 2.0
    assert handle.cancel() is True
    sim.run()
    assert fired == []


def test_call_at_validates_callable(sim):
    with pytest.raises(TypeError):
        sim.call_at(1.0, 42)


def test_call_at_rejects_past(sim):
    def proc():
        yield sim.timeout(5.0)
        sim.call_at(1.0, lambda: None)

    sim.process(proc())
    with pytest.raises(RuntimeError):  # surfaced as an unhandled crash
        sim.run()


# -- cancellation and rearm ---------------------------------------------------

def test_cancel_prevents_firing_and_is_idempotent(sim):
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append("boom"))
    assert handle.cancel() is True
    assert handle.cancel() is False  # already cancelled
    assert not handle.active
    sim.run()
    assert fired == []


def test_cancel_after_fire_returns_false(sim):
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append("tick"))
    sim.run()
    assert fired == ["tick"]
    assert not handle.active
    assert handle.cancel() is False


def test_rearm_moves_firing_time(sim):
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append(sim.now))
    handle.rearm(4.0)  # supersedes the pending 1.0 entry
    assert handle.when == 4.0
    sim.run()
    assert fired == [4.0]  # exactly once, at the rearmed time


def test_rearm_after_fire_reactivates(sim):
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append(sim.now))
    sim.run()
    handle.rearm(2.0)
    sim.run()
    assert fired == [1.0, 3.0]


def test_rearm_rejects_negative_delay(sim):
    handle = sim.call_later(1.0, lambda: None)
    with pytest.raises(ValueError):
        handle.rearm(-1.0)


# -- cross-lane ordering ------------------------------------------------------

def test_same_timestamp_fifo_across_lanes(sim):
    """Equal-time entries fire in scheduling order regardless of lane."""
    order = []
    # Interleave Event-lane entries (bare Timeouts with observer callbacks)
    # with callback-lane timers, all due at t=1.0.
    t0 = sim.timeout(1.0)
    t0.callbacks.append(lambda evt: order.append("evt0"))
    sim.call_later(1.0, lambda: order.append("cb1"))
    t2 = sim.timeout(1.0)
    t2.callbacks.append(lambda evt: order.append("evt2"))
    sim.call_later(1.0, lambda: order.append("cb3"))
    sim.run()
    assert order == ["evt0", "cb1", "evt2", "cb3"]


def test_cancelled_entry_does_not_disturb_fifo(sim):
    order = []
    sim.call_later(1.0, lambda: order.append("a"))
    doomed = sim.call_later(1.0, lambda: order.append("doomed"))
    sim.call_later(1.0, lambda: order.append("b"))
    doomed.cancel()
    sim.run()
    assert order == ["a", "b"]


def test_callbacks_scheduled_during_dispatch_keep_fifo(sim):
    order = []

    def first():
        order.append("first")
        sim.call_later(0.0, lambda: order.append("nested"))

    sim.call_later(1.0, first)
    sim.call_later(1.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "nested"]


# -- close() with pending callbacks -------------------------------------------

def test_close_discards_pending_callbacks(sim):
    fired = []
    sim.call_later(1.0, lambda: fired.append("late"))
    sim.call_later(2.0, lambda: fired.append("later"))
    sim.close()
    assert fired == []
    assert sim.peek() == float("inf")  # heap dropped


# -- already-processed Event semantics -----------------------------------------

def test_yield_already_processed_success():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("ready")
    got = []

    def proc():
        yield sim.timeout(1.0)  # evt is PROCESSED by now
        value = yield evt
        got.append(value)

    sim.process(proc())
    sim.run()
    sim.close()
    assert got == ["ready"]


def test_yield_already_failed_event_crashes_via_fail():
    """An uncaught already-processed failure gets full fail()/crash accounting."""
    sim = Simulator()
    evt = sim.event()
    evt.fail(RuntimeError("boom"))
    crashes = METRICS.counter("sim.process_crashes")
    before = crashes.value

    def victim():
        yield sim.timeout(1.0)  # evt is PROCESSED by now
        yield evt  # raises RuntimeError("boom"), uncaught

    proc = sim.process(victim(), name="victim")
    with pytest.raises(RuntimeError, match="victim"):
        sim.run()
    sim.close()
    assert crashes.value == before + 1
    assert proc.triggered and not proc.ok  # fail() semantics, not a bare raise
    assert isinstance(proc.value, RuntimeError)


def test_yield_already_failed_event_caught_by_waiter():
    """A watcher waiting on the failing process sees the exception, no crash."""
    sim = Simulator()
    evt = sim.event()
    evt.fail(ValueError("expected"))
    seen = []

    def victim():
        yield sim.timeout(1.0)
        yield evt

    def watcher(proc):
        try:
            yield proc
        except ValueError as exc:
            seen.append(str(exc))

    proc = sim.process(victim())
    sim.process(watcher(proc))
    sim.run()  # no unhandled crash: the watcher consumed the failure
    sim.close()
    assert seen == ["expected"]


def test_mode_equivalent_ordering():
    """Process wake-ups and raw callbacks interleave in scheduling order (the
    trace both engine modes produced before the reference engine was retired)."""
    sim = Simulator()
    order = []

    def worker(name, delay):
        yield sim.timeout(delay)
        order.append((name, sim.now))
        sim.call_later(0.5, lambda: order.append((name + "-cb", sim.now)))

    sim.process(worker("a", 1.0))
    sim.process(worker("b", 1.0))
    sim.process(worker("c", 2.0))
    sim.run()
    sim.close()
    assert order == [
        ("a", 1.0), ("b", 1.0), ("a-cb", 1.5), ("b-cb", 1.5),
        ("c", 2.0), ("c-cb", 2.5),
    ]
