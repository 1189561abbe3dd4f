"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Interrupt, Simulator, Timeout
from repro.sim.engine import SimTimeoutError


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_clock(sim):
    seen = []

    def proc():
        yield sim.timeout(1.5)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [1.5]


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_events_fire_in_time_order(sim):
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc("late", 2.0))
    sim.process(proc("early", 1.0))
    sim.process(proc("mid", 1.5))
    sim.run()
    assert order == ["early", "mid", "late"]


def test_same_time_events_fifo(sim):
    """Ties break by scheduling order — the determinism guarantee."""
    order = []

    def proc(name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in "abcdef":
        sim.process(proc(name))
    sim.run()
    assert order == list("abcdef")


def test_process_return_value(sim):
    def child():
        yield sim.timeout(1)
        return 42

    def parent():
        result = yield sim.process(child())
        return result * 2

    proc = sim.process(parent())
    assert sim.run(until=proc) == 84


def test_process_exception_propagates_to_waiter(sim):
    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError, match="boom"):
            yield sim.process(child())
        return "handled"

    proc = sim.process(parent())
    assert sim.run(until=proc) == "handled"


def test_unhandled_process_crash_surfaces(sim):
    def bad():
        yield sim.timeout(1)
        raise RuntimeError("unwatched crash")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="unhandled crash"):
        sim.run()


def test_multiple_crashes_in_one_step_all_reported(sim):
    """One event cascade can crash several waiters; every name must surface.

    Regression: ``step()`` used to pop a single crash record, silently
    discarding the rest.
    """
    evt = sim.event()

    def bad(tag):
        yield evt
        raise RuntimeError(f"{tag} exploded")

    sim.process(bad("alpha"), name="crash-alpha")
    sim.process(bad("beta"), name="crash-beta")
    evt.succeed(None)
    with pytest.raises(RuntimeError, match="unhandled crash") as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "crash-alpha" in message
    assert "crash-beta" in message
    assert "processes" in message  # plural wording for multi-crash steps
    assert not sim._crashed  # fully drained, nothing misattributed later


def test_run_until_time(sim):
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(ticker())
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_past_raises(sim):
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_deadlock_detected(sim):
    evt = sim.event()
    with pytest.raises(RuntimeError, match="starved"):
        sim.run(until=evt)


def test_event_succeed_value(sim):
    evt = sim.event()

    def waiter():
        value = yield evt
        return value

    def trigger():
        yield sim.timeout(1)
        evt.succeed("payload")

    proc = sim.process(waiter())
    sim.process(trigger())
    assert sim.run(until=proc) == "payload"


def test_event_double_trigger_rejected(sim):
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(RuntimeError):
        evt.succeed(2)


def test_event_fail_requires_exception(sim):
    evt = sim.event()
    with pytest.raises(TypeError):
        evt.fail("not an exception")


def test_yield_already_processed_event(sim):
    """Waiting on an event that already fired resumes immediately."""
    evt = sim.event()
    evt.succeed("early")
    sim.run(until=0)  # process the event

    def waiter():
        value = yield evt
        return (sim.now, value)

    proc = sim.process(waiter())
    assert sim.run(until=proc) == (0.0, "early")


def test_yield_non_event_raises_in_process(sim):
    def bad():
        yield 42

    def parent():
        with pytest.raises(TypeError, match="must yield Event"):
            yield sim.process(bad())

    proc = sim.process(parent())
    sim.run(until=proc)


def test_interrupt_delivers_cause(sim):
    caught = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as exc:
            caught.append(exc.cause)
        return "done"

    def interrupter(target):
        yield sim.timeout(1)
        target.interrupt("wake up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    assert sim.run(until=target) == "done"
    assert caught == ["wake up"]
    assert sim.now == pytest.approx(1.0)


def test_interrupt_dead_process_rejected(sim):
    def quick():
        yield sim.timeout(0.1)

    proc = sim.process(quick())
    sim.run(until=proc)
    with pytest.raises(RuntimeError, match="dead process"):
        proc.interrupt()


def test_allof_gathers_values(sim):
    def worker(n):
        yield sim.timeout(n)
        return n * 10

    def parent():
        procs = [sim.process(worker(n)) for n in (3, 1, 2)]
        values = yield AllOf(sim, procs)
        return values

    proc = sim.process(parent())
    assert sim.run(until=proc) == [30, 10, 20]
    assert sim.now == pytest.approx(3.0)


def test_anyof_returns_first(sim):
    def worker(n):
        yield sim.timeout(n)
        return n

    def parent():
        fast = sim.process(worker(1))
        slow = sim.process(worker(5))
        winner, value = yield AnyOf(sim, [fast, slow])
        return winner is fast, value

    proc = sim.process(parent())
    assert sim.run(until=proc) == (True, 1)


def test_allof_empty_fires_immediately(sim):
    def parent():
        values = yield AllOf(sim, [])
        return values

    proc = sim.process(parent())
    assert sim.run(until=proc) == []


def test_call_at(sim):
    fired = []
    sim.call_at(2.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]


def test_call_at_past_raises(sim):
    sim.run(until=1.0)
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda: None)


def test_with_deadline_times_out(sim):
    def slow():
        yield sim.timeout(100)
        return "never"

    def parent():
        with pytest.raises(SimTimeoutError):
            yield sim.process(sim.with_deadline(slow(), 2.0))
        return sim.now

    proc = sim.process(parent())
    assert sim.run(until=proc) == pytest.approx(2.0)


def test_with_deadline_passes_result(sim):
    def quick():
        yield sim.timeout(1)
        return "made it"

    def parent():
        result = yield sim.process(sim.with_deadline(quick(), 10.0))
        return result

    proc = sim.process(parent())
    assert sim.run(until=proc) == "made it"


def test_peek(sim):
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    assert sim.peek() == 3.0


# ------------------------------------------------------- deterministic shutdown --

def test_close_runs_orphan_finalizers_now(sim):
    order = []

    def handler(tag):
        try:
            yield sim.timeout(1000)
        finally:
            order.append(tag)

    sim.process(handler("first"))
    sim.process(handler("second"))
    sim.run(until=1.0)
    assert order == []  # both parked, finalizers pending
    closed = sim.close()
    assert closed == 2
    assert order == ["first", "second"]  # creation order, not GC order


def test_close_is_idempotent_and_skips_finished(sim):
    def quick():
        yield sim.timeout(0.1)
        return "done"

    proc = sim.process(quick())
    assert sim.run(until=proc) == "done"
    assert sim.close() == 0  # registry pruned on normal completion
    assert sim.close() == 0


def test_closed_process_is_dead_and_detached(sim):
    evt = sim.event()

    def waiter():
        yield evt

    proc = sim.process(waiter())
    sim.run(until=0.0)
    assert proc.is_alive
    proc.close()
    assert not proc.is_alive
    assert evt.callbacks == []  # detached: firing evt later resumes nobody
    assert sim.close() == 0


def test_close_sweeps_processes_spawned_during_cleanup(sim):
    order = []

    def grandchild():
        try:
            yield sim.timeout(1000)
        finally:
            order.append("grandchild")

    def parent():
        try:
            yield sim.timeout(1000)
        finally:
            sim.process(grandchild())
            order.append("parent")

    sim.process(parent())
    sim.run(until=1.0)
    # The grandchild registers mid-sweep and is closed in the next round
    # (its body never started, so its finally doesn't run — that's fine,
    # an unstarted generator has acquired no resources).
    assert sim.close() == 2
    assert order == ["parent"]


def test_context_manager_closes():
    with Simulator() as sim:
        hits = []

        def p():
            try:
                yield sim.timeout(1000)
            finally:
                hits.append(1)

        sim.process(p())
        sim.run(until=1.0)
    assert hits == [1]


def test_step_and_run_both_count_sim_steps(sim):
    """``sim.steps`` counts every heap pop, whichever entry point pops it."""
    from repro.metrics import METRICS

    steps = METRICS.counter("sim.steps")
    stale = sim.call_later(1.0, lambda: None)
    stale.cancel()
    sim.call_later(2.0, lambda: None)
    sim.timeout(3.0)
    sim.timeout(4.0)
    before = steps.value
    sim.step()  # the cancelled entry: popped, nothing fires
    sim.step()
    assert steps.value == before + 2
    sim.run()
    assert steps.value == before + 4
    with pytest.raises(IndexError):
        sim.step()
