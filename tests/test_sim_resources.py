"""Tests for simulation queues, resources, and RNG streams."""

import pytest

from repro.sim import Queue, Resource, RngStreams, Simulator
from repro.sim.resources import QueueFullError, TimerPool


class TestQueue:
    def test_put_then_get(self, sim, drive):
        q = Queue(sim)
        q.try_put("x")

        def consumer():
            item = yield q.get()
            return item

        assert drive(sim, consumer()) == "x"

    def test_get_blocks_until_put(self, sim, drive):
        q = Queue(sim)
        got = []

        def consumer():
            item = yield q.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(2.0)
            q.try_put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(2.0, "late")]

    def test_fifo_order_items(self, sim, drive):
        q = Queue(sim)
        for i in range(5):
            q.try_put(i)

        def consumer():
            items = []
            for _ in range(5):
                items.append((yield q.get()))
            return items

        assert drive(sim, consumer()) == [0, 1, 2, 3, 4]

    def test_fifo_order_waiters(self, sim):
        q = Queue(sim)
        got = []

        def consumer(name):
            item = yield q.get()
            got.append((name, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1)
            q.try_put("a")
            q.try_put("b")

        sim.process(producer())
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_bounded_drop_tail(self, sim):
        q = Queue(sim, capacity=2)
        assert q.try_put(1) and q.try_put(2)
        assert not q.try_put(3)
        assert q.dropped == 1
        assert len(q) == 2

    def test_put_event_fails_when_full(self, sim):
        q = Queue(sim, capacity=1)
        q.try_put(1)

        def proc():
            with pytest.raises(QueueFullError):
                yield q.put(2)
            return True

        p = sim.process(proc())
        assert sim.run(until=p) is True

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Queue(sim, capacity=0)

    def test_try_get(self, sim):
        q = Queue(sim)
        ok, item = q.try_get()
        assert not ok and item is None
        q.try_put("x")
        ok, item = q.try_get()
        assert ok and item == "x"

    def test_put_direct_handoff_bypasses_capacity(self, sim):
        """A waiting getter receives even when the queue is 'full'."""
        q = Queue(sim, capacity=1)
        got = []

        def consumer():
            got.append((yield q.get()))

        sim.process(consumer())
        sim.run(until=0)
        q.try_put("a")  # hands directly to the waiting consumer
        assert q.try_put("b")  # fills the single slot
        assert not q.try_put("c")
        sim.run()
        assert got == ["a"]


class TestResource:
    def test_serializes_beyond_capacity(self, sim):
        pool = Resource(sim, capacity=2)
        spans = {}

        def worker(name):
            req = pool.request()
            yield req
            start = sim.now
            yield sim.timeout(1.0)
            pool.release(req)
            spans[name] = (start, sim.now)

        for name in ("a", "b", "c"):
            sim.process(worker(name))
        sim.run()
        assert spans["a"] == (0.0, 1.0)
        assert spans["b"] == (0.0, 1.0)
        assert spans["c"] == (1.0, 2.0)

    def test_in_use_and_queued_counters(self, sim):
        pool = Resource(sim, capacity=1)

        def holder():
            req = pool.request()
            yield req
            yield sim.timeout(5)
            pool.release(req)

        def waiter():
            req = pool.request()
            yield req
            pool.release(req)

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=1)
        assert pool.in_use == 1
        assert pool.queued == 1
        sim.run()
        assert pool.in_use == 0

    def test_release_without_request_raises(self, sim):
        pool = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            pool.release(sim.event())

    def test_cancel_queued_request(self, sim):
        pool = Resource(sim, capacity=1)
        first = pool.request()
        second = pool.request()
        assert pool.cancel(second) is True
        assert pool.cancel(second) is False
        pool.release(first)
        assert pool.in_use == 0

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_acquire_runs_inline_when_free_else_waits_its_turn(self, sim):
        pool = Resource(sim, capacity=1)
        log = []
        pool.acquire(log.append, "first")
        assert log == ["first"] and pool.in_use == 1  # claimed at request time
        pool.acquire(log.append, "second")
        waiter = pool.request()
        pool.acquire(log.append, "fourth")
        assert log == ["first"] and pool.queued == 3
        pool.release()
        assert log == ["first"]  # granted through a zero-delay timer, not inline
        sim.run()
        assert log == ["first", "second"] and pool.in_use == 1
        pool.release()
        sim.run()
        assert waiter.processed and log == ["first", "second"]
        pool.release(waiter)
        sim.run()
        assert log == ["first", "second", "fourth"]
        pool.release()
        assert pool.in_use == 0 and pool.queued == 0
        with pytest.raises(RuntimeError):
            pool.release()


class TestTimerPool:
    def test_fires_like_call_later_with_only_as_many_handles_as_were_pending(self, sim):
        """Same firing order as ``call_later`` (one sequence number per arm),
        and a fired handle is rearmed instead of a new one being built."""
        got = []
        pool = TimerPool(sim, got.append)
        pool.call_later(2.0, "b")
        pool.call_later(1.0, "a")
        sim.call_later(1.0, got.append, "a2")  # same instant, armed later
        sim.run(until=1.5)
        assert got == ["a", "a2"] and len(pool.timers) == 2
        for i in range(5):
            pool.call_later(0.1 * i, i)
            sim.run(until=sim.now + 1.0)
        assert got == ["a", "a2", 0, "b", 1, 2, 3, 4] and len(pool.timers) == 2


class TestRngStreams:
    def test_same_name_same_stream(self):
        rngs = RngStreams(1)
        assert rngs.stream("x") is rngs.stream("x")

    def test_streams_independent_of_creation_order(self):
        a = RngStreams(7)
        b = RngStreams(7)
        a.stream("first").random()  # consume from an unrelated stream
        assert a.stream("second").random() == b.stream("second").random()

    def test_different_seeds_differ(self):
        xs = [RngStreams(s).stream("x").random() for s in range(5)]
        assert len(set(xs)) == 5

    def test_spawn_derives_child(self):
        parent = RngStreams(3)
        child1 = parent.spawn("sub")
        child2 = RngStreams(3).spawn("sub")
        assert child1.stream("y").random() == child2.stream("y").random()
        assert child1.stream("y") is not parent.stream("y")
