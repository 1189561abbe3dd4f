"""Deferred rearm and the one dispatcher, checked against a push-every-arm twin.

``TimerHandle.rearm_at`` pushes nothing when the handle's heaped entry is
due no later than the new time; the engine re-pushes that entry at the live
``(when, seq)`` when it surfaces.  The contract is that this is invisible:
every callback fires at the same time and in the same order as under a
scheduler that pushes every arm and skips stale entries.  Events ride the
same heap entries as timers; the reference keeps them as items of their own
kind, so a mixed script also shows that timers, events and processes fire in
the reference's ``(when, seq)`` order through every entry point.  Seeded
random scripts drive both and compare what they did.
"""

import heapq
import random

import pytest

from repro.sim import Interrupt, Simulator

INF = float("inf")


def test_call_at_fires_exactly_at_when(sim):
    """``now + (when - now)`` need not round-trip to ``when``: from this
    ``now`` it lands one ulp late.  ``call_at`` arms the absolute time."""
    now, when = 0.7184404774485162, 3.3095414601900752
    assert now + (when - now) != when
    seen = []
    sim.call_later(now, lambda: sim.call_at(when, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [when]


def test_rearm_at_rejects_the_past(sim):
    handle = sim.call_later(1.0, lambda: None)
    sim.run(until=0.5)
    with pytest.raises(ValueError):
        handle.rearm_at(0.25)


def test_later_rearm_pushes_nothing_and_cancel_keeps_the_entry(sim):
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append(sim.now))
    for delay in (2.0, 3.0, 4.0):
        handle.rearm(delay)
    assert len(sim._heap) == 1 and handle.when == 4.0
    assert handle.cancel() is True and not handle.active
    handle.rearm(5.0)  # reuses the cancelled entry
    assert len(sim._heap) == 1
    sim.run()
    assert fired == [5.0]


# -- differential against a push-every-arm reference ---------------------------


class _RefHandle:
    def __init__(self, ref, fn, arg):
        self._ref, self._fn, self._arg = ref, fn, arg
        self.when = -1.0
        self._seq = -1

    @property
    def active(self):
        return self._seq >= 0

    def cancel(self):
        pending = self._seq >= 0
        self._seq = -1
        return pending

    def rearm(self, delay):
        return self.rearm_at(self._ref.now + delay)

    def rearm_at(self, due):
        self.when = due
        self._seq = self._ref._push(due, self)
        return self


class _RefEvent:
    """An event as its own heap item: firing it runs its callbacks."""

    def __init__(self, ref):
        self._ref = ref
        self.callbacks = []
        self.state = "pending"
        self.ok = self.value = None

    @property
    def triggered(self):
        return self.state != "pending"

    @property
    def processed(self):
        return self.state == "processed"

    def succeed(self, value=None):
        return self._trigger(True, value)

    def fail(self, exc):
        return self._trigger(False, exc)

    def _trigger(self, ok, value, delay=0.0):
        assert self.state == "pending"
        self.ok, self.value, self.state = ok, value, "triggered"
        self._ref._push(self._ref.now + delay, self)
        return self


class _RefProcess(_RefEvent):
    """A generator process: booted and interrupted by timers, resumed by
    the callbacks of the event it waits on, finished by ``succeed``."""

    def __init__(self, ref, gen):
        super().__init__(ref)
        self._gen = gen
        self._waiting = None
        ref.call_later(0.0, self._advance, (True, None))

    @property
    def is_alive(self):
        return self.state == "pending"

    def interrupt(self, cause=None):
        self._ref.call_later(0.0, self._interrupted, Interrupt(cause))

    def _interrupted(self, exc):
        if not self.is_alive:
            return
        if self._waiting is not None:
            self._waiting.callbacks.remove(self._resume)
            self._waiting = None
        self._advance((False, exc))

    def _resume(self, evt):
        self._waiting = None
        self._advance((evt.ok, evt.value))

    def _advance(self, outcome):
        ok, value = outcome
        while True:
            try:
                target = self._gen.send(value) if ok else self._gen.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            if not target.processed:
                self._waiting = target
                target.callbacks.append(self._resume)
                return
            ok, value = target.ok, target.value


class PushEveryArm:
    """Reference scheduler: every arm pushes a heap entry and a stale one
    pops as a no-op — the callback lane before deferred rearms — and an
    event is a heap item of its own kind, as before the two shared one."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def _push(self, due, item):
        self._seq += 1
        heapq.heappush(self._heap, (due, self._seq, item))
        return self._seq

    def call_later(self, delay, fn, arg):
        return _RefHandle(self, fn, arg).rearm(delay)

    def call_at(self, when, fn, arg):
        return _RefHandle(self, fn, arg).rearm_at(when)

    def event(self):
        return _RefEvent(self)

    def timeout(self, delay, value=None):
        return _RefEvent(self)._trigger(True, value, delay)

    def process(self, gen):
        return _RefProcess(self, gen)

    def peek(self):
        return self._heap[0][0] if self._heap else INF

    def peek_live(self):
        heap = self._heap
        while heap and isinstance(heap[0][2], _RefHandle) and heap[0][2]._seq != heap[0][1]:
            heapq.heappop(heap)
        return self.peek()

    def step(self):
        when, seq, item = heapq.heappop(self._heap)
        self.now = when
        if isinstance(item, _RefEvent):
            callbacks, item.callbacks = item.callbacks, []
            item.state = "processed"
            for cb in callbacks:
                cb(item)
        elif item._seq == seq:
            item._seq = -1
            item._fn(item._arg)

    def run(self, until=None):
        if until is None:
            while self._heap:
                self.step()
        elif isinstance(until, _RefEvent):
            while not until.processed:
                self.step()
            if not until.ok:
                raise until.value
            return until.value
        else:
            while self._heap and self._heap[0][0] <= until:
                self.step()
            self.now = until


DELAYS = (0.0, 0.25, 0.5, 1.0, 2.0)  # exact binary fractions: many ties


def script(sim, seed, n_handles=5, rounds=300):
    """Drive ``sim`` through a seeded mix of arms, rearms (later, same time,
    earlier, inside the handle's own callback), cancels and cancel-then-
    rearms, advancing by ``step``, ``peek_live``, ``run(until=t)`` and
    ``run(until=event)``.  Returns everything observable."""
    rng = random.Random(seed)
    handles = {}
    log = []
    # Rearms to before the handle's previous time: the only pushes that can
    # leave a second entry of one handle heaped.
    earlier = 0

    def fire(key):
        log.append(("fire", sim.now, key))
        if rng.random() < 0.4:
            poke(key if rng.random() < 0.5 else rng.randrange(n_handles))

    def poke(key):
        nonlocal earlier
        handle = handles.get(key)
        if handle is None:
            handles[key] = sim.call_later(rng.choice(DELAYS), fire, key)
            return
        op = rng.randrange(5)
        if op == 0:
            handle.cancel()
            return
        if op == 1:  # cancel, then rearm
            handle.cancel()
            due = sim.now + rng.choice(DELAYS)
        elif op == 2:  # later
            due = max(handle.when, sim.now) + rng.choice(DELAYS[1:])
        elif op == 3:  # same time
            due = max(handle.when, sim.now)
        else:  # earlier
            due = max(sim.now, handle.when - rng.choice(DELAYS[1:]))
        earlier += due < handle.when
        if rng.random() < 0.5:
            handle.rearm_at(due)
        else:
            handle.rearm(due - sim.now)

    for _ in range(rounds):
        for _ in range(rng.randrange(3)):
            poke(rng.randrange(n_handles))
        mode = rng.randrange(4)
        if mode == 0:
            log.append(("peek_live", sim.peek_live()))
        elif mode == 1 and any(h.active for h in handles.values()):
            # Pop until one callback has run.  (With nothing live, popping
            # dead entries would only move ``now``, and the two schedulers
            # hold their dead entries at different times.)
            n = len(log)
            while len(log) == n:
                sim.step()
        elif mode == 2:
            sim.run(until=sim.now + rng.choice(DELAYS))
        elif mode == 3:
            sim.run(until=sim.timeout(rng.choice(DELAYS)))
        log.append(("state", [(k, h.active, h.when) for k, h in sorted(handles.items())]))
        if isinstance(sim, Simulator):
            assert len(sim._heap) <= len(handles) + earlier
    for _key, handle in sorted(handles.items()):
        if rng.random() < 0.5:
            handle.cancel()  # leaves entries for the drain to retire
    sim.run()
    log.append(("drained", [(k, h.active) for k, h in sorted(handles.items())]))
    # After a drain ``now`` may differ (it is the last entry popped, live or
    # dead), so rearm at absolute times past both: every handle must fire.
    for _key, handle in sorted(handles.items()):
        handle.rearm_at(1e6 + rng.choice(DELAYS))
    sim.run()
    return log


@pytest.mark.parametrize("seed", range(12))
def test_deferred_rearm_matches_push_every_arm(seed):
    sim = Simulator()
    got = script(sim, seed)
    sim.close()
    want = script(PushEveryArm(), seed)
    assert got == want
    assert sum(1 for entry in got if entry[0] == "fire") > 100


def mixed_script(sim, seed, rounds=200):
    """Drive ``sim`` through a seeded mix of timers (``call_later``,
    ``call_at``, cancels, earlier and later rearms), events (``succeed``,
    ``fail``, ``Timeout``) and processes (boots, waits, interrupts,
    completions), advancing by ``run()``, ``run(until=t)``,
    ``run(until=event)``, ``step`` and ``peek_live``.  Every entry that fires
    logs, so the log is the firing order."""
    rng = random.Random(seed)
    log = []
    handles = {}
    waitable = []  # events processes may wait on (some never fire)
    procs = []

    def note(kind, key):
        return lambda evt: log.append((kind, sim.now, key, evt.ok, repr(evt.value)))

    def fire(key):
        log.append(("fire", sim.now, key))
        if rng.random() < 0.3:
            poke()

    def body(pid):
        log.append(("boot", sim.now, pid))
        for i in range(rng.randrange(1, 6)):
            choice = rng.randrange(4)
            try:
                if choice == 0:
                    value = yield sim.timeout(rng.choice(DELAYS), (pid, i))
                elif choice == 1 and waitable:
                    value = yield rng.choice(waitable)
                elif choice == 2 and procs:
                    value = yield rng.choice(procs)
                else:
                    evt = sim.event()
                    waitable.append(evt)
                    value = yield evt
            except (Interrupt, KeyError) as exc:
                value = repr(exc)
            log.append(("resume", sim.now, pid, value))
            if rng.random() < 0.3:
                poke()
        return pid

    def poke():
        op = rng.randrange(9)
        if op == 0:
            key = rng.randrange(6)
            if key in handles and rng.random() < 0.5:
                handles[key].cancel()
            else:
                handles[key] = sim.call_later(rng.choice(DELAYS), fire, key)
        elif op == 1:
            key = rng.randrange(6)
            handles[key] = sim.call_at(sim.now + rng.choice(DELAYS), fire, key)
        elif op == 2 and handles:
            handle = handles[rng.choice(sorted(handles))]
            shift = rng.choice(DELAYS)
            if rng.random() < 0.5:  # later, or earlier if still ahead
                handle.rearm_at(max(handle.when, sim.now) + shift)
            else:
                handle.rearm_at(max(sim.now, handle.when - shift))
        elif op in (3, 4):
            live = [evt for evt in waitable if not evt.triggered]
            if live:
                evt = rng.choice(live)
                evt.callbacks.append(note("event", waitable.index(evt)))
                if op == 3:
                    evt.succeed(("ok", len(log)))
                else:
                    evt.fail(KeyError(len(log)))
        elif op == 5:
            evt = sim.timeout(rng.choice(DELAYS), len(log))
            evt.callbacks.append(note("timeout", len(log)))
        elif op in (6, 7):
            proc = sim.process(body(len(procs)))
            proc.callbacks.append(note("done", len(procs)))
            procs.append(proc)
        else:
            alive = [proc for proc in procs if proc.is_alive]
            if alive:
                rng.choice(alive).interrupt(len(log))

    for _ in range(rounds):
        for _ in range(rng.randrange(4)):
            poke()
        mode = rng.randrange(5)
        if mode == 0:
            log.append(("peek_live", sim.peek_live()))
        elif mode == 1:
            # Pop until something fires, while anything live is heaped.
            n = len(log)
            while len(log) == n and sim.peek_live() < INF:
                sim.step()
        elif mode == 2:
            sim.run(until=sim.now + rng.choice(DELAYS))
        elif mode == 3:
            stop = sim.timeout(rng.choice(DELAYS), "stop")
            log.append(("until", sim.now, sim.run(until=stop)))
        elif sim.peek_live() < INF:
            stop = sim.event()
            sim.call_later(rng.choice(DELAYS), stop.succeed, len(log))
            log.append(("until", sim.now, sim.run(until=stop)))
        log.append(("now", sim.now))
    sim.run()
    log.append(("drained", [h.active for _k, h in sorted(handles.items())],
                [evt.triggered for evt in waitable], [p.is_alive for p in procs]))
    return log


@pytest.mark.parametrize("seed", range(10))
def test_timers_and_events_fire_in_push_every_arm_order(seed):
    sim = Simulator()
    got = mixed_script(sim, seed)
    sim.close()
    want = mixed_script(PushEveryArm(), seed)
    assert got == want
    kinds = {entry[0] for entry in got}
    assert {"fire", "boot", "resume", "event", "timeout", "done", "until"} <= kinds
    assert sum(1 for entry in got if entry[0] in ("fire", "resume")) > 100
