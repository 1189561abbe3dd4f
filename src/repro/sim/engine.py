"""The discrete-event simulator core: clock, event heap, run loop.

The scheduler has two lanes sharing one heap, ordered by ``(when, seq)``:

* the **Event lane** — full :class:`~repro.sim.events.Event` objects with
  callback lists, what generator processes yield and wait on; and
* the **callback lane** — raw ``fn(arg)`` timers behind a small
  :class:`TimerHandle`, scheduled with :meth:`Simulator.call_later` /
  :meth:`Simulator.call_at`.  No ``Event`` is allocated, cancellation is
  lazy (a stale heap entry pops as a no-op), and a handle can be rearmed
  in place, so per-packet machinery (link delivery, TCP retransmission
  timers) costs one heap tuple instead of a generator process.  A rearm
  to a time no earlier than the handle's heaped entry pushes nothing: the
  entry carries the new ``(when, seq)`` and is re-pushed when it surfaces
  (see :meth:`TimerHandle.rearm_at`).

Both lanes draw sequence numbers from the same counter, so same-timestamp
entries fire strictly in scheduling order regardless of lane — the
determinism contract the replay sanitizer enforces.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.metrics import METRICS, RECORDER
from repro.sim.events import PROCESSED, Event, Process, Timeout

_STEPS = METRICS.counter("sim.steps")
_CRASHES = METRICS.counter("sim.process_crashes")

#: Heap-entry kinds.  Entries are ``(when, seq, kind, payload)``; ``seq`` is
#: unique, so ``kind``/``payload`` never participate in heap comparisons.
_KIND_EVENT = 0
_KIND_CALL = 1

#: Sentinel: "call fn with no argument" (None must stay passable as an arg).
_NO_ARG = object()

#: ``TimerHandle._heap_when`` of a handle with no heaped entry.
_INF = float("inf")


class StopProcess(Exception):
    """Raised by ``Simulator.run(until=...)`` helpers to abort a run."""


class SimTimeoutError(Exception):
    """Raised when a wait exceeds its deadline (see :meth:`Simulator.with_deadline`)."""


class TimerHandle:
    """Cancellable handle for a callback-lane timer.

    Cancellation is *lazy*: :meth:`cancel` invalidates the handle and the
    already-pushed heap entry stays heaped, so cancelling is O(1) with no
    heap surgery.  :meth:`rearm` / :meth:`rearm_at` reschedule the same
    handle (same ``fn``/``arg``), invalidating any pending firing — the
    idiom for self-rearming protocol timers (TCP RTO).

    The handle's live firing is ``(_when, _entry_seq)``; ``_entry_seq`` is
    -1 when nothing is pending.  Separately it tracks the one heap entry it
    may reuse, ``(_heap_when, _heap_seq)`` (``_heap_when`` is ``inf`` when
    there is none).  The two differ while a later rearm is *deferred*: when
    the tracked entry surfaces, the engine re-pushes it at the live
    ``(when, seq)``, or retires it if the handle was cancelled meanwhile.
    """

    __slots__ = ("_sim", "_fn", "_arg", "_when", "_entry_seq", "_heap_when", "_heap_seq")

    def __init__(self, sim: "Simulator", fn: Callable, arg: Any) -> None:
        self._sim = sim
        self._fn = fn
        self._arg = arg
        self._when = -1.0
        self._entry_seq = -1
        self._heap_when = _INF
        self._heap_seq = -1

    @property
    def when(self) -> float:
        """Absolute simulated time this timer is due (last armed time)."""
        return self._when

    @property
    def active(self) -> bool:
        """True while the timer is armed and has neither fired nor been cancelled."""
        return self._entry_seq >= 0

    def cancel(self) -> bool:
        """Deactivate the timer; returns whether it was still pending.

        The heaped entry stays where it is, so a later rearm can reuse it.
        """
        if self._entry_seq < 0:
            return False
        self._entry_seq = -1
        return True

    def rearm(self, delay: float) -> "TimerHandle":
        """(Re)schedule this timer ``delay`` seconds from now; returns self."""
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay!r}")
        return self.rearm_at(self._sim._now + delay)

    def rearm_at(self, due: float) -> "TimerHandle":
        """(Re)schedule this timer at absolute time ``due``; returns self.

        Any previously pending firing is cancelled.  The sequence number is
        drawn now, so the firing orders at ``(due, seq)`` exactly as a fresh
        push would.  If the handle's heaped entry is due no later than
        ``due``, nothing is pushed: that entry carries the new firing and is
        re-pushed at ``(due, seq)`` when it surfaces — before anything it
        could overtake.  Only a handle with no heaped entry (new or fired),
        or a rearm to an *earlier* time, pushes.
        """
        sim = self._sim
        if due < sim._now:
            raise ValueError(f"timer rearmed into the past: {due} < {sim._now}")
        sim._seq += 1
        seq = sim._seq
        self._when = due
        self._entry_seq = seq
        if self._heap_when > due:
            self._heap_when = due
            self._heap_seq = seq
            heappush(sim._heap, (due, seq, _KIND_CALL, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "inactive"
        return f"<TimerHandle {state} when={self._when}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Events scheduled for the same simulated time fire in the order they were
    scheduled (FIFO via a monotonically increasing sequence number shared by
    the Event and callback lanes), which makes whole-experiment runs
    bit-reproducible for a fixed seed.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        #: Sim-scoped service registry.  Subsystems that would otherwise need
        #: process-global state (the TCP fluid-mode peer directory, its id
        #: counter) hang it off the owning simulator here, so two simulators
        #: in one process — or one shard per worker process — never share or
        #: interleave counters.
        self.services: dict[str, Any] = {}
        self._active_process: Process | None = None
        self._crashed: list[tuple[Process, BaseException]] = []
        # Live processes in creation order (pid -> Process), pruned on
        # completion.  close() finalizes the stragglers deterministically.
        self._processes: dict[int, Process] = {}
        self._next_pid = 0

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- event creation ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Any, Any, Any], name: str | None = None
    ) -> Process:
        """Register ``generator`` as a new process starting at the current time."""
        return Process(self, generator, name=name)

    # -- callback lane --------------------------------------------------------
    def call_later(self, delay: float, fn: Callable, arg: Any = _NO_ARG) -> TimerHandle:
        """Run ``fn()`` (or ``fn(arg)``) after ``delay`` simulated seconds.

        Returns a cancellable :class:`TimerHandle`.  This is the raw-callback
        scheduling lane: no :class:`Event` is allocated and the callback runs
        directly from the dispatch loop, interleaved FIFO with the Event lane
        at equal timestamps.
        """
        if not callable(fn):
            raise TypeError(f"call_later fn must be callable, got {fn!r}")
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay!r}")
        # Inlined first arm (equivalent to TimerHandle(...).rearm(delay));
        # this is the hottest scheduling entry point.
        handle = TimerHandle(self, fn, arg)
        self._seq += 1
        handle._when = handle._heap_when = when = self._now + delay
        handle._entry_seq = handle._heap_seq = seq = self._seq
        heappush(self._heap, (when, seq, _KIND_CALL, handle))
        return handle

    def call_at(self, when: float, fn: Callable, arg: Any = _NO_ARG) -> TimerHandle:
        """Run ``fn()`` (or ``fn(arg)``) at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"call_at into the past: {when} < {self._now}")
        if not callable(fn):
            raise TypeError(f"call_at fn must be callable, got {fn!r}")
        return TimerHandle(self, fn, arg).rearm_at(when)

    # -- scheduling (internal) ------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, _KIND_EVENT, event))

    # -- process registry (internal) -------------------------------------------
    def _register_process(self, proc: Process) -> int:
        self._next_pid += 1
        self._processes[self._next_pid] = proc
        return self._next_pid

    def _forget_process(self, proc: Process) -> None:
        self._processes.pop(proc._pid, None)

    # -- shutdown ---------------------------------------------------------------
    def close(self) -> int:
        """Deterministically finalize every still-suspended process.

        A process abandoned mid-wait (a server handler parked on a read when
        the run ends, a client whose peer aborted) holds a suspended
        generator frame.  Left alone, CPython's *garbage collector* finalizes
        it at some arbitrary later point — and its ``finally`` blocks then
        send packets and bump process-global metrics from a dead simulation,
        which is exactly the kind of nondeterminism the replay sanitizer
        exists to catch.  ``close()`` runs those finalizers *now*, in process
        creation order, then drops the event heap (pending callback-lane
        timers are discarded with it — they never fire).  Returns the number
        of processes closed.  The simulator must not be run afterwards.
        """
        closed = 0
        errors: list[tuple[str, BaseException]] = []
        # Cleanup code may spawn new processes; sweep in rounds, but bound
        # them so a pathological spawn loop cannot hang shutdown.
        for _round in range(8):
            if not self._processes:
                break
            batch = list(self._processes.values())
            self._processes.clear()
            for proc in batch:
                if not proc.is_alive:
                    continue
                closed += 1
                try:
                    proc.close()
                except Exception as exc:
                    errors.append((proc.name, exc))
        self._processes.clear()
        self._heap.clear()
        if errors:
            detail = ", ".join(f"{name!r}: {exc!r}" for name, exc in errors)
            raise RuntimeError(f"process finalizers raised during close: {detail}")
        return closed

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run loop --------------------------------------------------------------
    def step(self) -> None:
        """Pop one heap entry (either lane) and dispatch it if it is live."""
        heap = self._heap
        when, seq, kind, payload = heappop(heap)
        self._now = when
        if kind:
            # Callback lane.  The entry is live iff it carries the handle's
            # pending sequence number.  Otherwise, if it is the handle's
            # tracked entry, re-push it at a deferred rearm or retire it;
            # any other stale entry is skipped.
            if payload._entry_seq == seq:
                payload._entry_seq = -1
                payload._heap_when = _INF
                arg = payload._arg
                if arg is _NO_ARG:
                    payload._fn()
                else:
                    payload._fn(arg)
            elif payload._heap_seq == seq:
                if payload._entry_seq >= 0:
                    payload._heap_when = due = payload._when
                    payload._heap_seq = seq = payload._entry_seq
                    heappush(heap, (due, seq, _KIND_CALL, payload))
                else:
                    payload._heap_when = _INF
        else:
            callbacks = payload.callbacks
            payload.callbacks = []
            payload._state = PROCESSED
            for cb in callbacks:
                cb(payload)
        if self._crashed:
            self._raise_crashed()

    def _raise_crashed(self) -> None:
        # One event cascade can crash several processes; drain them all
        # so no crash is retained and misattributed to a later step.
        crashed, self._crashed = self._crashed, []
        _CRASHES.inc(len(crashed))
        if RECORDER.enabled:
            for proc, exc in crashed:
                RECORDER.record(
                    self._now, "sim", "process_crash",
                    process=proc.name, error=repr(exc),
                )
        names = ", ".join(repr(proc.name) for proc, _exc in crashed)
        noun = "process" if len(crashed) == 1 else "processes"
        raise RuntimeError(f"unhandled crash in {noun} {names}") from crashed[0][1]

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none.

        May report a dead entry's time: a cancelled timer's deadline, or a
        rearmed timer's earlier entry that will surface only to be re-pushed
        (lazy deletion and deferred rearms keep them heaped).
        """
        return self._heap[0][0] if self._heap else _INF

    def peek_live(self) -> float:
        """Time of the next *live* entry, or ``inf`` if none.

        Unlike :meth:`peek`, leading callback-lane entries that would not
        dispatch are settled first, exactly as the run loop settles them:
        a stale entry is popped, a tracked entry carrying a deferred rearm
        is re-pushed at its live ``(when, seq)``, a cancelled one retired.
        None of this runs a callback, so it is observably identical and
        deterministic.  The sharded coordinator uses this as its
        adaptive-lookahead hint: a dead RTO timer must not cap how far an
        idle shard's window can stretch.
        """
        heap = self._heap
        while heap:
            when, seq, kind, payload = heap[0]
            if not kind or payload._entry_seq == seq:
                return when
            heappop(heap)
            if payload._heap_seq == seq:
                if payload._entry_seq >= 0:
                    payload._heap_when = due = payload._when
                    payload._heap_seq = seq = payload._entry_seq
                    heappush(heap, (due, seq, _KIND_CALL, payload))
                else:
                    payload._heap_when = _INF
        return _INF

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:
          * ``None`` — run until the event heap drains.  ``now`` is then the
            time of the last entry popped, live or dead: a cancelled timer's
            entry is retired when it surfaces, at its own (possibly earlier
            than last armed) time;
          * a number — run until that absolute simulated time;
          * an :class:`Event` — run until it fires, returning its value
            (re-raising its exception if it failed).
        """
        # The step counter is batched per run() call: one flush instead of a
        # counter-attribute store per event keeps the hot loop overhead nil.
        # Each loop below inlines the body of :meth:`step` — at millions of
        # events per run, the per-event method call is measurable.
        steps = 0
        heap = self._heap
        pop = heappop
        push = heappush
        no_arg = _NO_ARG
        inf = _INF
        try:
            if until is None:
                while heap:
                    steps += 1
                    when, seq, kind, payload = pop(heap)
                    self._now = when
                    if kind:
                        if payload._entry_seq == seq:
                            payload._entry_seq = -1
                            payload._heap_when = inf
                            arg = payload._arg
                            if arg is no_arg:
                                payload._fn()
                            else:
                                payload._fn(arg)
                        elif payload._heap_seq == seq:
                            if payload._entry_seq >= 0:
                                payload._heap_when = due = payload._when
                                payload._heap_seq = seq = payload._entry_seq
                                push(heap, (due, seq, _KIND_CALL, payload))
                            else:
                                payload._heap_when = inf
                    else:
                        callbacks = payload.callbacks
                        payload.callbacks = []
                        payload._state = PROCESSED
                        for cb in callbacks:
                            cb(payload)
                    if self._crashed:
                        self._raise_crashed()
                return None

            if isinstance(until, Event):
                stop = until
                while not stop.processed:
                    if not heap:
                        raise RuntimeError(
                            "simulation starved: event heap drained before the "
                            "awaited event fired (deadlock?)"
                        )
                    steps += 1
                    when, seq, kind, payload = pop(heap)
                    self._now = when
                    if kind:
                        if payload._entry_seq == seq:
                            payload._entry_seq = -1
                            payload._heap_when = inf
                            arg = payload._arg
                            if arg is no_arg:
                                payload._fn()
                            else:
                                payload._fn(arg)
                        elif payload._heap_seq == seq:
                            if payload._entry_seq >= 0:
                                payload._heap_when = due = payload._when
                                payload._heap_seq = seq = payload._entry_seq
                                push(heap, (due, seq, _KIND_CALL, payload))
                            else:
                                payload._heap_when = inf
                    else:
                        callbacks = payload.callbacks
                        payload.callbacks = []
                        payload._state = PROCESSED
                        for cb in callbacks:
                            cb(payload)
                    if self._crashed:
                        self._raise_crashed()
                if stop._ok:
                    return stop._value
                raise stop._value

            deadline = float(until)
            if deadline < self._now:
                raise ValueError(f"run(until={deadline}) is in the past (now={self._now})")
            while heap and heap[0][0] <= deadline:
                steps += 1
                when, seq, kind, payload = pop(heap)
                self._now = when
                if kind:
                    if payload._entry_seq == seq:
                        payload._entry_seq = -1
                        payload._heap_when = inf
                        arg = payload._arg
                        if arg is no_arg:
                            payload._fn()
                        else:
                            payload._fn(arg)
                    elif payload._heap_seq == seq:
                        if payload._entry_seq >= 0:
                            payload._heap_when = due = payload._when
                            payload._heap_seq = seq = payload._entry_seq
                            push(heap, (due, seq, _KIND_CALL, payload))
                        else:
                            payload._heap_when = inf
                else:
                    callbacks = payload.callbacks
                    payload.callbacks = []
                    payload._state = PROCESSED
                    for cb in callbacks:
                        cb(payload)
                if self._crashed:
                    self._raise_crashed()
            self._now = deadline
            return None
        finally:
            _STEPS.value += steps

    # -- conveniences -----------------------------------------------------------
    def with_deadline(
        self, generator: Generator[Any, Any, Any], deadline: float
    ) -> Generator[Any, Any, Any]:
        """Wrap a process body so it fails with SimTimeoutError after ``deadline`` s.

        Usage inside a process::

            result = yield sim.process(sim.with_deadline(body(), 5.0))
        """

        def watchdog(target: Process) -> Generator[Any, Any, None]:
            yield self.timeout(deadline)
            if target.is_alive:
                target.interrupt(SimTimeoutError(deadline))

        def wrapper() -> Generator[Any, Any, Any]:
            from repro.sim.events import Interrupt

            target = self.process(generator)
            self.process(watchdog(target))
            try:
                result = yield target
            except Interrupt as exc:
                if isinstance(exc.cause, SimTimeoutError):
                    raise exc.cause from None
                raise
            return result

        return wrapper()
