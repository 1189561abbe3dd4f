"""The discrete-event simulator core: clock, event heap, run loop.

The heap holds one kind of entry, ``(when, seq, entry)``.  ``entry`` is a
:class:`TimerHandle` — a raw ``fn(arg)`` timer from
:meth:`Simulator.call_later` / :meth:`Simulator.call_at`: no ``Event`` is
allocated, cancellation is lazy and a handle is rearmed in place, so
per-packet machinery costs one heap tuple — or an
:class:`~repro.sim.events.Event`, whose firing runs its waiters' callbacks.
Both arm through :class:`~repro.sim.events._Entry` and draw sequence numbers
from one counter, so same-timestamp entries fire strictly in scheduling
order — the determinism contract the replay sanitizer enforces.

One dispatcher, :meth:`Simulator._dispatch`, pops the heap for every form of
:meth:`Simulator.run` and for :meth:`Simulator.step`.  One helper,
``_settle``, re-pushes an entry that carries a deferred rearm (see
:meth:`TimerHandle.rearm_at`) or retires a stale one, for the dispatcher and
for :meth:`Simulator.peek_live`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.metrics import METRICS, RECORDER
from repro.sim.events import (
    _INF, _NO_ARG, PROCESSED, Event, Process, Timeout, _Entry,
)

_STEPS = METRICS.counter("sim.steps")
_CRASHES = METRICS.counter("sim.process_crashes")


class SimTimeoutError(Exception):
    """Raised when a wait exceeds its deadline (see :meth:`Simulator.with_deadline`)."""


class TimerHandle(_Entry):
    """Cancellable handle for a ``fn(arg)`` timer.

    Cancellation is *lazy*: :meth:`cancel` invalidates the handle and the
    already-pushed heap entry stays heaped, so cancelling is O(1) with no
    heap surgery.  :meth:`rearm` / :meth:`rearm_at` reschedule the same
    handle (same ``fn``/``arg``), invalidating any pending firing — the
    idiom for self-rearming protocol timers (TCP RTO).  When a deferred
    rearm's tracked entry surfaces, the engine re-pushes it at the live
    ``(when, seq)``, or retires it if the handle was cancelled meanwhile.
    """

    # ``_fire`` is the callback itself: the dispatcher calls it directly.
    __slots__ = ("_fire", "_arg")

    def __init__(self, sim: "Simulator", fn: Callable, arg: Any = _NO_ARG) -> None:
        self.sim = sim
        self._fire = fn
        self._arg = arg
        self._when = -1.0
        self._entry_seq = -1
        self._heap_when = _INF

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
        return self._arm_at(self.sim._now + delay)

    #: (Re)schedule this timer at absolute time ``due``; returns self.  This
    #: is the shared arm primitive (see ``_Entry._arm_at``): a rearm no
    #: earlier than the heaped entry pushes nothing.
    rearm_at = _Entry._arm_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "inactive"
        return f"<TimerHandle {state} when={self._when}>"


#: The ``stop`` of a run that waits for no event: never armed, never fires.
_NEVER = Event(None)  # type: ignore[arg-type]


def _settle(heap: list, entry: _Entry, seq: int) -> None:
    """Settle a popped entry that does not fire.

    If it is the entry's tracked heap tuple, re-push it at a deferred
    rearm's live ``(when, seq)``, or retire it if the entry was cancelled;
    any other stale tuple is dropped.  Nothing is called.
    """
    if entry._heap_seq == seq:
        if entry._entry_seq >= 0:
            entry._heap_when = due = entry._when
            entry._heap_seq = seq = entry._entry_seq
            heappush(heap, (due, seq, entry))
        else:
            entry._heap_when = _INF


class Simulator:
    """Deterministic discrete-event simulator.

    Entries scheduled for the same simulated time fire in the order they were
    scheduled (FIFO via one monotonically increasing sequence number shared
    by timers and events), which makes whole-experiment runs
    bit-reproducible for a fixed seed.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, _Entry]] = []
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

    # -- timers --------------------------------------------------------------
    def call_later(self, delay: float, fn: Callable, arg: Any = _NO_ARG) -> TimerHandle:
        """Run ``fn()`` (or ``fn(arg)``) after ``delay`` simulated seconds.

        Returns a cancellable :class:`TimerHandle`.  No :class:`Event` is
        allocated: the callback runs directly from the dispatcher,
        interleaved FIFO with events at equal timestamps.
        """
        if not callable(fn):
            raise TypeError(f"call_later fn must be callable, got {fn!r}")
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay!r}")
        return TimerHandle(self, fn, arg)._arm_at(self._now + delay)

    def call_at(self, when: float, fn: Callable, arg: Any = _NO_ARG) -> TimerHandle:
        """Run ``fn()`` (or ``fn(arg)``) at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"call_at into the past: {when} < {self._now}")
        if not callable(fn):
            raise TypeError(f"call_at fn must be callable, got {fn!r}")
        return TimerHandle(self, fn, arg)._arm_at(when)

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
        creation order, then drops the event heap (pending timers are
        discarded with it — they never fire).  Returns the number
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
    def _dispatch(self, deadline: float, stop: Event = _NEVER, once: bool = False) -> None:
        """The one dispatcher: pop heap entries due by ``deadline``, firing
        the live ones and settling the rest, until ``stop`` is processed or
        the heap runs out — or after one pop if ``once``."""
        # The step counter is flushed once per call: a counter-attribute
        # store per event would be measurable at millions of events.
        steps = 0
        heap = self._heap
        pop = heappop
        no_arg = _NO_ARG
        processed = PROCESSED
        try:
            while stop._state is not processed and heap and heap[0][0] <= deadline:
                when, seq, entry = pop(heap)
                self._now = when
                steps += 1
                if entry._entry_seq == seq:
                    entry._entry_seq = -1
                    entry._heap_when = _INF
                    arg = entry._arg
                    if arg is no_arg:
                        entry._fire()
                    else:
                        entry._fire(arg)
                    if self._crashed:
                        self._raise_crashed()
                else:
                    _settle(heap, entry, seq)
                if once:
                    return
        finally:
            _STEPS.value += steps

    def step(self) -> None:
        """Pop one heap entry and dispatch it if it is live."""
        if not self._heap:
            raise IndexError("step() on an empty event heap")
        self._dispatch(_INF, once=True)

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

        Unlike :meth:`peek`, leading entries that would not fire are settled
        first, exactly as the dispatcher settles them: a stale entry is
        popped, a tracked entry carrying a deferred rearm is re-pushed at
        its live ``(when, seq)``, a cancelled one retired.  None of this
        runs a callback, so it is observably identical and deterministic.
        The sharded coordinator uses this as its adaptive-lookahead hint: a
        dead RTO timer must not cap how far an idle shard's window can
        stretch.
        """
        heap = self._heap
        while heap:
            when, seq, entry = heap[0]
            if entry._entry_seq == seq:
                return when
            heappop(heap)
            _settle(heap, entry, seq)
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
        if until is None:
            self._dispatch(_INF)
            return None
        if isinstance(until, Event):
            self._dispatch(_INF, until)
            if until._state is not PROCESSED:
                raise RuntimeError(
                    "simulation starved: event heap drained before the "
                    "awaited event fired (deadlock?)"
                )
            if until._ok:
                return until._value
            raise until._value
        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"run(until={deadline}) is in the past (now={self._now})")
        self._dispatch(deadline)
        self._now = deadline
        return None

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
