"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot synchronization point.  Processes obtain
events (directly, or via :class:`Timeout` / :class:`Process` handles) and
``yield`` them; the simulator resumes the process when the event succeeds or
fails.  Events carry an arbitrary ``value`` on success and an exception on
failure, mirroring the familiar future/promise contract.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

PENDING = "pending"
TRIGGERED = "triggered"  # scheduled for processing, outcome decided
PROCESSED = "processed"  # callbacks have run

#: Sentinel: "call fn with no argument" (None must stay passable as an arg).
_NO_ARG = object()

#: ``_Entry._heap_when`` of an entry with nothing heaped.
_INF = float("inf")


class _Entry:
    """Heap-entry bookkeeping shared by timers and events.

    The heap holds ``(when, seq, entry)``; ``seq`` is unique, so ``entry``
    never takes part in a comparison.  The entry's live firing is
    ``(_when, _entry_seq)``; ``_entry_seq`` is -1 once it has fired or been
    cancelled.  Separately it tracks the one heap tuple it may reuse,
    ``(_heap_when, _heap_seq)`` (``_heap_when`` is ``inf`` when there is
    none).  The two differ only while a later rearm of a timer is deferred.
    The engine fires a live entry as ``entry._fire()``, or
    ``entry._fire(entry._arg)`` when ``_arg`` is not ``_NO_ARG``.
    """

    __slots__ = ("sim", "_when", "_entry_seq", "_heap_when", "_heap_seq")

    _arg: Any = _NO_ARG

    def _arm_at(self, due: float) -> Any:
        """(Re)schedule the firing at absolute time ``due``; returns self.

        Any previously pending firing is cancelled.  The sequence number is
        drawn now, so the firing orders at ``(due, seq)`` exactly as a fresh
        push would.  If the entry's heaped tuple is due no later than
        ``due``, nothing is pushed: that tuple carries the new firing and is
        re-pushed at ``(due, seq)`` when it surfaces — before anything it
        could overtake.  Only an entry with nothing heaped (new or fired),
        or a rearm to an *earlier* time, pushes.
        """
        sim = self.sim
        if due < sim._now:
            raise ValueError(f"timer rearmed into the past: {due} < {sim._now}")
        sim._seq += 1
        seq = sim._seq
        self._when = due
        self._entry_seq = seq
        if self._heap_when > due:
            self._heap_when = due
            self._heap_seq = seq
            heappush(sim._heap, (due, seq, self))
        return self


class Event(_Entry):
    """One-shot event that processes can wait on.

    State machine: ``pending`` -> ``triggered`` (via :meth:`succeed` or
    :meth:`fail`, which arm its heap entry) -> ``processed`` (after the
    simulator fires the entry and runs the callbacks).
    """

    __slots__ = ("callbacks", "_value", "_ok", "_state")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool | None = None
        self._state = PENDING
        self._heap_when = _INF

    # -- inspection ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise RuntimeError("event outcome not decided yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise RuntimeError("event value not available yet")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks now."""
        return self._trigger(True, value)

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiters will see ``exception`` raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        return self._trigger(False, exception)

    def _trigger(self, ok: bool, value: Any, delay: float = 0.0) -> "Event":
        if self._state != PENDING:
            raise RuntimeError(f"event already {self._state}")
        self._ok = ok
        self._value = value
        self._state = TRIGGERED
        return self._arm_at(self.sim._now + delay)

    def _fire(self) -> None:
        """The engine's dispatch of this event: run the waiters' callbacks."""
        callbacks = self.callbacks
        self.callbacks = []
        self._state = PROCESSED
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """Event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._trigger(True, value, delay)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that fires when the generator returns
    (success, with the return value) or raises (failure).  This lets
    processes wait for each other simply by yielding the process handle.
    """

    __slots__ = ("generator", "_waiting_on", "name", "_pid")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        self._pid = sim._register_process(self)
        # Bootstrap: resume once at the current time, booked as a timer
        # (one heap tuple, no Event).  The sequence number is drawn here,
        # so same-time ordering follows creation order.
        sim.call_later(0.0, Process._boot, self)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        twice before it runs again queues both interrupts.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt dead process {self.name!r}")
        self.sim.call_later(0.0, self._deliver_interrupt, Interrupt(cause))

    def close(self) -> None:
        """Finalize the generator *now* (throws ``GeneratorExit`` into it).

        Detaches from whatever event the process was waiting on, so its
        ``finally`` blocks run at a deterministic, caller-chosen point rather
        than whenever the garbage collector happens to reach the suspended
        frame.  Cleanup code may still send packets or record trace events;
        anything it schedules simply stays on the heap.  No-op on a finished
        process.
        """
        if not self.is_alive:
            return
        target = self._waiting_on
        if target is not None:
            in_list_remove(target.callbacks, self._resume)
            self._waiting_on = None
        try:
            self.generator.close()
        finally:
            self.sim._forget_process(self)
            if self._state == PENDING:
                # Shutdown semantics: the process is over, nobody gets
                # resumed.  Waiters' callbacks are intentionally dropped.
                self._ok = False
                self._value = GeneratorExit("process closed")
                self._state = PROCESSED

    def _deliver_interrupt(self, interrupt: Interrupt) -> None:
        if not self.is_alive:
            return  # process finished in the meantime; drop the interrupt
        target = self._waiting_on
        if target is not None:
            in_list_remove(target.callbacks, self._resume)
            self._waiting_on = None
        self._step(throw=interrupt)

    def _boot(self) -> None:
        """First resume, fired by the boot timer."""
        if self._state == PENDING:  # a process can be close()d before booting
            self._step(send=None)

    def _resume(self, evt: Event) -> None:
        self._waiting_on = None
        if evt._ok:
            self._step(send=evt._value)
        else:
            self._step(throw=evt._value)

    def _step(self, send: Any = None, throw: BaseException | None = None) -> None:
        sim = self.sim
        generator = self.generator
        while True:
            sim._active_process = self
            try:
                if throw is not None:
                    target = generator.throw(throw)
                else:
                    target = generator.send(send)
            except StopIteration as exc:
                sim._active_process = None
                sim._forget_process(self)
                self.succeed(exc.value)
                return
            except BaseException as exc:
                sim._active_process = None
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                sim._forget_process(self)
                self.fail(exc)
                if not self.callbacks:
                    # Nobody is waiting on this process: surface the crash.
                    sim._crashed.append((self, exc))
                return
            sim._active_process = None

            if not isinstance(target, Event):
                send = None
                throw = TypeError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event instances (Timeout, Event, Process, ...)"
                )
                continue
            if target._state != PROCESSED:
                self._waiting_on = target
                target.callbacks.append(self._resume)
                return
            # Target already fired: feed its outcome straight back into the
            # generator — no follow Event, no reschedule, no extra dispatch.
            # A failure is thrown in, so an uncaught one lands in the except
            # branch above and gets full fail()/crash accounting.
            if target._ok:
                send, throw = target._value, None
            else:
                send, throw = None, target._value


def in_list_remove(lst: list, item: Any) -> bool:
    """Remove ``item`` from ``lst`` if present; return whether it was there."""
    try:
        lst.remove(item)
        return True
    except ValueError:
        return False


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed([])
            return
        for evt in self.events:
            if evt.processed:
                self._on_fire(evt)
            else:
                evt.callbacks.append(self._on_fire)

    def _on_fire(self, evt: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ()

    def _on_fire(self, evt: Event) -> None:
        if self._state != PENDING:
            return
        if not evt._ok:
            self.fail(evt._value)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is ``(event, value)``."""

    __slots__ = ()

    def _on_fire(self, evt: Event) -> None:
        if self._state != PENDING:
            return
        if not evt._ok:
            self.fail(evt._value)
            return
        self.succeed((evt, evt._value))
