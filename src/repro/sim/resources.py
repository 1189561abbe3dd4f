"""Shared resources for simulation processes: FIFO queues, counted resources
and timer pools.

These are the primitives the application substrates build on — a web server's
worker pool is a :class:`Resource`, a NIC transmit buffer or a server's accept
backlog is a :class:`Queue`, a node's CPU completions share a :class:`TimerPool`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.engine import TimerHandle
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class TimerPool:
    """Timers for one callback ``fn(arg)``, each rearmed once it has fired.

    A per-event callback (a CPU charge's completion, a slot's grant) needs
    only as many handles as were ever pending at once, not one per event.
    """

    __slots__ = ("sim", "fn", "timers")

    def __init__(self, sim: "Simulator", fn: Callable) -> None:
        self.sim = sim
        self.fn = fn
        self.timers: list[TimerHandle] = []

    def call_later(self, delay: float, arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay``, as ``sim.call_later`` would."""
        for timer in self.timers:
            if timer._entry_seq < 0:  # fired (or never armed): free
                break
        else:
            timer = TimerHandle(self.sim, self.fn)
            self.timers.append(timer)
        timer._arg = arg
        timer.rearm_at(self.sim._now + delay)


class QueueFullError(Exception):
    """Raised (or used to fail put events) when a bounded queue overflows."""


class Queue:
    """FIFO queue between processes.

    ``put`` is immediate (and fails the returned event if the queue is
    bounded and full — modeling drop-tail behaviour); ``get`` returns an
    event that fires when an item is available.
    """

    def __init__(self, sim: "Simulator", capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.dropped = 0  # count of rejected puts, for loss statistics

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False (and counts a drop) if full."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            return True
        if self.is_full:
            self.dropped += 1
            return False
        self._items.append(item)
        return True

    def put(self, item: Any) -> Event:
        """Put returning an event: succeeds now, or fails with QueueFullError."""
        evt = self.sim.event()
        if self.try_put(item):
            evt.succeed(item)
        else:
            evt.fail(QueueFullError(f"queue full (capacity={self.capacity})"))
        return evt

    def get(self) -> Event:
        """Event that fires with the next item (FIFO across waiters)."""
        evt = self.sim.event()
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> tuple[bool, Any]:
        if self._items:
            return True, self._items.popleft()
        return False, None


class Resource:
    """Counted resource with FIFO waiting (e.g. a pool of server workers).

    Usage inside a process::

        req = pool.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            pool.release(req)

    Callback-lane users call :meth:`acquire` instead and later
    ``release()``; both kinds of waiter share one FIFO, so slots are granted
    in arrival order whichever lane asked.
    """

    def __init__(self, sim: "Simulator", capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event | tuple[Callable, Any]] = deque()
        self._grants = TimerPool(sim, self._grant)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        evt = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            evt.succeed(evt)
        else:
            self._waiters.append(evt)
        return evt

    def acquire(self, fn: Callable, arg: Any) -> None:
        """Callback-lane :meth:`request`: run ``fn(arg)`` once a slot is held.

        A free slot is claimed and ``fn`` runs inline (a generator's
        ``request`` claims it at the same point and spends one zero-delay
        event learning so); otherwise ``(fn, arg)`` queues behind earlier
        waiters and runs from a zero-delay timer when a release hands it the
        slot.  The holder calls ``release()`` when done.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            fn(arg)
        else:
            self._waiters.append((fn, arg))

    def release(self, request: Event | None = None) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release without matching request")
        if self._waiters:
            nxt = self._waiters.popleft()  # hand the slot directly to the next waiter
            if type(nxt) is tuple:
                self._grants.call_later(0.0, nxt)
            else:
                nxt.succeed(nxt)
        else:
            self._in_use -= 1

    @staticmethod
    def _grant(waiter: tuple[Callable, Any]) -> None:
        waiter[0](waiter[1])

    def cancel(self, request: Event) -> bool:
        """Withdraw a queued (not yet granted) request; returns True if removed."""
        try:
            self._waiters.remove(request)
            return True
        except ValueError:
            return False
