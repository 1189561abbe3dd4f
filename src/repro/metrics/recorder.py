"""FlightRecorder: a ring-buffer structured trace of simulator events.

The recorder answers "what did the simulator actually *do*" — per-layer
packet sends and receives, HIP base-exchange state transitions, ESP
seal/open and replay drops, TCP retransmits, proxy pool churn — without any
of the layers knowing about each other.

Cost model: the recorder ships **disabled**.  Every instrumentation site is
guarded (``if RECORDER.enabled: RECORDER.record(...)``), so the disabled
cost is one attribute read per site.  When enabled, events land in a
``deque(maxlen=capacity)`` ring: old events fall off the back, a running
per-(layer, event) tally survives eviction, and memory stays bounded no
matter how long the run is.

Timestamps are caller-supplied (simulated seconds) because the recorder is
process-wide while clocks are per-:class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterator, NamedTuple


class TraceEvent(NamedTuple):
    t: float  # simulated time (seconds) at the recording site
    layer: str  # "link" | "tcp" | "esp" | "hip" | "proxy" | "sim" | ...
    event: str  # e.g. "tx", "retransmit", "bex_state", "esp_seal"
    fields: dict  # free-form structured detail


class FlightRecorder:
    """Bounded in-memory trace with near-zero cost while disabled."""

    def __init__(self, capacity: int = 8192, enabled: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        self.recorded = 0  # total record() calls, including evicted events
        self._tally: dict[tuple[str, str], int] = {}
        # Optional per-event tap, called with each TraceEvent as it is
        # recorded (before ring eviction).  The replay sanitizer uses this to
        # digest the *full* stream, not just the buffered tail.
        self.sink = None

    # -- recording -----------------------------------------------------------
    def record(self, t: float, layer: str, event: str, **fields) -> None:
        """Append one event.  Callers guard on ``.enabled`` first; the

        re-check here just makes an unguarded call safe, not fast."""
        if not self.enabled:
            return
        self.recorded += 1
        key = (layer, event)
        self._tally[key] = self._tally.get(key, 0) + 1
        ev = TraceEvent(t, layer, event, fields)
        self._buf.append(ev)
        if self.sink is not None:
            self.sink(ev)

    # -- lifecycle -----------------------------------------------------------
    def enable(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity != self.capacity:
            if capacity <= 0:
                raise ValueError("flight recorder capacity must be positive")
            self.capacity = capacity
            self._buf = deque(self._buf, maxlen=capacity)
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._buf.clear()
        self._tally.clear()
        self.recorded = 0

    @contextmanager
    def recording(self, capacity: int | None = None) -> Iterator["FlightRecorder"]:
        """Context manager: enable around a block, then restore ``enabled``
        and the capacity (a shrunk ring keeps its newest events)."""
        was_enabled, was_capacity = self.enabled, self.capacity
        self.enable(capacity)
        try:
            yield self
        finally:
            self.enable(was_capacity)
            self.enabled = was_enabled

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since the last ``clear()``."""
        return self.recorded - len(self._buf)

    def events(
        self, layer: str | None = None, event: str | None = None
    ) -> list[TraceEvent]:
        """Buffered events, oldest first, optionally filtered."""
        return [
            ev
            for ev in self._buf
            if (layer is None or ev.layer == layer)
            and (event is None or ev.event == event)
        ]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buf)

    def tally(self) -> dict[str, int]:
        """Running per-``layer.event`` counts (including evicted events)."""
        return {f"{layer}.{event}": n for (layer, event), n in sorted(self._tally.items())}

    def summary(self) -> dict:
        """JSON-ready view used by :mod:`repro.metrics.report`."""
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "buffered": len(self._buf),
            "dropped": self.dropped,
            "by_event": self.tally(),
        }
