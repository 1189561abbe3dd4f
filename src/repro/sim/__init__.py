"""Deterministic discrete-event simulation engine.

This subpackage is the substrate every other component runs on.  It is a
small, self-contained simpy-style engine: an :class:`~repro.sim.engine.Simulator`
owns a simulated clock and an event heap; *processes* are Python generators
that ``yield`` events (timeouts, one-shot events, other processes) and are
resumed when those events fire.

Determinism is a hard requirement for the reproduction (every experiment takes
a seed and must be bit-reproducible), so event ordering breaks ties by a
monotonic sequence number and all randomness flows through
:class:`~repro.sim.rng.RngStreams`.
"""

from repro.sim.engine import Simulator, SimTimeoutError, TimerHandle
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Process, Timeout
from repro.sim.resources import Queue, Resource
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Queue",
    "Resource",
    "RngStreams",
    "SimTimeoutError",
    "Simulator",
    "TimerHandle",
    "Timeout",
]
