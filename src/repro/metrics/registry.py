"""Process-wide metrics primitives: counters, gauges, latency histograms.

The simulator creates and discards :class:`~repro.sim.engine.Simulator`
instances per scenario, but a benchmark wants one merged view of everything
that ran in the process.  So the registry is process-wide (see
``repro.metrics.METRICS``) and instrumented modules bind their handles once
at import time::

    _TX = METRICS.counter("link.tx_packets")
    ...
    _TX.inc()          # plain attribute add — cheap enough for hot paths

Metric names are dot-namespaced; the segment before the first dot is the
*layer* (``link``, ``tcp``, ``esp``, ``hip``, ``proxy``, ``sim``) and the
report module groups by it.

``reset()`` zeroes every metric **in place** — handles bound by instrumented
modules stay valid across resets, which is what lets one process run many
isolated measurements.  ``mark()``/``rewind()``/``commit()`` carry counter
increments from a shard worker's registry to the coordinator's (see
:mod:`repro.sim.shard`).
"""

from __future__ import annotations

from typing import Iterator

from repro.metrics.stats import mean, percentile

HISTOGRAM_RESERVOIR = 4096


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value", "_mark")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._mark = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def _reset(self) -> None:
        self.value = self._mark = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Last-value-wins instantaneous measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def _reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Latency/size distribution with a bounded, deterministic reservoir.

    ``count``/``total``/``minimum``/``maximum`` are exact over every
    observation; percentiles are computed over the first ``capacity``
    samples (no random subsampling — determinism is a repo-wide invariant).
    """

    __slots__ = ("name", "capacity", "count", "total", "minimum", "maximum", "_values")

    def __init__(self, name: str, capacity: int = HISTOGRAM_RESERVOIR) -> None:
        if capacity <= 0:
            raise ValueError("histogram capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._reset()

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._values) < self.capacity:
            self._values.append(value)

    def percentile(self, p: float) -> float:
        return percentile(self._values, p)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.minimum if self.minimum is not None else float("nan"),
            "max": self.maximum if self.maximum is not None else float("nan"),
            "reservoir": len(self._values),
        }

    def _reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._values: list[float] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named collection of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create, so any module can
    bind a handle without caring who registered the name first.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- handles -------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_name(name)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_name(name)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, capacity: int = HISTOGRAM_RESERVOIR) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_name(name)
            metric = self._histograms[name] = Histogram(name, capacity)
        return metric

    def _check_name(self, name: str) -> None:
        if not name or name != name.strip():
            raise ValueError(f"bad metric name {name!r}")
        kinds = (self._counters, self._gauges, self._histograms)
        if sum(name in kind for kind in kinds):
            raise ValueError(f"metric {name!r} already registered with another type")

    # -- inspection ----------------------------------------------------------
    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def snapshot(self) -> dict:
        """JSON-ready view: counters/gauges as scalars, histogram summaries."""
        return {
            "counters": {c.name: c.value for c in self._counters.values()},
            "gauges": {g.name: g.value for g in self._gauges.values()},
            "histograms": {
                h.name: h.summary() for h in self._histograms.values()
            },
        }

    def mark(self) -> None:
        """Remember every counter's value for :meth:`rewind`."""
        for counter in self._counters.values():
            counter._mark = counter.value

    def rewind(self) -> list[tuple[str, int]]:
        """Return counters to their :meth:`mark`; the non-zero ``(name, n)``
        increments booked since."""
        moved = []
        for counter in self._counters.values():
            n = counter.value - counter._mark
            if n:
                moved.append((counter.name, n))
                counter.value = counter._mark
        return moved

    def commit(self, increments: list[tuple[str, int]]) -> None:
        """Book ``(name, n)`` increments another registry :meth:`rewind` took."""
        for name, n in increments:
            self.counter(name).value += n

    def reset(self) -> None:
        """Zero every metric in place; bound handles remain valid."""
        for kind in (self._counters, self._gauges, self._histograms):
            for metric in kind.values():
                metric._reset()
