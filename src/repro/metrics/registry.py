"""Process-wide metrics primitives: counters and latency histograms.

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
and histogram increments from a shard worker's registry to the
coordinator's (see :mod:`repro.sim.shard`).
"""

from __future__ import annotations

import re
from math import ceil, floor, log, nan
from typing import Iterator

#: Bucket ``i`` holds the samples in ``(GROWTH**(i-1), GROWTH**i]`` and
#: reports them at its geometric midpoint, within ``sqrt(GROWTH) - 1``
#: (under 1 %) of each: the DDSketch layout (Masson et al., VLDB 2019).
GROWTH = 1.02
_PER_LOG = 1 / log(GROWTH)
_ZERO = -(1 << 20)  # 0.0's bucket, below the least positive float's -37,593
#: A :meth:`MetricsRegistry.rewind` key: a counter name, or a histogram name
#: and ``#`` with a bucket index or ``ns`` (the sum).
_KEY = re.compile(r"([^#]+)(?:#(ns|-?[0-9]+))?")


def _check_name(name: str, other_kind: dict) -> None:
    if not name or name != name.strip() or "#" in name:
        raise ValueError(f"bad metric name {name!r}")
    if name in other_kind:
        raise ValueError(f"metric {name!r} already registered with another type")


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


class Histogram:
    """Distribution of finite non-negative samples: a count per log bucket
    (see :data:`GROWTH`) and their sum in nanoseconds, so the count and mean
    are exact and every quantile is within 1 % of the sample at its rank."""

    __slots__ = ("name", "buckets", "total_ns", "_mark")

    def __init__(self, name: str) -> None:
        self.name = name
        self._reset()

    def observe(self, value: float) -> None:
        try:
            i = ceil(log(value) * _PER_LOG) if value else _ZERO
        except (ValueError, OverflowError):  # negative, NaN or infinite
            raise ValueError(
                f"histogram {self.name!r} got a sample of {value!r}"
            ) from None
        buckets = self.buckets
        buckets[i] = buckets.get(i, 0) + 1
        self.total_ns += int(value * 1e9 + 0.5)

    @property
    def count(self) -> int:
        return sum(self.buckets.values())

    def _quantile(self, p: float) -> float:
        """The bucket value of the sample at rank ``floor(p/100 * (count-1))``."""
        rank = floor(p * (self.count - 1) / 100)
        for i in sorted(self.buckets):
            rank -= self.buckets[i]
            if rank < 0:
                return 0.0 if i == _ZERO else GROWTH ** (i - 0.5)
        return nan

    def summary(self) -> dict:
        count = self.count
        ranks = {"p50": 50, "p95": 95, "p99": 99, "min": 0, "max": 100}
        return {
            "count": count,
            "mean": self.total_ns / count / 1e9 if count else nan,
            **{key: self._quantile(p) for key, p in ranks.items()},
        }

    def _reset(self) -> None:
        self.buckets: dict[int, int] = {}  # repro: ignore[PERF001] -- once per new histogram or reset(), never per event
        self.total_ns = 0
        self._mark: tuple[dict[int, int], int] = ({}, 0)  # repro: ignore[PERF001] -- once per new histogram or reset(), never per event


class MetricsRegistry:
    """Named collection of counters and histograms.

    ``counter``/``histogram`` are get-or-create, so any module can bind a
    handle without caring who registered the name first.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- handles -------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            _check_name(name, self._histograms)
            metric = self._counters[name] = Counter(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            _check_name(name, self._counters)
            metric = self._histograms[name] = Histogram(name)
        return metric

    # -- inspection ----------------------------------------------------------
    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def snapshot(self) -> dict:
        """JSON-ready view: counters as scalars, histogram summaries."""
        return {
            "counters": {c.name: c.value for c in self._counters.values()},
            "histograms": {
                h.name: h.summary() for h in self._histograms.values()
            },
        }

    def mark(self) -> None:
        """Remember every metric's state for :meth:`rewind`."""
        for counter in self._counters.values():
            counter._mark = counter.value
        for hist in self._histograms.values():
            hist._mark = (dict(hist.buckets), hist.total_ns)  # repro: ignore[PERF001] -- one copy per histogram per shard command, never per event

    def rewind(self) -> list[tuple[str, int]]:
        """Return every metric to its :meth:`mark`; the non-zero ``(key, n)``
        increments booked since, keyed as :data:`_KEY` reads them."""
        moved = []
        for counter in self._counters.values():
            n = counter.value - counter._mark
            if n:
                moved.append((counter.name, n))
                counter.value = counter._mark
        for hist in self._histograms.values():
            buckets, total_ns = hist._mark
            for i, n in hist.buckets.items():
                if n != buckets.get(i, 0):
                    moved.append((f"{hist.name}#{i}", n - buckets.get(i, 0)))  # repro: ignore[PERF001] -- one key per bucket a shard command moved: the reply's payload
            if hist.total_ns != total_ns:
                moved.append((f"{hist.name}#ns", hist.total_ns - total_ns))  # repro: ignore[PERF001] -- one key per histogram a shard command moved: the reply's payload
            hist.buckets, hist.total_ns = buckets, total_ns
        return moved

    def parse(self, key: str) -> tuple[str, str | None]:
        """``(name, part)`` of a :meth:`rewind` key (``part`` None: a counter)."""
        match = _KEY.fullmatch(key)
        if match is None:
            raise ValueError(f"malformed metric key {key!r}")
        name, part = match.groups()
        _check_name(name, self._histograms if part is None else self._counters)
        return name, part

    def commit(self, increments: list[tuple[str, int]]) -> None:
        """Book ``(key, n)`` increments another registry :meth:`rewind` took;
        every key is parsed before any is booked."""
        for (name, part), n in [(self.parse(key), n) for key, n in increments]:
            if part is None:
                self.counter(name).value += n
            elif part == "ns":
                self.histogram(name).total_ns += n
            else:
                buckets = self.histogram(name).buckets
                buckets[int(part)] = buckets.get(int(part), 0) + n

    def reset(self) -> None:
        """Zero every metric in place; bound handles remain valid."""
        for kind in (self._counters, self._histograms):
            for metric in kind.values():
                metric._reset()
