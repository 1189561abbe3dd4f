"""Measurement substrate shared by the stack, benchmarks and scenarios.

Two process-wide singletons anchor the observability layer:

* :data:`METRICS` — a :class:`~repro.metrics.registry.MetricsRegistry` of
  counters and log-bucketed histograms (integer state that shard replies
  carry home) that instrumented modules bind handles to at import time
  (always on; a counter bump is a plain attribute add);
* :data:`RECORDER` — a :class:`~repro.metrics.recorder.FlightRecorder` ring
  buffer of structured trace events, **disabled by default**; hot paths
  guard every ``record()`` behind ``if RECORDER.enabled:``.

:mod:`repro.metrics.report` turns both into an end-of-run text report and a
JSON dump (schema ``repro-metrics/2``) that the benchmarks write next to
their ``bench_results/*.txt`` tables.
"""

from repro.metrics.recorder import FlightRecorder, TraceEvent
from repro.metrics.registry import Counter, Histogram, MetricsRegistry
from repro.metrics.stats import describe, mean, percentile, stdev

# Process-wide singletons (see module docstring).
METRICS = MetricsRegistry()
RECORDER = FlightRecorder()

__all__ = [
    "Counter",
    "FlightRecorder",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "RECORDER",
    "TraceEvent",
    "describe",
    "mean",
    "percentile",
    "stdev",
]
