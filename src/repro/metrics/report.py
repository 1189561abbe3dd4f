"""End-of-run observability report: the JSON dump.

The JSON schema (version ``repro-metrics/2``) consumed by
``bench_results/*.metrics.json``::

    {
      "schema": "repro-metrics/2",
      "counters":   {"<layer>.<name>": int, ...},
      "histograms": {"<layer>.<name>": {"count": int, "mean": float,
                                        "p50": float, "p95": float,
                                        "p99": float, "min": float,
                                        "max": float}},
      "layers":     {"<layer>": {"<name>": int, ...}},   # counters regrouped
      "flight_recorder": {"enabled": bool, "capacity": int, "recorded": int,
                          "buffered": int, "dropped": int,
                          "by_event": {"<layer>.<event>": int, ...}},
      "trace": [[t, "<layer>", "<event>", {...fields}], ...],  # buffered ring
      "extra": {...}                                      # caller-supplied
    }

Histogram ``count`` and ``mean`` are exact; quantiles, ``min`` and ``max``
are log-bucket values within 1 % of the sample at their rank.  ``trace``
carries at most the recorder's ring capacity; ``NaN`` never appears (empty
histograms serialize their statistics as ``null``) so the dump is
strict-JSON parseable.
"""

from __future__ import annotations

import json
import math
import pathlib

SCHEMA_VERSION = "repro-metrics/2"


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _clean(value: float | None):
    """NaN/inf -> None so the dump stays strict JSON."""
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return None
    return value


def metrics_json(registry=None, recorder=None, extra: dict | None = None) -> dict:
    """Build the full JSON-ready report for one run."""
    from repro.metrics import METRICS, RECORDER

    registry = registry if registry is not None else METRICS
    recorder = recorder if recorder is not None else RECORDER
    snap = registry.snapshot()
    layers: dict[str, dict[str, int]] = {}
    for name, value in sorted(snap["counters"].items()):
        layer = _layer_of(name)
        layers.setdefault(layer, {})[name.split(".", 1)[-1]] = value
    histograms = {
        name: {key: _clean(val) for key, val in summary.items()}
        for name, summary in sorted(snap["histograms"].items())
    }
    payload = {
        "schema": SCHEMA_VERSION,
        "counters": dict(sorted(snap["counters"].items())),
        "histograms": histograms,
        "layers": layers,
        "flight_recorder": recorder.summary(),
        "trace": [
            [ev.t, ev.layer, ev.event, ev.fields] for ev in recorder.events()
        ],
    }
    if extra:
        payload["extra"] = extra
    return payload


def write_json_report(
    path: str | pathlib.Path, registry=None, recorder=None, extra: dict | None = None
) -> pathlib.Path:
    """Dump :func:`metrics_json` to ``path``; returns the path."""
    path = pathlib.Path(path)
    payload = metrics_json(registry, recorder, extra=extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
