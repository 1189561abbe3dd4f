"""Shared benchmark configuration.

Each benchmark regenerates one table/figure of the paper.  Results are
printed and also written to ``bench_results/*.txt`` so the numbers survive
pytest's output capture.  Set ``REPRO_BENCH_FULL=1`` for the full
paper-scale sweeps (longer durations, all client counts); the default quick
mode keeps total runtime manageable while preserving every qualitative
shape.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.metrics import METRICS, RECORDER
from repro.metrics.report import metrics_json

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


@pytest.fixture(scope="session")
def bench_mode() -> dict:
    if FULL:
        return {
            "full": True,
            "fig2_clients": [2, 3, 4, 6, 10, 20, 30, 50],
            "fig2_duration": 8.0,
            "fig2_warmup": 2.0,
            "httperf_duration": 10.0,
            "iperf_bytes": 12_000_000,
            "ping_count": 20,
            "rsa_bits": 1024,
        }
    return {
        "full": False,
        "fig2_clients": [2, 10, 30, 50],
        "fig2_duration": 3.5,
        "fig2_warmup": 1.0,
        "httperf_duration": 5.0,
        "iperf_bytes": 6_000_000,
        "ping_count": 20,
        "rsa_bits": 512,
    }


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(autouse=True)
def metrics_snapshot(request, report_dir):
    """Per-benchmark layer breakdown: reset the registry, dump it afterwards.

    Every benchmark gets a ``<test>.metrics.json`` (schema ``repro-metrics/2``)
    next to its text table, so throughput/latency numbers come with the
    per-layer packet and drop counts that produced them.
    """
    METRICS.reset()
    yield
    payload = metrics_json(METRICS, RECORDER, extra={"benchmark": request.node.name})
    path = report_dir / f"{request.node.name}.metrics.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_report(report_dir: pathlib.Path, name: str, lines: list[str]) -> None:
    text = "\n".join(lines)
    print("\n" + text)
    (report_dir / f"{name}.txt").write_text(text + "\n")
