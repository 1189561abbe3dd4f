"""Smoke test: tiny end-to-end RUBiS run with the observability layer on.

Run standalone with ``pytest -m smoke``; it also rides in the default
collection.  One second of simulated closed-loop load against the smallest
deployment, flight recorder enabled, then the ``repro-metrics/2`` report is
checked for well-formedness and the per-layer counts for plausibility.
"""

import json

import pytest

from repro.apps.workload import ClosedLoopClients
from repro.metrics import METRICS, RECORDER
from repro.metrics.report import (
    SCHEMA_VERSION,
    metrics_json,
    write_json_report,
)
from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud


@pytest.mark.smoke
def test_smoke_rubis_run_emits_well_formed_metrics(tmp_path):
    METRICS.reset()
    RECORDER.clear()
    try:
        RECORDER.enable()
        dep = build_rubis_cloud(seed=7, security="basic", n_web=1, extra_tenants=0)
        clients = ClosedLoopClients(
            dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
            n_clients=2, rng=dep.rngs.stream("smoke"), timeout=2.0, warmup=0.2,
        )
        proc = dep.sim.process(clients.run(1.0))
        result = dep.sim.run(until=proc)
        assert result.successes > 0

        payload = metrics_json(METRICS, RECORDER, extra={"scenario": "smoke"})
        # Well-formed, strict JSON (would raise on NaN).
        parsed = json.loads(json.dumps(payload, allow_nan=False))
        assert parsed["schema"] == SCHEMA_VERSION

        counters = parsed["counters"]
        assert counters["proxy.requests"] > 0
        assert counters["proxy.responses"] == counters["proxy.requests"]
        assert counters["tcp.segments_sent"] > counters["proxy.requests"]
        assert counters["link.tx_packets"] > 0
        assert counters["sim.steps"] > counters["link.tx_packets"]
        # Layer regrouping matches the flat counter namespace.
        assert parsed["layers"]["proxy"]["requests"] == counters["proxy.requests"]

        hist = parsed["histograms"]["proxy.request_s"]
        assert hist["count"] == counters["proxy.responses"]
        assert 0 < hist["p50"] <= hist["p95"] <= hist["max"]

        fr = parsed["flight_recorder"]
        assert fr["enabled"] and fr["recorded"] > 0
        assert fr["by_event"].get("link.tx", 0) > 0
        assert len(parsed["trace"]) == fr["buffered"]

        out = write_json_report(tmp_path / "smoke.metrics.json",
                                METRICS, RECORDER, extra={"scenario": "smoke"})
        assert json.loads(out.read_text())["extra"] == {"scenario": "smoke"}
    finally:
        RECORDER.disable()
        RECORDER.clear()
        METRICS.reset()
