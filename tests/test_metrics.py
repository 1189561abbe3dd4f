"""Unit tests for the metrics registry, flight recorder and report module."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from repro.metrics import FlightRecorder, METRICS, MetricsRegistry, RECORDER
from repro.metrics.report import (
    SCHEMA_VERSION,
    metrics_json,
    render_report,
    write_json_report,
)


class TestRegistry:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("link.tx_packets")
        c.inc()
        c.inc(4)
        c.value += 1
        assert c.value == 6
        assert reg.counter("link.tx_packets") is c  # get-or-create

    def test_cross_type_name_rejected(self):
        reg = MetricsRegistry()
        reg.counter("esp.drops")
        with pytest.raises(ValueError, match="another type"):
            reg.histogram("esp.drops")

    def test_bad_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("")
        with pytest.raises(ValueError):
            reg.counter(" padded ")
        with pytest.raises(ValueError):  # '#' separates a histogram's parts
            reg.histogram("tcp.rtt_s#3")

    def test_reset_zeroes_in_place(self):
        """Handles bound before a reset must stay live — the instrumented
        modules bind module-level handles exactly once, at import."""
        reg = MetricsRegistry()
        c = reg.counter("tcp.connects")
        h = reg.histogram("tcp.rtt_s")
        c.inc(9)
        h.observe(0.5)
        reg.reset()
        assert c.value == 0
        assert h.count == 0
        c.inc()
        h.observe(1.0)
        assert reg.counter("tcp.connects") is c
        assert reg.snapshot()["counters"]["tcp.connects"] == 1
        assert reg.snapshot()["histograms"]["tcp.rtt_s"]["count"] == 1

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a.n").inc()
        reg.histogram("c.h").observe(3.0)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "histograms"}
        assert snap["counters"] == {"a.n": 1}
        assert snap["histograms"]["c.h"]["count"] == 1


def seeded_samples(seed: int = 5, n: int = 5000) -> list[float]:
    """Log-uniform samples from 1 us to 10 s, plus some 0.0 samples."""
    rng = random.Random(seed)
    samples = [10 ** rng.uniform(-6, 1) for _ in range(n)] + [0.0] * 40
    rng.shuffle(samples)
    return samples


def split_registries(samples: list[float], parts: int) -> list[list]:
    """Each registry's increments for one slice of ``samples``, taken the way
    a shard's reply takes them: ``mark()``, observe, ``rewind()``."""
    increments = []
    for part in range(parts):
        reg = MetricsRegistry()
        hist = reg.histogram("t.lat")
        hist.observe(1.0)  # state before the mark stays behind
        reg.mark()
        for value in samples[part::parts]:
            hist.observe(value)
        increments.append(reg.rewind())
        assert hist.count == 1 and hist.total_ns == 10**9
    return increments


class TestHistogram:
    def test_quantiles_within_one_percent_of_their_rank(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.lat")
        samples = seeded_samples()
        for v in samples:
            h.observe(v)
        ordered = sorted(samples)
        n = len(ordered)
        summary = h.summary()
        assert summary["count"] == n
        exact_mean = sum(map(Fraction, samples)) / n
        assert abs(Fraction(summary["mean"]) - exact_mean) <= Fraction(1, 10**9)
        for key, p in (("min", 0), ("p50", 50), ("p95", 95), ("p99", 99), ("max", 100)):
            r = p / 100 * (n - 1)
            at_rank = {ordered[math.floor(r)], ordered[math.ceil(r)]}
            assert any(
                abs(summary[key] - x) <= 0.01 * x for x in at_rank
            ), (key, summary[key], at_rank)
        assert summary["min"] == 0.0
        assert summary["max"] == pytest.approx(max(samples), rel=0.01)

    def test_split_streams_commit_to_one_summary_in_any_order(self):
        samples = seeded_samples(seed=9, n=600)
        whole = MetricsRegistry()
        for v in samples:
            whole.histogram("t.lat").observe(v)
        expected = whole.snapshot()["histograms"]
        increments = split_registries(samples, 3)
        for order in itertools.permutations(increments):
            merged = MetricsRegistry()
            for moved in order:
                merged.commit(moved)
            assert merged.snapshot()["histograms"] == expected
            assert merged.histogram("t.lat").buckets == whole.histogram("t.lat").buckets

    def test_malformed_or_cross_kind_key_commits_nothing(self):
        reg = MetricsRegistry()
        reg.counter("link.tx_packets")
        for key in ("t.lat#x", "t.lat#", "#3", "t.lat#3#4", "link.tx_packets#3"):
            with pytest.raises(ValueError):
                reg.commit([("t.lat#3", 1), (key, 1)])
        assert "t.lat" not in reg.snapshot()["histograms"]
        assert set(reg.snapshot()["counters"]) == {"link.tx_packets"}

    def test_single_observation(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.one")
        h.observe(7.0)
        summary = h.summary()
        assert summary["count"] == 1 and summary["mean"] == 7.0
        for key in ("p50", "p95", "p99", "min", "max"):
            assert summary[key] == pytest.approx(7.0, rel=0.01)

    def test_empty_summary_is_nan_not_crash(self):
        reg = MetricsRegistry()
        summary = reg.histogram("t.empty").summary()
        assert summary["count"] == 0
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["mean"])

    def test_buckets_bound_memory_and_cover_every_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.big")
        for v in range(100_000):
            h.observe(float(v))
        assert h.count == 100_000  # exact
        assert len(h.buckets) < 600  # one per 2 % of range, not per sample
        summary = h.summary()
        assert summary["p50"] == pytest.approx(49_999.0, rel=0.01)
        assert summary["max"] == pytest.approx(99_999.0, rel=0.01)

    def test_negative_or_nan_sample_rejected(self):
        h = MetricsRegistry().histogram("t.bad")
        for value in (-1e-9, math.nan):
            with pytest.raises(ValueError):
                h.observe(value)
        assert h.count == 0


class TestFlightRecorder:
    def test_disabled_records_nothing(self):
        rec = FlightRecorder()
        rec.record(0.0, "link", "tx", bytes=100)
        assert len(rec) == 0
        assert rec.recorded == 0

    def test_record_and_filter(self):
        rec = FlightRecorder(enabled=True)
        rec.record(0.1, "link", "tx", bytes=100)
        rec.record(0.2, "tcp", "retransmit", kind="rto")
        rec.record(0.3, "link", "loss", bytes=100)
        assert len(rec) == 3
        assert [ev.event for ev in rec.events(layer="link")] == ["tx", "loss"]
        only = rec.events(layer="tcp", event="retransmit")
        assert len(only) == 1 and only[0].fields["kind"] == "rto"

    def test_ring_eviction_keeps_tally(self):
        rec = FlightRecorder(capacity=4, enabled=True)
        for i in range(10):
            rec.record(float(i), "link", "tx", n=i)
        assert len(rec) == 4
        assert rec.recorded == 10
        assert rec.dropped == 6
        assert [ev.fields["n"] for ev in rec.events()] == [6, 7, 8, 9]
        assert rec.tally() == {"link.tx": 10}  # survives eviction

    def test_enable_disable_clear(self):
        rec = FlightRecorder(enabled=True)
        rec.record(0.0, "sim", "step")
        rec.disable()
        rec.record(1.0, "sim", "step")
        assert rec.recorded == 1
        rec.clear()
        assert len(rec) == 0 and rec.recorded == 0 and rec.tally() == {}

    def test_enable_resizes_capacity(self):
        rec = FlightRecorder(capacity=8)
        rec.enable(capacity=2)
        rec.record(0.0, "a", "x")
        rec.record(0.0, "a", "y")
        rec.record(0.0, "a", "z")
        assert rec.capacity == 2
        assert [ev.event for ev in rec.events()] == ["y", "z"]

    def test_recording_context_restores_state(self):
        rec = FlightRecorder()
        with rec.recording():
            assert rec.enabled
            rec.record(0.0, "a", "x")
        assert not rec.enabled
        assert len(rec) == 1  # events kept, recording just stopped

    def test_recording_context_restores_capacity(self):
        rec = FlightRecorder(capacity=8)
        with rec.recording(capacity=500):
            for i in range(20):
                rec.record(0.0, "a", "x", n=i)
            assert len(rec) == 20
        assert rec.capacity == 8 and not rec.enabled
        assert [ev.fields["n"] for ev in rec.events()] == list(range(12, 20))
        rec.enable()
        for i in range(20):
            rec.record(0.0, "a", "y")
        assert len(rec) == 8

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder().enable(capacity=-1)


class TestReport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("link.tx_packets").inc(5)
        reg.counter("link.tx_bytes").inc(5000)
        reg.counter("tcp.connects").inc(2)
        h = reg.histogram("tcp.rtt_s")
        for v in (0.01, 0.02, 0.03):
            h.observe(v)
        reg.histogram("proxy.request_s")  # empty, must serialize as nulls
        rec = FlightRecorder(enabled=True)
        rec.record(0.5, "hip", "bex_state", frm="I1-SENT", to="I2-SENT")
        return reg, rec

    def test_schema_and_layers(self):
        reg, rec = self._populated()
        payload = metrics_json(reg, rec, extra={"benchmark": "x"})
        assert payload["schema"] == SCHEMA_VERSION == "repro-metrics/2"
        assert "gauges" not in payload
        assert payload["layers"]["link"] == {"tx_packets": 5, "tx_bytes": 5000}
        assert payload["layers"]["tcp"] == {"connects": 2}
        assert payload["counters"]["link.tx_packets"] == 5
        assert payload["extra"] == {"benchmark": "x"}
        assert payload["flight_recorder"]["by_event"] == {"hip.bex_state": 1}
        assert payload["trace"] == [
            [0.5, "hip", "bex_state", {"frm": "I1-SENT", "to": "I2-SENT"}]
        ]

    def test_strict_json_no_nan(self):
        reg, rec = self._populated()
        text = json.dumps(metrics_json(reg, rec), allow_nan=False)
        parsed = json.loads(text)
        assert parsed["histograms"]["proxy.request_s"]["p50"] is None

    def test_write_json_report(self, tmp_path):
        reg, rec = self._populated()
        path = write_json_report(tmp_path / "run.metrics.json", reg, rec)
        parsed = json.loads(path.read_text())
        assert parsed["schema"] == SCHEMA_VERSION
        assert parsed["histograms"]["tcp.rtt_s"]["count"] == 3

    def test_render_report_text(self):
        reg, rec = self._populated()
        lines = render_report(reg, rec)
        text = "\n".join(lines)
        assert text.startswith("== metrics report ==")
        assert "tx_packets=5" in text
        assert "tcp.rtt_s: n=3" in text
        assert "hip.bex_state x1" in text
        assert "proxy.request_s" not in text  # empty histograms elided

    def test_defaults_to_global_singletons(self):
        import repro.net.link  # noqa: F401 — binds link.* counters

        # Smoke-check only: the globals accumulate across the test session.
        payload = metrics_json()
        assert payload["schema"] == SCHEMA_VERSION
        assert "link.tx_packets" in payload["counters"]


class TestGlobalSingletons:
    def test_instrumented_modules_share_the_registry(self):
        import repro.net.link as link_mod

        assert link_mod._TX_PACKETS is METRICS.counter("link.tx_packets")

    def test_global_recorder_disabled_by_default(self):
        assert RECORDER.enabled is False
