"""Congestion scenario matrix: seeded, deterministic, metrics-emitting."""

import json
import math
import pathlib

import pytest

from repro.scenarios.congestion import (
    jain_index,
    run_bufferbloat,
    run_fairness,
    run_loss_sweep,
    run_lossy_link,
    run_matrix,
)

pytestmark = pytest.mark.smoke


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_one_flow_hogs(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_degenerate_inputs(self):
        assert math.isnan(jain_index([]))
        assert math.isnan(jain_index([0.0, 0.0]))


class TestLossyLink:
    def test_loss_degrades_goodput_but_transfer_completes(self):
        clean = run_lossy_link(seed=7, loss_rate=0.0, transfer_bytes=300_000)
        lossy = run_lossy_link(seed=7, loss_rate=0.02, transfer_bytes=300_000)
        assert clean["goodput_mbps"] > lossy["goodput_mbps"]
        assert clean["segments_retransmitted"] == 0
        assert lossy["segments_retransmitted"] > 0
        assert lossy["packets_lost"] > 0

    def test_seeded_and_deterministic(self):
        one = run_lossy_link(seed=9, loss_rate=0.02, transfer_bytes=200_000)
        two = run_lossy_link(seed=9, loss_rate=0.02, transfer_bytes=200_000)
        assert one == two


class TestBufferbloat:
    def test_ecn_tames_rtt_inflation(self):
        result = run_bufferbloat(load_s=1.0, probe_count=5)
        # A deep drop-tail queue inflates RTT by an order of magnitude; the
        # same queue with RED-style ECN marking keeps it in single digits.
        assert result["inflation_fifo"] > 5.0
        assert result["inflation_ecn"] < result["inflation_fifo"] / 2
        assert result["ecn"]["ecn_reductions"] > 0
        assert result["fifo"]["ecn_reductions"] == 0


class TestFairness:
    def test_competing_flows_share_bottleneck(self):
        result = run_fairness(n_flows=3, duration=2.0, warmup=0.5)
        assert len(result["per_flow_mbps"]) == 3
        assert 0.0 < result["jain_index"] <= 1.0
        # NewReno flows over one FIFO bottleneck converge near-fair.
        assert result["jain_index"] > 0.8
        # The bottleneck is saturated (20 Mbit/s link, allow protocol overhead).
        assert result["aggregate_mbps"] > 0.7 * result["bandwidth_mbps"]


class TestLossSweep:
    def test_all_modes_complete_and_loss_hurts(self):
        result = run_loss_sweep(
            seed=5, loss_rates=(0.0, 0.03), transfer_bytes=200_000,
        )
        points = {(p["mode"], p["loss_rate"]): p["goodput_mbps"]
                  for p in result["points"]}
        assert len(points) == 6
        for mode in ("plain", "ssl", "hip"):
            assert points[(mode, 0.0)] > 0
            assert points[(mode, 0.03)] > 0
            assert points[(mode, 0.03)] < points[(mode, 0.0)]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown security mode"):
            run_loss_sweep(modes=("carrier-pigeon",), loss_rates=(0.0,))


GOLDEN = pathlib.Path(__file__).parent / "golden" / "congestion_smoke.json"


class TestMatrix:
    def test_smoke_matrix_writes_metrics_reports(self, tmp_path):
        """Each scenario's simulated results equal the recorded ones, value
        for value (CI's congestion-matrix job checks the same file)."""
        golden = json.loads(GOLDEN.read_text())
        summary = run_matrix(tmp_path, smoke=True, seed=golden["seed"])
        assert set(summary["scenarios"]) == set(golden["scenarios"]) == {
            "lossy_link", "bufferbloat", "fairness", "loss_sweep",
        }
        for name, result in summary["scenarios"].items():
            report_path = tmp_path / name / "metrics.json"
            assert report_path.is_file()
            payload = json.loads(report_path.read_text())
            assert payload["schema"] == "repro-metrics/2"
            assert payload["extra"] == result
            assert payload["extra"] == golden["scenarios"][name], name
