"""Schema test for the benchmark (not collected by tier-1: testpaths = tests).

    python3 -m pytest bench/test_smoke.py -q

Runs the ``--smoke`` size, so it checks names, units and output checks —
never speed.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.layers import LAYERS, layer_of_file  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


def test_benchmark_json_matches_the_catalogue():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert len(PER_LAYER) <= 128
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))


def test_every_source_file_has_a_layer():
    unmapped = [
        str(path) for path in (ROOT / "src" / "repro").rglob("*.py")
        if "analysis" not in path.parts and path.parent.name != "repro"
        and layer_of_file(str(path)) not in LAYERS
    ]
    assert unmapped == []
    assert layer_of_file(str(ROOT / "bench" / "run.py")) == "driver"
    assert layer_of_file("/usr/lib/python3/heapq.py") is None


def test_driver_lines_carry_every_declared_metric():
    for workload in WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            done = _run("--smoke", "--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", str(trace))
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, done.stdout
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert {n: m["unit"] for n, m in result["metrics"].items()} == {
                m["name"]: m["unit"] for m in declared
            }
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())
            else:
                values = {n: m["value"] for n, m in result["metrics"].items()}
                shares = sum(values[f"{layer}.self_share"] for layer in LAYERS)
                assert abs(shares - 1.0) < 0.01
                if workload in ("iperf_plain", "rubis_basic"):
                    for layer in ("hip.daemon", "hip.esp", "crypto"):
                        assert values[f"{layer}.self_s"] == 0
                if workload != "scale_sharded":
                    assert values["sim.shard.self_s"] == 0
                assert values["trace.overhead_x"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "iperf_plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
