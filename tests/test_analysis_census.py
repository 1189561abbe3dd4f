"""The census sees what forked shard workers run, not only the coordinator."""

from __future__ import annotations

import runpy
import sys
import types

import pytest

from bench import run
from repro.analysis import census
from repro.analysis.census import Census
from repro.scenarios import congestion
from repro.scenarios.rubis_scale import ScaleParams, scale_builders
from repro.sim.shard import ShardedSimulation


def scale_census(parallel: bool) -> set[str]:
    params = ScaleParams(n_clients=1, n_filler_vms=0, hosts_per_rack=1)
    with Census() as census:
        sharded = ShardedSimulation(scale_builders(params), 5, parallel=parallel, adaptive=True)
        sharded.run(0.3)
    return census.names()


def test_forked_scale_sharded_run_reports_the_inline_worker_functions():
    inline, forked = scale_census(parallel=False), scale_census(parallel=True)
    # Zone building and the shard command loop run only inside a worker.
    worker_side = {name for name in inline
                   if name.startswith("scenarios/rubis_scale.py") or name.endswith(" _serve")}
    assert {"build_scale_zones", "_build_zone", "_serve"} <= {
        name.rsplit(" ", 1)[1] for name in worker_side
    }
    assert worker_side <= forked
    assert any(name.endswith(" _worker_main") for name in forked)
    assert not any(name.endswith(" _worker_main") for name in inline)


def test_a_failed_run_marks_the_census_incomplete(monkeypatch, capsys):
    monkeypatch.setattr(pytest, "main", lambda args: 1)  # a benchmark test failed
    monkeypatch.setattr(run, "end_to_end_pass",
                        lambda *args: types.SimpleNamespace(correct=True, failed=0))
    monkeypatch.setattr(runpy, "run_path", lambda *args, **kwargs: {})
    monkeypatch.setattr(congestion, "main", lambda argv: 0)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends the checkout
    assert census.main() == 1
    tail = capsys.readouterr().out.splitlines()[-2:]
    assert tail[0].endswith(" functions") and tail[1] == "# INCOMPLETE: benchmarks failed"
