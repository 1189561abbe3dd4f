"""The traced pass: per-layer host time, taken from outside the program.

One repeat of a workload runs under ``cProfile``; every profiled code object
is mapped to a layer by its filename (``bench.layers``) and the profiler's
caller table is folded into

* per-layer **self time** (the inline time of the layer's own functions,
  plus the C and standard-library calls it made — those are *transparent*
  and charged to whichever layer called them), and
* per-(parent layer → layer) **boundary spans**: how many calls crossed
  from one layer into another and the host time spent below them.

``cProfile`` is context-insensitive: it knows a function's callers, not its
call chains.  Self time is exact.  A transparent function called from two
layers is split between them in proportion to the time it spent under each
caller, and a span's inclusive time counts mutual recursion between layers
(engine → tcp → engine) more than once — read it as "time below this edge",
not as a partition.  The profiler costs host time per Python call but none
inside C, which shifts shares towards call-heavy layers; ``trace.overhead_x``
says by how much the whole repeat was stretched.

Explicit **driver spans** (``Spans``) record the public calls the benchmark
itself makes — ``setup``, ``run``, ``close``, ``bex``/``data`` — with start,
end and parent, so the layer table can be read against the phase it came from.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from bench.layers import DRIVER, LAYERS, layer_of_file


@dataclass
class Spans:
    """Driver spans of one workload, kept in memory and written out at the end."""

    workload: str
    records: list[dict] = field(default_factory=list)
    repeat: int = 0
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.records), "name": name, "workload": self.workload,
            "repeat": self.repeat, "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    @staticmethod
    def seconds(record: dict) -> float:
        return record["end"] - record["start"]


@dataclass
class LayerProfile:
    """What one traced repeat says about each layer."""

    self_s: dict[str, float]
    calls_in: dict[str, int]
    #: (parent layer, layer) → {"count", "inclusive_s"}
    edges: dict[tuple[str, str], dict]
    driver_self_s: float  # the benchmark's own frames, excluded from shares

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        total = self.total_s
        return self.self_s[layer] / total if total > 0.0 else 0.0


def _layer_of_code(code) -> str | None:
    # Built-in functions are profiled under a string label, not a code object.
    return None if isinstance(code, str) else layer_of_file(code.co_filename)


def fold_profile(entries) -> LayerProfile:
    """Fold ``cProfile.Profile.getstats()`` entries into a LayerProfile."""
    layer_of = {id(e.code): _layer_of_code(e.code) for e in entries}
    # callee id -> [(caller id, inline seconds under that caller)]
    callers: dict[int, list[tuple[int, float]]] = {}
    for entry in entries:
        for sub in entry.calls or ():
            callers.setdefault(id(sub.code), []).append(
                (id(entry.code), sub.inlinetime)
            )

    memo: dict[int, dict[str, float]] = {}
    in_progress: set[int] = set()

    def owners(code_id: int) -> dict[str, float]:
        """Layer → weight (summing to 1) that a function's time is charged to."""
        layer = layer_of.get(code_id)
        if layer is not None:
            return {layer: 1.0}
        if code_id in memo:
            return memo[code_id]
        if code_id in in_progress:  # transparent recursion: no new information
            return {}
        in_progress.add(code_id)
        acc: dict[str, float] = {}
        for caller_id, inline_s in callers.get(code_id, ()):
            # Floor the weight so zero-time callers still own their calls.
            weight = max(inline_s, 1e-9)
            for owner, share in owners(caller_id).items():
                acc[owner] = acc.get(owner, 0.0) + weight * share
        in_progress.discard(code_id)
        total = sum(acc.values())
        out = {k: v / total for k, v in acc.items()} if total else {DRIVER: 1.0}
        memo[code_id] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS}
    self_s[DRIVER] = 0.0
    calls_in = {layer: 0.0 for layer in LAYERS}
    edges: dict[tuple[str, str], dict] = {}
    for entry in entries:
        mine = owners(id(entry.code))
        for owner, share in mine.items():
            self_s[owner] += entry.inlinetime * share
        for sub in entry.calls or ():
            callee = layer_of.get(id(sub.code))
            if callee is None or callee == DRIVER:
                continue
            for owner, share in mine.items():
                if owner == callee:
                    continue
                edge = edges.setdefault(
                    (owner, callee), {"count": 0.0, "inclusive_s": 0.0}
                )
                edge["count"] += sub.callcount * share
                edge["inclusive_s"] += sub.totaltime * share
                calls_in[callee] += sub.callcount * share
    driver_self = self_s.pop(DRIVER)
    for edge in edges.values():
        edge["count"] = round(edge["count"])
    return LayerProfile(
        self_s=self_s,
        calls_in={k: round(v) for k, v in calls_in.items()},
        edges=edges,
        driver_self_s=driver_self,
    )


def profiled(fn):
    """Run ``fn()`` under the profiler; returns (result, LayerProfile)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, fold_profile(profiler.getstats())
