"""Shard-isolation rule tests (ISO001-ISO004).

Each rule gets seeded-broken fixtures (the rule must fire) and clean twins
(it must not).  The ISO001 positives mirror the *actual* pre-existing bug
the pass was built to catch: ``repro.sim.shard`` incrementing
``repro.net.link``'s module counters, whose writes die with forked shard
workers.
"""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source

PRODUCT = "src/repro/fake/module.py"
SIM_PATH = "src/repro/sim/fake.py"
ANALYSIS_PATH = "src/repro/analysis/fake.py"
TESTCODE = "tests/test_fake.py"


def findings(source: str, rule: str, path: str = PRODUCT) -> list:
    return [
        f
        for f in analyze_source(textwrap.dedent(source), path, rules={rule})
        if not f.suppressed and f.rule == rule
    ]


# ------------------------------------------------------------------ ISO001 --


def test_iso001_mutator_on_module_list():
    src = """
        _POOL = []

        def release(entry):
            _POOL.append(entry)
    """
    [finding] = findings(src, "ISO001")
    assert "_POOL" in finding.message
    assert "forked" in finding.message


def test_iso001_next_on_module_counter():
    # A process-global id counter: the shape `Packet.packet_id` was fed by
    # until the field was deleted for exactly this finding.
    src = """
        import itertools

        _IDS = itertools.count()

        def fresh_id():
            return next(_IDS)
    """
    [finding] = findings(src, "ISO001")
    assert "_IDS" in finding.message


def test_iso001_global_rebinding():
    src = """
        _EPOCH = 0

        def bump():
            global _EPOCH
            _EPOCH += 1
    """
    assert findings(src, "ISO001")


def test_iso001_subscript_write_to_module_dict():
    src = """
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value
    """
    [finding] = findings(src, "ISO001")
    assert "_CACHE" in finding.message


def test_iso001_cross_module_attribute_write():
    # The actual shard.py bug: writing through a counter handle
    # from-imported out of repro.net.link.
    src = """
        from repro.net.link import _TX_PACKETS

        def account(n):
            _TX_PACKETS.value += n
    """
    [finding] = findings(src, "ISO001")
    assert "repro.net.link" in finding.message


def test_iso001_cross_module_mutator_call():
    src = """
        from repro.net.link import WIRE_TAPS

        def hook(tap):
            WIRE_TAPS.append(tap)
    """
    [finding] = findings(src, "ISO001")
    assert "WIRE_TAPS" in finding.message


def test_iso001_clean_local_mutation():
    src = """
        def collect(items):
            out = []
            for item in items:
                out.append(item)
            return out
    """
    assert not findings(src, "ISO001")


def test_iso001_clean_import_time_setup():
    # Mutating a module container *at import time* is setup, not runtime
    # sharing.
    src = """
        _TABLE = {}
        for _name in ("a", "b"):
            _TABLE[_name] = len(_name)

        def lookup(name):
            return _TABLE[name]
    """
    assert not findings(src, "ISO001")


def test_iso001_metric_handles_exempt():
    # METRICS get-or-create handles are the sanctioned process-global
    # observability channel.
    src = """
        from repro.metrics import METRICS

        _TX = METRICS.counter("link.tx_packets")

        def account(n):
            _TX.value += n
    """
    assert not findings(src, "ISO001")


def test_iso001_silent_in_analysis_layer():
    src = """
        _POOL = []

        def release(entry):
            _POOL.append(entry)
    """
    assert not findings(src, "ISO001", path=ANALYSIS_PATH)


def test_iso001_silent_in_tests():
    src = """
        _POOL = []

        def release(entry):
            _POOL.append(entry)
    """
    assert not findings(src, "ISO001", path=TESTCODE)


# ------------------------------------------------------------------ ISO002 --


def test_iso002_direct_private_write():
    src = """
        def fast_rearm(sim, when):
            sim._seq += 1
    """
    [finding] = findings(src, "ISO002")
    assert "_seq" in finding.message


def test_iso002_heappush_onto_private_heap():
    src = """
        import heapq

        def schedule(sim, entry):
            heapq.heappush(sim._heap, entry)
    """
    [finding] = findings(src, "ISO002")
    assert "_heap" in finding.message


def test_iso002_via_self_sim_attribute():
    src = """
        class Endpoint:
            def poke(self):
                self.sim._seq += 1
    """
    [finding] = findings(src, "ISO002")
    assert "_seq" in finding.message


def test_iso002_one_finding_per_function():
    src = """
        def fast(sim):
            sim._seq += 1
            sim._now = 0.0
    """
    [finding] = findings(src, "ISO002")
    assert "_now" in finding.message and "_seq" in finding.message


def test_iso002_clean_public_api():
    src = """
        def schedule(sim, delay, fn):
            return sim.call_later(delay, fn)
    """
    assert not findings(src, "ISO002")


def test_iso002_clean_own_private_state():
    src = """
        class Endpoint:
            def __init__(self):
                self._queue = []

            def push(self, item):
                self._queue.append(item)
    """
    assert not findings(src, "ISO002")


def test_iso002_silent_inside_repro_sim():
    # The engine owns the engine: repro/sim may touch its own privates.
    src = """
        def fast_rearm(sim, when):
            sim._seq += 1
    """
    assert not findings(src, "ISO002", path=SIM_PATH)


# ------------------------------------------------------------------ ISO003 --


def test_iso003_class_level_list():
    src = """
        class Router:
            routes = []
    """
    [finding] = findings(src, "ISO003")
    assert "Router.routes" in finding.message


def test_iso003_class_level_dict_constructor():
    src = """
        class Cache:
            entries = dict()
    """
    [finding] = findings(src, "ISO003")
    assert "Cache.entries" in finding.message


def test_iso003_annotated_class_mutable():
    src = """
        class Router:
            routes: list = []
    """
    assert findings(src, "ISO003")


def test_iso003_clean_slots_and_init():
    src = """
        class Router:
            __slots__ = ("routes",)

            def __init__(self):
                self.routes = []
    """
    assert not findings(src, "ISO003")


def test_iso003_clean_dataclass_default_factory():
    src = """
        from dataclasses import dataclass, field

        @dataclass
        class Router:
            routes: list = field(default_factory=list)
    """
    assert not findings(src, "ISO003")


def test_iso003_clean_immutable_class_attrs():
    src = """
        class Router:
            MAX_ROUTES = 64
            NAME = "router"
            KINDS = ("static", "learned")
    """
    assert not findings(src, "ISO003")


# ------------------------------------------------------------------ ISO004 --


def test_iso004_module_level_simulator():
    src = """
        from repro.sim.engine import Simulator

        SIM = Simulator()
    """
    [finding] = findings(src, "ISO004")
    assert "SIM" in finding.message


def test_iso004_simulator_default_argument():
    src = """
        from repro.sim.engine import Simulator

        def build(sim=Simulator()):
            return sim
    """
    [finding] = findings(src, "ISO004")
    assert "default" in finding.message


def test_iso004_function_capturing_global_simulator():
    src = """
        from repro.sim.engine import Simulator

        SIM = Simulator()

        def schedule(delay, fn):
            return SIM.call_later(delay, fn)
    """
    flagged = findings(src, "ISO004")
    # The module-level binding fires, and so does the capture.
    assert any("captures" in f.message for f in flagged)


def test_iso004_clean_per_call_construction():
    src = """
        from repro.sim.engine import Simulator

        def build():
            sim = Simulator()
            return sim
    """
    assert not findings(src, "ISO004")
