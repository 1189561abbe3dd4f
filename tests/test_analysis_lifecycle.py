"""Lifecycle leak-lint tests (LIF001-LIF003).

Seeded-broken fixtures (the rule must fire) with clean twins.  The LIF001
positive is the shape of the *actual* bug the pass caught in ``net/tcp.py``:
a delayed-ACK ``TimerHandle`` that teardown never cancelled.
"""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source

PRODUCT = "src/repro/fake/module.py"
TESTCODE = "tests/test_fake.py"


def findings(source: str, rule: str, path: str = PRODUCT) -> list:
    return [
        f
        for f in analyze_source(textwrap.dedent(source), path, rules={rule})
        if not f.suppressed and f.rule == rule
    ]


# ------------------------------------------------------------------ LIF001 --


def test_lif001_uncancelled_timer():
    # The net/tcp.py delayed-ACK bug: armed in the data path, forgotten
    # by teardown.
    src = """
        class Connection:
            def _arm_delack(self):
                self._delack = self.sim.call_later(0.04, self._delack_fired)

            def _teardown(self):
                self.state = "CLOSED"
    """
    [finding] = findings(src, "LIF001")
    assert "_delack" in finding.message
    assert "Connection" in finding.message


def test_lif001_call_at_counts_too():
    src = """
        class Beacon:
            def start(self):
                self._tick = self.sim.call_at(1.0, self._fire)
    """
    [finding] = findings(src, "LIF001")
    assert "_tick" in finding.message


def test_lif001_clean_cancelled_in_close():
    src = """
        class Connection:
            def _arm_delack(self):
                self._delack = self.sim.call_later(0.04, self._delack_fired)

            def close(self):
                self._delack.cancel()
    """
    assert not findings(src, "LIF001")


def test_lif001_clean_local_handle():
    # A handle never stored on self makes no lifetime promise the class
    # must revoke.
    src = """
        class Connection:
            def ping(self):
                handle = self.sim.call_later(0.1, self._pong)
                return handle
    """
    assert not findings(src, "LIF001")


def test_lif001_silent_in_tests():
    src = """
        class Harness:
            def start(self):
                self._t = self.sim.call_later(1.0, self._fire)
    """
    assert not findings(src, "LIF001", path=TESTCODE)


# ------------------------------------------------------------------ LIF002 --


def test_lif002_registry_without_release():
    src = """
        class Daemon:
            def __init__(self):
                self.associations = {}

            def register(self, hit, assoc):
                self.associations[hit] = assoc
    """
    [finding] = findings(src, "LIF002")
    assert "associations" in finding.message


def test_lif002_grower_method_without_release():
    src = """
        class Tracker:
            def __init__(self):
                self.events = []

            def record(self, event):
                self.events.append(event)
    """
    [finding] = findings(src, "LIF002")
    assert "events" in finding.message


def test_lif002_defaultdict_counts_as_born_empty():
    src = """
        import collections

        class Flows:
            def __init__(self):
                self.by_port = collections.defaultdict(list)

            def track(self, port, flow):
                self.by_port[port] = flow
    """
    assert findings(src, "LIF002")


def test_lif002_clean_with_pop_path():
    src = """
        class Daemon:
            def __init__(self):
                self.associations = {}

            def register(self, hit, assoc):
                self.associations[hit] = assoc

            def expire(self, hit):
                self.associations.pop(hit, None)
    """
    assert not findings(src, "LIF002")


def test_lif002_clean_with_del_path():
    src = """
        class Daemon:
            def __init__(self):
                self.associations = {}

            def register(self, hit, assoc):
                self.associations[hit] = assoc

            def expire(self, hit):
                del self.associations[hit]
    """
    assert not findings(src, "LIF002")


def test_lif002_clean_with_rebind_reset():
    src = """
        class Batch:
            def __init__(self):
                self.pending = []

            def add(self, item):
                self.pending.append(item)

            def flush(self):
                out, self.pending = self.pending, []
                return out
    """
    assert not findings(src, "LIF002")


def test_lif002_clean_nonempty_start():
    # Pre-populated tables are configuration, not an acquire path.
    src = """
        class Router:
            def __init__(self):
                self.routes = {"default": None}

            def learn(self, prefix, hop):
                self.routes[prefix] = hop
    """
    assert not findings(src, "LIF002")


# ------------------------------------------------------------------ LIF003 --


def test_lif003_tap_installed_without_removal():
    src = """
        def install(tap):
            WIRE_TAPS.append(tap)
    """
    [finding] = findings(src, "LIF003")
    assert "WIRE_TAPS" in finding.message


def test_lif003_fires_in_tests_too():
    # Tests are exactly where taps leak between cases.
    src = """
        def test_something(tap):
            WIRE_TAPS.append(tap)
            assert run() == 0
    """
    assert findings(src, "LIF003", path=TESTCODE)


def test_lif003_attribute_tap_list():
    src = """
        def install(link, tap):
            link.WIRE_TAPS.append(tap)
    """
    [finding] = findings(src, "LIF003")
    assert "WIRE_TAPS" in finding.message


def test_lif003_clean_try_finally_pairing():
    # The contextmanager idiom: append, yield, finally-remove — all one
    # function scope.
    src = """
        from contextlib import contextmanager

        @contextmanager
        def wire_sanitizer(tap):
            WIRE_TAPS.append(tap)
            try:
                yield tap
            finally:
                WIRE_TAPS.remove(tap)
    """
    assert not findings(src, "LIF003")


def test_lif003_nested_function_is_its_own_scope():
    # A removal inside a *nested* function does not pair with the outer
    # append: the outer scope still leaks if the inner never runs.
    src = """
        def install(tap):
            WIRE_TAPS.append(tap)

            def undo():
                WIRE_TAPS.remove(tap)
            return undo
    """
    assert findings(src, "LIF003")


def test_lif003_clean_non_tap_lists():
    src = """
        def collect(items, out):
            out.append(items)
    """
    assert not findings(src, "LIF003")
