"""Hot-path discipline tests (PERF001/PERF002).

The hot region is everything reachable from the fast-lane dispatch roots
(``Serializer.send``, ``TcpConnection._fluid_advance``, ...).  PERF001
flags per-event allocation (dict/closure/f-string/str.format) inside it;
PERF002 flags observability name-lookups (logging/print/METRICS) on the
same paths.  Cold regions — branches ending in ``raise``, ``.enabled``
gates, unreached methods, tooling modules — must stay silent.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_source

LINK_PATH = "src/repro/net/link.py"


def findings(source: str, rule: str, path: str = LINK_PATH) -> list:
    return [
        f
        for f in analyze_source(textwrap.dedent(source), path, rules={rule})
        if not f.suppressed and f.rule == rule
    ]


# ------------------------------------------------------------------ PERF001 --


def test_perf001_dict_literal_in_root():
    src = """
        class Serializer:
            def send(self, pkt):
                entry = {"pkt": pkt, "ts": 0}
                return entry
    """
    [finding] = findings(src, "PERF001")
    assert "Serializer.send" in finding.message


def test_perf001_fstring_in_root():
    src = """
        class Serializer:
            def send(self, pkt):
                key = f"link.{pkt.kind}"
                return key
    """
    assert findings(src, "PERF001")


def test_perf001_str_format_in_root():
    src = """
        class Serializer:
            def send(self, pkt):
                key = "link.{}".format(pkt.kind)
                return key
    """
    [finding] = findings(src, "PERF001")
    assert "str.format" in finding.message


def test_perf001_closure_in_root():
    src = """
        class Serializer:
            def send(self, pkt):
                cb = lambda: pkt
                return cb
    """
    assert findings(src, "PERF001")


def test_perf001_allocation_in_transitively_reached_helper():
    src = """
        class Serializer:
            def send(self, pkt):
                return self._emit(pkt)

            def _emit(self, pkt):
                entry = {"pkt": pkt}
                return entry
    """
    [finding] = findings(src, "PERF001")
    assert finding.line == 7


def test_perf001_negative_cold_raise_branch():
    """A branch that ends in ``raise`` is the error path, not the fast
    path — allocating the exception detail there is fine."""
    src = """
        class Serializer:
            def send(self, pkt):
                if pkt is None:
                    detail = {"reason": "no packet"}
                    raise ValueError(detail)
                return pkt
    """
    assert not findings(src, "PERF001")


def test_perf001_negative_enabled_gate():
    src = """
        class Serializer:
            def send(self, pkt):
                if TRACE.enabled:
                    entry = {"pkt": pkt}
                    TRACE.push(entry)
                return pkt
    """
    assert not findings(src, "PERF001")


def test_perf001_negative_method_not_reachable_from_roots():
    src = """
        class Reporter:
            def summarize(self):
                return {"a": 1}
    """
    assert not findings(src, "PERF001")


# ------------------------------------------------------------------ PERF002 --


def test_perf002_metrics_lookup_in_root():
    src = """
        class Serializer:
            def send(self, pkt):
                METRICS.counter("link.tx")
                return pkt
    """
    assert findings(src, "PERF002")


def test_perf002_print_in_root():
    src = """
        class Serializer:
            def send(self, pkt):
                print("tx", pkt)
                return pkt
    """
    assert findings(src, "PERF002")


def test_perf002_logging_in_transitively_reached_helper():
    src = """
        import logging

        class Serializer:
            def send(self, pkt):
                return self._emit(pkt)

            def _emit(self, pkt):
                logging.info("tx %s", pkt)
                return pkt
    """
    [finding] = findings(src, "PERF002")
    assert finding.line == 9


def test_perf002_negative_enabled_gate():
    src = """
        class Serializer:
            def send(self, pkt):
                if TRACE.enabled:
                    print("tx", pkt)
                return pkt
    """
    assert not findings(src, "PERF002")


def test_perf002_negative_unreached_method():
    src = """
        class Reporter:
            def summarize(self):
                print("summary")
    """
    assert not findings(src, "PERF002")


# ------------------------------------------------------------- stale roots --


@pytest.mark.parametrize(
    "path, source, root",
    [
        # A hot method renamed away: its class is still analysed.
        (LINK_PATH, "class Serializer:\n    def transmit(self, pkt):\n        return pkt\n",
         "Serializer.send"),
        # A hot module-level function deleted: its module is still analysed.
        ("src/repro/sim/shard.py", "def encode_frames(envelopes):\n    return b''\n",
         "shard._dumps"),
    ],
)
def test_root_matching_no_function_is_a_finding(path, source, root):
    """A root that names nothing would make the walk silently check less,
    so each PERF rule reports it where its owner lives."""
    for rule in ("PERF001", "PERF002"):
        messages = [f.message for f in findings(source, rule, path=path)]
        assert any(f"`{root}` matches no function" in m for m in messages), messages


# ------------------------------------------------------------------- scope --


def test_perf_rules_skip_tooling_modules():
    """The analysis package itself is offline tooling; opaque CHA edges
    into it must not drag it into the hot closure."""
    src = """
        class Serializer:
            def send(self, pkt):
                entry = {"pkt": pkt}
                METRICS.counter("x")
                return entry
    """
    for rule in ("PERF001", "PERF002"):
        assert not findings(src, rule, path="src/repro/analysis/fake.py")
