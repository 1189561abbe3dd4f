"""Interprocedural secret-flow tests (SEC003/SEC004).

SEC003/SEC004 fixtures are single modules in secret scope — the leak shapes
that cross a function boundary: secrets returned through helpers, sunk
inside callees, or parked in innocuously named attributes and read back
elsewhere.  The purely local shapes (SEC001/SEC002) come out of the same
sweep and live in ``test_analysis_taint.py``.
"""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source

HIP_PATH = "src/repro/hip/daemon.py"


def findings(source: str, rule: str, path: str = HIP_PATH) -> list:
    return [
        f
        for f in analyze_source(textwrap.dedent(source), path, rules={rule})
        if not f.suppressed and f.rule == rule
    ]


# ------------------------------------------------------------------ SEC003 --


def test_sec003_secret_returned_through_helper_then_recorded():
    src = """
        def derive(assoc):
            return hip_keymat(assoc, 32)

        def install(assoc):
            km = derive(assoc)
            RECORDER.record("hip.install", km=km)
    """
    [finding] = findings(src, "SEC003")
    assert "call boundary" in finding.message
    assert "flight recorder" in finding.message


def test_sec003_secret_passed_into_sinking_callee():
    src = """
        def debug_dump(value):
            RECORDER.record("dbg", v=value)

        def f(assoc):
            debug_dump(assoc.keymat)
    """
    assert findings(src, "SEC003")


def test_sec003_two_hop_return_chain():
    src = """
        def inner(assoc):
            return hkdf_expand(assoc.keymat, b"salt", 32)

        def outer(assoc):
            return inner(assoc)

        def f(assoc, pkt):
            pkt.add(HMAC_PARAM, outer(assoc))
    """
    [finding] = findings(src, "SEC003")
    assert "packet parameter" in finding.message


def test_sec003_negative_declassified_before_sink():
    src = """
        def derive(assoc):
            return hip_keymat(assoc, 32)

        def install(assoc):
            km = derive(assoc)
            RECORDER.record("hip.install", km_len=len(km))
    """
    assert not findings(src, "SEC003")


def test_sec003_negative_intra_leak_is_sec001_territory():
    """A direct one-function leak belongs to SEC001; SEC003 must stay
    quiet so each finding has exactly one rule."""
    src = """
        def f(assoc):
            RECORDER.record("hip.keymat", keymat=assoc.keymat)
    """
    assert not findings(src, "SEC003")
    assert findings(src, "SEC001")


def test_sec003_one_raise_is_one_finding():
    # The f-string, its FormattedValue and the attribute under it are three
    # tainted columns of one leak; like SEC001, only the outermost reports.
    src = """
        def derive(assoc):
            return hip_keymat(assoc, 32)

        def install(assoc):
            km = derive(assoc)
            raise HipError(f"bad keymat {km.hex!r}")
    """
    [finding] = findings(src, "SEC003")
    assert "exception message" in finding.message


def test_sec003_negative_secret_kept_internal():
    src = """
        def derive(assoc):
            return hip_keymat(assoc, 32)

        def install(assoc):
            assoc.session_key = derive(assoc)
    """
    assert not findings(src, "SEC003")


# ------------------------------------------------------------------ SEC004 --


def test_sec004_attribute_roundtrip_to_recorder():
    src = """
        class Daemon:
            def setup(self, assoc):
                self._stash = hip_keymat(assoc, 32)

            def report(self):
                RECORDER.record("hip.debug", stash=self._stash)
    """
    [finding] = findings(src, "SEC004")
    assert "_stash" in finding.message
    assert "flight recorder" in finding.message


def test_sec004_message_names_assignment_origin():
    src = """
        class Daemon:
            def setup(self, assoc):
                self._stash = hip_keymat(assoc, 32)

            def report(self):
                RECORDER.record("hip.debug", stash=self._stash)
    """
    [finding] = findings(src, "SEC004")
    assert "assigned key material at" in finding.message


def test_sec004_negative_attribute_never_sunk():
    src = """
        class Daemon:
            def setup(self, assoc):
                self._stash = hip_keymat(assoc, 32)

            def use(self, pkt):
                return esp_encrypt(self._stash, pkt)
    """
    assert not findings(src, "SEC004")


def test_sec004_negative_clean_attribute():
    src = """
        class Daemon:
            def setup(self, count):
                self._stash = count

            def report(self):
                RECORDER.record("hip.debug", stash=self._stash)
    """
    assert not findings(src, "SEC004")
