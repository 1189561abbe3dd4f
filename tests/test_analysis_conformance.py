"""Conformance-rule tests (CONF001, CONF003) and the runtime edge check.

The legal-edge tables live beside the enums in ``hip/daemon.py`` and
``tls/vpn.py`` and ``_transition`` enforces them on every move, so the
static half is two syntactic rules — state is written only inside
``_transition`` (CONF001) and spelled only as an enum member (CONF003) —
proved here on seeded fixtures, plus one runtime case per machine showing
what an illegal move does.  That every table edge actually runs is
``tests/test_fsm_edges.py``.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_source
from repro.hip.daemon import HIP_TRANSITIONS, HipError, HipState
from repro.tls.vpn import TUNNEL_TRANSITIONS, TunnelState, VpnError
from tests.conftest import build_hip_pair, build_vpn_pair, run_proc, vpn_addr

HIP_PATH = "src/repro/hip/daemon.py"
VPN_PATH = "src/repro/tls/vpn.py"

# CONF003 reads the canonical members off the module's own StrEnum body.
ENUM = """
class HipState(StrEnum):
    UNASSOCIATED = "UNASSOCIATED"
    I1_SENT = "I1-SENT"
    ESTABLISHED = "ESTABLISHED"
    CLOSING = "CLOSING"
    CLOSED = "CLOSED"
"""


def findings(source: str, rule: str, path: str = HIP_PATH) -> list:
    source = ENUM + textwrap.dedent(source)
    return [
        f
        for f in analyze_source(source, path, rules={rule})
        if not f.suppressed and f.rule == rule
    ]


DIRECT_WRITE = """
    class D:
        def f(self, assoc):
            if assoc.state == HipState.CLOSED:
                assoc.state = HipState.ESTABLISHED
"""


# ------------------------------------------------------------------ CONF001 --


def test_conf001_fires_on_direct_state_assignment_outside_spec():
    [finding] = findings(DIRECT_WRITE, "CONF001")
    assert "outside _transition" in finding.message
    # Whatever is written and however: the edge check is bypassed all the same.
    src = """
        class D:
            def f(self, assoc, other):
                assoc.state = self.pick()
                assoc.state, other.state = other.state, assoc.state
                del other.state
    """
    assert len(findings(src, "CONF001")) == 4


def test_conf001_clean_on_spec_edges_and_suppressible():
    src = """
        class D:
            def _transition(self, assoc, state):
                if (assoc.state, state) not in HIP_TRANSITIONS:
                    raise HipError("illegal")
                assoc.state = state

            def drive(self, assoc):
                self._transition(assoc, HipState.I1_SENT)
                self._transition(assoc, HipState.ESTABLISHED)
                return assoc.state
    """
    assert findings(src, "CONF001") == []
    src = """
        class D:
            def f(self, assoc):
                assoc.state = HipState.CLOSED  # repro: ignore[CONF001] -- test fixture
    """
    assert findings(src, "CONF001") == []


def test_conf001_does_not_bind_outside_machine_modules():
    assert findings(DIRECT_WRITE, "CONF001", path="src/repro/sim/engine.py") == []


def test_spec_for_resolves_machine_modules():
    """Both rules bind at exactly the two modules that define a machine."""
    literal = """
        def f(tunnel):
            return tunnel.state == "NEW"
    """
    for path in (HIP_PATH, VPN_PATH):
        assert len(findings(DIRECT_WRITE, "CONF001", path=path)) == 1
        assert len(findings(literal, "CONF003", path=path)) == 1
    for path in ("src/repro/hip/esp.py", "tests/test_hip_bex.py"):
        assert findings(DIRECT_WRITE, "CONF001", path=path) == []
        assert findings(literal, "CONF003", path=path) == []


# ------------------------------------------------------------------ CONF003 --


def test_conf003_fires_on_literal_outside_canonical_set():
    src = """
        class D:
            def f(self, assoc):
                if assoc.state == "ESTABLISHD":
                    pass
    """
    [finding] = findings(src, "CONF003")
    assert "outside the canonical" in finding.message


def test_conf003_fires_on_bare_canonical_literal():
    src = """
        class D:
            def f(self, assoc):
                if assoc.state == "ESTABLISHED":
                    pass
                return assoc.state in ("I1-SENT", HipState.CLOSING)
    """
    first, second = findings(src, "CONF003")
    assert "HipState.ESTABLISHED" in first.message
    assert "HipState.I1_SENT" in second.message


def test_conf003_fires_on_literal_in_transition_and_unknown_member():
    src = """
        class Association:
            state: HipState = "UNASSOCIATED"

        class D:
            def f(self, assoc):
                self._transition(assoc, "CLOSING")
                return assoc.state != HipState.ESTABLISHD
    """
    messages = [f.message for f in findings(src, "CONF003")]
    assert len(messages) == 3
    assert any("'UNASSOCIATED'" in m for m in messages)
    assert any("'CLOSING'" in m for m in messages)
    assert any("HipState.ESTABLISHD is not a canonical member" in m for m in messages)


def test_conf003_fires_on_reversed_operand_literal():
    src = """
        class D:
            def f(self, assoc):
                if "CLOSING" == assoc.state:
                    pass
    """
    assert len(findings(src, "CONF003")) == 1


def test_conf003_clean_on_enum_members():
    src = """
        class Association:
            state: HipState = HipState.UNASSOCIATED

        class D:
            def f(self, assoc, kind):
                if assoc.state in (HipState.ESTABLISHED, HipState.CLOSING):
                    self._transition(assoc, HipState.CLOSED)
                return kind == "lsi" or HipState.__members__
    """
    assert findings(src, "CONF003") == []
    src = """
        class D:
            def f(self, assoc):
                return assoc.state == "CLOSED"  # repro: ignore[CONF003] -- test fixture
    """
    assert findings(src, "CONF003") == []


# ---------------------------------------------------------------- at runtime --


def test_spec_tables_match_live_enums():
    """The tables are written with the enum members themselves."""
    for table, enum in ((HIP_TRANSITIONS, HipState), (TUNNEL_TRANSITIONS, TunnelState)):
        assert all(isinstance(state, enum) for edge in table for state in edge)


def test_conf001_fires_on_transition_outside_spec(sim, session_identities):
    """What CONF001 used to argue statically, ``_transition`` now refuses at
    runtime: a move the table does not list raises the machine's domain
    error naming both states, and the state is left alone."""
    _, _, _, da, db = build_hip_pair(sim, session_identities)
    assoc = run_proc(sim, da.associate(db.hit))
    with pytest.raises(HipError, match="ESTABLISHED -> I1-SENT"):
        da._transition(assoc, HipState.I1_SENT)
    assert assoc.state == HipState.ESTABLISHED


def test_vpn_transition_outside_table_raises(sim, vpn_keys):
    _, _, _, va, _ = build_vpn_pair(sim, vpn_keys)
    tunnel = run_proc(sim, va.connect(vpn_addr(11)))
    with pytest.raises(VpnError, match="ESTABLISHED -> HELLO-SENT"):
        va._transition(tunnel, TunnelState.HELLO_SENT)
    assert tunnel.state == TunnelState.ESTABLISHED
