"""The local secret-flow shapes (the former SEC001 fixtures) replayed at
runtime, and the static SEC002 rule's fixtures.

Key material is a :class:`~repro.crypto.secret.Secret`, so each leak shape
the SEC001 taint rule used to look for — a key handed to the flight
recorder, a metric name, a packet parameter, a builder, the VPN control
channel, an exception message, stdout or a log — now meets a value that
prints redacted and refuses to become bytes.  Each test below replays one
such shape with a live key from a real handshake and checks the refusal.
SEC002 (a MAC compared with ``==``) is still a static rule and keeps its
positive, clean and suppressed fixtures here.  The interprocedural shapes
live in ``test_analysis_dataflow.py``; the type contract and the whole-stack
leak sweep in ``test_secret.py``.
"""

from __future__ import annotations

import logging
import random
import textwrap
import traceback

import pytest

from repro.analysis import analyze_source
from repro.crypto.dh import MODP_GROUPS, DHKeyPair
from repro.crypto.hmac_kdf import HmacKey, ct_equal, tls_prf, tls_verify_data
from repro.crypto.secret import Secret
from repro.hip import packets as hp
from repro.hip.daemon import HipError
from repro.metrics import RECORDER
from repro.metrics.registry import MetricsRegistry
from repro.sim import Simulator
from repro.tls.vpn import VpnError

from tests.conftest import build_hip_pair, build_vpn_pair, run_proc
from tests.test_secret import assert_no_key_in, catch, pieces, wire  # noqa: F401 — fixture

HIP_PATH = "src/repro/hip/daemon.py"


def findings(source: str, rule: str, path: str = HIP_PATH) -> list:
    return [
        f
        for f in analyze_source(textwrap.dedent(source), path, rules={rule})
        if not f.suppressed and f.rule == rule
    ]


@pytest.fixture(scope="module")
def assocs(session_identities):
    """Both ends of one established HIP association: (initiator, responder)."""
    sim, a, b, da, db = build_hip_pair(Simulator(), session_identities)
    run_proc(sim, da.associate(db.hit))
    return da.assocs[db.hit], db.assocs[da.hit]


# ------------------------------------------------------------------ SEC001 --


def test_sec001_secret_to_flight_recorder(assocs):
    ours, _ = assocs
    RECORDER.clear()
    with RECORDER.recording():
        RECORDER.record(0.0, "hip", "keymat", keymat=ours.keymat, assoc=ours)
    [event] = RECORDER.events("hip", "keymat")
    RECORDER.clear()
    assert f"Secret(<{len(ours.keymat)} bytes>)" in repr(event)
    assert_no_key_in([repr(event)], [ours.keymat.reveal(), ours.dh.private])


def test_sec001_secret_to_metrics_name(assocs):
    ours, _ = assocs
    with pytest.raises(TypeError):
        "hip." + ours.keymat
    name = MetricsRegistry().counter("hip." + str(ours.keymat)).name
    assert name == f"hip.Secret(<{len(ours.keymat)} bytes>)"


def test_sec001_secret_to_packet_param(assocs):
    ours, theirs = assocs
    pkt = hp.HipPacket(hp.UPDATE, theirs.peer_hit, ours.peer_hit)
    pkt.add(hp.HMAC_PARAM, ours.keymat)
    with pytest.raises(TypeError):
        pkt.serialize()
    with pytest.raises(TypeError):
        pkt.bytes_for_param(hp.HIP_SIGNATURE)


def test_sec001_secret_to_builder(assocs):
    ours, _ = assocs
    for build in (
        lambda key: hp.build_host_id(key, b"host"),
        lambda key: hp.build_dh(1, key),
        lambda key: hp.build_puzzle(1, 37, 0, key[:8]),
    ):
        with pytest.raises(TypeError):
            build(ours.keymat)


def test_sec001_secret_to_control_channel(vpn_keys, wire):
    # The leak shape the taint rule once caught in tls/vpn.py: the truncated
    # master secret sent as the Finished verify-data.  The slice is still a
    # Secret, so no key byte reaches the link and the client, which accepts
    # only bytes as a Finished body, never comes up.
    sim, a, b, va, vb = build_vpn_pair(Simulator(), vpn_keys)
    send_control = vb._send_control

    def leaky_send(tunnel, kind, body):
        if kind == "finished":
            body = tunnel.master_secret[:12]
        send_control(tunnel, kind, body)

    vb._send_control = leaky_send
    catch(sim, va.connect(vb.vpn_addr), VpnError)
    master = vb.tunnels[va.vpn_addr].master_secret.reveal()
    assert wire
    assert not any(piece in blob for blob in wire for piece in pieces(master))


def test_sec001_secret_in_exception_message(assocs):
    ours, _ = assocs
    with pytest.raises(HipError) as caught:
        raise HipError(f"bad keymat {ours.keymat!r} in {ours}")
    text = "".join(traceback.format_exception(caught.value))
    assert "Secret(<" in text
    assert_no_key_in([text], [ours.keymat.reveal(), ours.dh.private])


def test_sec001_tracks_dataflow_through_locals():
    group = MODP_GROUPS[1]
    ours = DHKeyPair.generate(group, random.Random(1))
    theirs = DHKeyPair.generate(group, random.Random(2))
    secret = ours.shared_secret(theirs.public)
    material = secret[:16]
    assert (type(secret), type(material)) == (Secret, Secret)
    with pytest.raises(TypeError):
        bytes(material)
    assert f"{material}" == "Secret(<16 bytes>)"


def test_sec001_clean_finished_prf_and_ciphertext(vpn_keys):
    # What a handshake does put on the wire is public bytes: the Finished
    # verify_data, the RSA-wrapped premaster and HMAC tags.
    master, premaster = Secret(bytes(range(48))), Secret(bytes(range(100, 148)))
    verify = tls_verify_data(master, b"vpn finished", bytes(32))
    wrapped = vpn_keys[1].public.encrypt(premaster, random.Random(3))
    tag = HmacKey(master).digest(b"data")
    assert (type(verify), type(wrapped), type(tag)) == (bytes, bytes, bytes)
    assert len(verify) == 12
    assert vpn_keys[1].decrypt(wrapped) == premaster.reveal()
    for key in (master, premaster):
        for piece in pieces(key.reveal()):
            assert not any(piece in blob for blob in (verify, wrapped, tag))


def test_sec001_non_finished_prf_is_secret():
    # No label makes a PRF output public: only tls_verify_data returns bytes.
    master, seed = Secret(bytes(range(48))), bytes(64)
    keys = tls_prf(master, b"key expansion", seed, 64)
    finished = tls_prf(master, b"client finished", seed, 12)
    assert (type(keys), type(finished)) == (Secret, Secret)
    verify = tls_verify_data(master, b"client finished", seed)
    assert type(verify) is bytes and verify == finished.reveal()


def test_sec001_print_and_logging_are_sinks(assocs, capsys, caplog):
    ours, _ = assocs
    with caplog.at_level(logging.DEBUG):
        print("keymat", ours.keymat, ours)
        logging.getLogger("repro.hip").debug("keymat %r of %s", ours.keymat, ours)
    out = capsys.readouterr().out
    assert "Secret(<" in out and "Secret(<" in caplog.text
    assert_no_key_in([out, caplog.text], [ours.keymat.reveal(), ours.dh.private])


# ------------------------------------------------------------------ SEC002 --


def test_sec002_mac_compared_with_eq():
    src = """
        def f(key, data, got):
            expect = key.digest(data)
            if expect != got:
                return False
    """
    [finding] = findings(src, "SEC002")
    assert "MAC compared" in finding.message
    assert "ct_equal" in finding.message


def test_sec002_secret_compared_with_eq(assocs):
    # A key operand needs no rule: ``==`` on a Secret raises.
    ours, theirs = assocs
    for compare in (lambda: ours.keymat == theirs.keymat, lambda: ours.keymat != b"guess"):
        with pytest.raises(TypeError, match="ct_equal"):
            compare()
    assert ct_equal(ours.keymat.reveal(), theirs.keymat.reveal())


def test_sec002_hmac_digest_call_result():
    src = """
        def f(key, data, mac):
            if hmac_digest(key, data) == mac:
                return True
    """
    assert len(findings(src, "SEC002")) == 1


def test_sec002_clean_shapes():
    src = """
        def f(assoc, key, data, got, n):
            if not ct_equal(key.digest(data), got):
                return False
            if len(assoc.keymat) == n:
                return True
            return got == b"public"
    """
    assert findings(src, "SEC002") == []


def test_sec002_suppressible():
    leak = """
        def f(key, data, got):
            return key.digest(data) == got
    """
    assert len(findings(leak, "SEC002")) == 1
    src = """
        def f(key, data, got):
            return key.digest(data) == got  # repro: ignore[SEC002] -- test fixture
    """
    assert findings(src, "SEC002") == []


def test_sec_rules_clean_on_identity_and_ordering_compares():
    # `is None`, `<`, membership — none of these are byte-compares.
    src = """
        def f(key, data, assoc, seq):
            mac = key.digest(data)
            if mac is None:
                return
            if seq < len(mac):
                return
            if mac in assoc.seen:
                return
    """
    assert findings(src, "SEC002") == []
