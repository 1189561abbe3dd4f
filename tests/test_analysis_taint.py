"""Secret-flow rule tests (SEC001/SEC002); SEC003/SEC004 fixtures, which
come out of the same sweep, live in ``test_analysis_dataflow.py``.

Each sink and declassifier in the taint model gets a seeded-broken fixture
(the rule must fire) and a clean twin (it must not).  The SEC001 positive
fixtures are the *actual* leak shapes the pass was built to catch —
including the VPN Finished leak it found in ``tls/vpn.py``.
"""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source

HIP_PATH = "src/repro/hip/daemon.py"
VPN_PATH = "src/repro/tls/vpn.py"


def findings(source: str, rule: str, path: str = HIP_PATH) -> list:
    return [
        f
        for f in analyze_source(textwrap.dedent(source), path, rules={rule})
        if not f.suppressed and f.rule == rule
    ]


# ------------------------------------------------------------------ SEC001 --


def test_sec001_secret_to_flight_recorder():
    src = """
        def f(assoc):
            RECORDER.record("hip.keymat", keymat=assoc.keymat)
    """
    [finding] = findings(src, "SEC001")
    assert "flight recorder" in finding.message


def test_sec001_secret_to_metrics_name():
    src = """
        def f(assoc):
            METRICS.counter("hip." + str(assoc.session_key))
    """
    [finding] = findings(src, "SEC001")
    assert "metrics name" in finding.message


def test_sec001_secret_to_packet_param():
    src = """
        def f(pkt, assoc):
            pkt.add(HMAC_PARAM, assoc.keymat)
    """
    [finding] = findings(src, "SEC001")
    assert "packet parameter" in finding.message


def test_sec001_secret_to_builder():
    src = """
        def f(identity):
            return build_host_id(identity.private_key, b"host")
    """
    [finding] = findings(src, "SEC001")
    assert "builder" in finding.message


def test_sec001_secret_to_control_channel():
    # The exact leak shape SEC001 caught in tls/vpn.py: truncated master
    # secret sent as the Finished verify-data.
    src = """
        def f(self, tunnel):
            self._send_control(tunnel, "finished", tunnel.master_secret[:12])
    """
    [finding] = findings(src, "SEC001", path=VPN_PATH)
    assert "control channel" in finding.message


def test_sec001_secret_in_exception_message():
    src = """
        def f(assoc):
            raise HipError(f"bad keymat {assoc.keymat!r}")
    """
    [finding] = findings(src, "SEC001")
    assert "exception" in finding.message


def test_sec001_tracks_dataflow_through_locals():
    src = """
        def f(self, dh, peer_pub, tunnel):
            secret = dh.shared_secret(peer_pub)
            material = secret[:16]
            self._send_control(tunnel, "key", material)
    """
    assert len(findings(src, "SEC001", path=VPN_PATH)) == 1


def test_sec001_loop_carried_taint():
    # Taint assigned late in the loop body must reach the sink at its top.
    src = """
        def f(self, tunnel, chunks):
            data = b""
            for chunk in chunks:
                self._send_control(tunnel, "x", data)
                data = hkdf_expand(chunk, b"l", 16)
    """
    assert len(findings(src, "SEC001", path=VPN_PATH)) == 1


def test_sec001_clean_finished_prf_and_ciphertext():
    # tls_prf with a "finished" label is MAC-class (wire-safe); .encrypt()
    # declassifies; hmac digests are designed to be sent.
    src = """
        def f(self, tunnel, peer, rng, pkt):
            verify = tls_prf(tunnel.master_secret, b"vpn finished", tunnel.client_random, 12)
            self._send_control(tunnel, "finished", verify)
            wrapped = peer.encrypt(tunnel.premaster, rng)
            self._send_control(tunnel, "key", wrapped)
            pkt.add(HMAC_PARAM, key.digest(b"data"))
    """
    assert findings(src, "SEC001", path=VPN_PATH) == []


def test_sec001_finished_label_resolves_through_ifexp_name():
    # The connection.py idiom: label picked by role, both candidates Finished.
    src = """
        def f(self, conn, client_first):
            my_label = b"client finished" if client_first else b"server finished"
            verify = tls_prf(conn.master_secret, my_label, conn.randoms, 12)
            self._send_message(conn, FINISHED, verify)
    """
    assert findings(src, "SEC001", path="src/repro/tls/connection.py") == []


def test_sec001_non_finished_prf_is_secret():
    src = """
        def f(self, tunnel):
            keys = tls_prf(tunnel.master_secret, b"key expansion", tunnel.randoms, 64)
            self._send_control(tunnel, "keys", keys)
    """
    assert len(findings(src, "SEC001", path=VPN_PATH)) == 1


def test_sec001_module_level_statements_are_swept():
    # Metrics registrations and the like run at import time, outside any
    # function; the sweep covers the module body too.
    src = """
        METRICS.counter("hip." + str(session_key))
    """
    [finding] = findings(src, "SEC001", path="src/repro/hip/x.py")
    assert "metrics name" in finding.message


def test_sec001_print_and_logging_are_sinks():
    # One sink table for all four rules: stdout and log calls count for a
    # local flow exactly as they do for one that crossed a call.
    src = """
        import logging

        def f(assoc):
            print("keymat", assoc.keymat)
            logging.debug("premaster %r", assoc.premaster)
    """
    messages = sorted(f.message for f in findings(src, "SEC001"))
    assert len(messages) == 2
    assert "a log call" in messages[0] and "standard output" in messages[1]


def test_sec001_suppressible_and_out_of_scope():
    src = """
        def f(self, tunnel):
            self._send_control(tunnel, "k", tunnel.keymat)  # repro: ignore[SEC001] -- test fixture
    """
    assert findings(src, "SEC001", path=VPN_PATH) == []
    leak = """
        def f(self, tunnel):
            self._send_control(tunnel, "k", tunnel.keymat)
    """
    # Same code outside hip/tls (or in tests) is out of the taint scope.
    assert findings(leak, "SEC001", path="src/repro/sim/engine.py") == []
    assert findings(leak, "SEC001", path="tests/test_tls_vpn_more.py") == []


# ------------------------------------------------------------------ SEC002 --


def test_sec002_mac_compared_with_eq():
    src = """
        def f(key, data, got):
            expect = key.digest(data)
            if expect != got:
                return False
    """
    [finding] = findings(src, "SEC002")
    assert "MAC-derived" in finding.message
    assert "ct_equal" in finding.message


def test_sec002_secret_compared_with_eq():
    src = """
        def f(assoc, got):
            return assoc.keymat == got
    """
    [finding] = findings(src, "SEC002")
    assert "secret" in finding.message


def test_sec002_hmac_digest_call_result():
    src = """
        def f(key, data, mac):
            if hmac_digest(key, data) == mac:
                return True
    """
    assert len(findings(src, "SEC002")) == 1


def test_sec002_mac_returned_through_program_helper():
    # One interpreter: the helper's summary says it returns a MAC, so the
    # caller's == is a timing oracle even though no producer is in sight.
    src = """
        def tag(key, data):
            return hmac_digest(key, data)

        def f(key, data, got):
            return tag(key, data) == got
    """
    [finding] = findings(src, "SEC002")
    assert "MAC-derived" in finding.message


def test_sec002_clean_shapes():
    src = """
        def f(assoc, got, n):
            if not ct_equal(assoc.keymat, got):
                return False
            if len(assoc.keymat) == n:
                return True
            return got == b"public"
    """
    assert findings(src, "SEC002") == []


def test_sec002_suppressible():
    src = """
        def f(assoc, got):
            return assoc.keymat == got  # repro: ignore[SEC002] -- test fixture
    """
    assert findings(src, "SEC002") == []


def test_sec_rules_clean_on_identity_and_ordering_compares():
    # `is None`, `<`, membership — none of these are byte-compares.
    src = """
        def f(assoc, seq):
            if assoc.keymat is None:
                return
            if seq < assoc.window:
                return
            if assoc.state in ("ESTABLISHED",):
                return
    """
    assert findings(src, "SEC002") == []
