"""The interprocedural secret-flow shapes (the former SEC003/SEC004
fixtures) replayed at runtime.

The static rules chased keys across call boundaries and through attributes
to a sink.  A :class:`~repro.crypto.secret.Secret` needs no chase: it is the
same value after any number of returns, calls and attribute round trips, so
the sink meets a redacted, unserializable key wherever the path went.  The
purely local shapes live in ``test_analysis_taint.py``.
"""

from __future__ import annotations

import pytest

from repro.crypto.hmac_kdf import hip_keymat, hkdf_expand
from repro.crypto.secret import Secret
from repro.hip import packets as hp
from repro.metrics import RECORDER
from repro.net.addresses import IPAddress

from tests.test_secret import assert_no_key_in

HIT_I, HIT_R = IPAddress(6, 1), IPAddress(6, 2)
DH_SECRET = Secret(bytes(range(64, 160)))


def derive() -> Secret:
    return hip_keymat(DH_SECRET, HIT_I.packed(), HIT_R.packed(), 32)


def recorded(**fields) -> str:
    """The repr of the one trace event recorded with ``fields``."""
    RECORDER.clear()
    with RECORDER.recording():
        RECORDER.record(0.0, "hip", "install", **fields)
    [event] = RECORDER.events("hip", "install")
    RECORDER.clear()
    return repr(event)


# ------------------------------------------------------------------ SEC003 --


def test_sec003_secret_returned_through_helper_then_recorded():
    km = derive()
    text = recorded(km=km)
    assert "Secret(<32 bytes>)" in text
    assert_no_key_in([text], [km.reveal(), DH_SECRET.reveal()])


def test_sec003_secret_passed_into_sinking_callee():
    def debug_dump(value) -> str:
        return recorded(v=value)

    km = derive()
    assert_no_key_in([debug_dump(km)], [km.reveal()])


def test_sec003_two_hop_return_chain():
    def inner() -> Secret:
        return hkdf_expand(derive(), b"salt", 32)

    def outer() -> Secret:
        return inner()

    pkt = hp.HipPacket(hp.UPDATE, HIT_I, HIT_R)
    pkt.add(hp.HMAC_PARAM, outer())
    with pytest.raises(TypeError):
        pkt.serialize()


def test_sec003_negative_declassified_before_sink():
    # len() is public: it is what a sized field or a trace may carry.
    km = derive()
    assert recorded(km_len=len(km)).endswith("fields={'km_len': 32})")


# ------------------------------------------------------------------ SEC004 --


def test_sec004_attribute_roundtrip_to_recorder():
    class Daemon:
        def setup(self) -> None:
            self._stash = derive()

        def report(self) -> str:
            return recorded(stash=self._stash)

    daemon = Daemon()
    daemon.setup()
    text = daemon.report()
    assert "Secret(<32 bytes>)" in text
    assert_no_key_in([text, repr(vars(daemon))], [daemon._stash.reveal()])
