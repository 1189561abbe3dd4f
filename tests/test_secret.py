"""Secrets by construction: the ``Secret`` contract, the reveal-only-in-crypto
rule, and a leak sweep over everywhere a key could surface.

Key material is a :class:`repro.crypto.secret.Secret` from the moment a key
source makes it.  These tests replace the old static secret-flow fixtures
with runtime ones: each implicit exit is refused, the only explicit exit
stays inside ``repro.crypto``, and a run of every handshake the stack has
leaves no live key in a trace, a metric, a repr or an error message.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys
import traceback

import pytest

import repro
from repro.crypto.secret import Secret
from repro.hip import packets as hp
from repro.hip.daemon import HipError
from repro.hip.esp import EspError
from repro.hip.identity import hit_from_public_key
from repro.metrics import RECORDER
from repro.metrics.report import metrics_json
from repro.net import link
from repro.net.icmp import IcmpStack, ping
from repro.net.packet import Packet, UDPHeader
from repro.sim import Simulator
from repro.tls.vpn import VpnError

from tests.conftest import build_hip_pair, build_vpn_pair, run_proc

SRC = pathlib.Path(repro.__file__).resolve().parent
KEY = Secret(bytes(range(48)))


# ---------------------------------------------------------------- the type --


@pytest.mark.parametrize(
    "op",
    [
        lambda s: s == Secret(bytes(range(48))),
        lambda s: s != b"x",
        lambda s: b"x" == s,
        hash,
        lambda s: {s: 1},
        pickle.dumps,
        copy.copy,
        copy.deepcopy,
        lambda s: s.__getstate__(),
        bytes,
        iter,
        list,
        lambda s: s[0],
        lambda s: 0 in s,
        lambda s: b"x" + s,
        lambda s: s + s,
    ],
    ids=[
        "eq", "ne", "reflected-eq", "hash", "dict-key", "pickle", "copy",
        "deepcopy", "getstate", "bytes", "iter", "list", "int-index",
        "contains", "bytes-plus-secret", "secret-plus-secret",
    ],
)
def test_every_implicit_exit_raises_type_error(op):
    with pytest.raises(TypeError):
        op(KEY)


def test_refusals_point_at_ct_equal():
    for op in (lambda: KEY == KEY, lambda: hash(KEY), lambda: bytes(KEY)):
        with pytest.raises(TypeError, match="ct_equal"):
            op()


def test_repr_str_and_format_redact():
    hexed = KEY.reveal().hex()
    for text in (repr(KEY), str(KEY), f"{KEY}", f"{KEY!r}", f"{KEY:x}", "%s" % (KEY,)):
        assert text == "Secret(<48 bytes>)" and hexed not in text


def test_slicing_and_concatenation_keep_the_type():
    head, tail = KEY[:16], KEY[16:]
    joined = KEY + b"\xff"
    assert (type(head), type(tail), type(joined)) == (Secret, Secret, Secret)
    assert (len(KEY), len(head), len(tail), len(joined)) == (48, 16, 32, 49)
    assert head.reveal() + tail.reveal() == KEY.reveal()
    assert joined.reveal() == KEY.reveal() + b"\xff"


def test_wraps_bytes_only():
    for value in (bytearray(16), "key", 7, KEY):
        with pytest.raises(TypeError):
            Secret(value)


def test_refusals_survive_python_dash_o():
    # The refusals are raises, not asserts: CI runs some suites under -O.
    code = (
        "from repro.crypto.secret import Secret\n"
        "s = Secret(b'k' * 16)\n"
        "for op in (lambda: s == s, lambda: hash(s), lambda: bytes(s), lambda: s[0]):\n"
        "    try:\n"
        "        op()\n"
        "    except TypeError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-O", "-c", code], env=env, check=True)


def test_reveal_is_read_only_inside_repro_crypto():
    """``.reveal()`` (and the slot behind it) is the one exit, and only the
    crypto primitives that consume keys take it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] == "crypto":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("reveal", "_b"):
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []


# ------------------------------------------------------------- leak checks --


def pieces(key: bytes) -> list[bytes]:
    """The aligned 8-byte pieces of a key: a partial leak contains one."""
    return [key[i : i + 8] for i in range(0, len(key) - 7, 8)]


def renderings(key) -> list[str]:
    """How a key, or any piece of one, would read in text."""
    if isinstance(key, int):
        return [str(key), f"{key:x}"]
    return [form for piece in pieces(key) for form in (piece.hex(), repr(piece)[2:-1])]


def assert_no_key_in(texts: list[str], keys) -> None:
    for key in keys:
        for form in renderings(key):
            leaks = [text for text in texts if form in text]
            assert not leaks, f"key material {form[:16]}... leaked into {leaks[0][:200]}"


def private_ints(identity) -> list[int]:
    pair = identity.rsa or identity.ecdsa
    names = ("d", "p", "q", "d_p", "d_q", "q_inv") if identity.rsa else ("private",)
    return [getattr(pair, name) for name in names]


def test_key_holders_do_not_print_their_keys(session_identities, vpn_keys):
    sim, a, b, da, db = build_hip_pair(Simulator(), session_identities)
    run_proc(sim, da.associate(db.hit))
    for daemon, peer in ((da, db), (db, da)):  # initiator, then responder
        assoc = daemon.assocs[peer.hit]
        dh = assoc.dh or daemon._responder_dh
        keys = [assoc.keymat.reveal(), dh.private, *private_ints(daemon.identity)]
        assert_no_key_in([repr(assoc)], keys)
    for identity in session_identities.values():
        assert_no_key_in([repr(identity)], private_ints(identity))

    sim, a, b, va, vb = build_vpn_pair(Simulator(), vpn_keys)
    tunnel = run_proc(sim, va.connect(vb.vpn_addr))
    assert_no_key_in([repr(tunnel)], [tunnel.master_secret.reveal()])


# ---------------------------------------------------------------- the sweep --


@pytest.fixture
def minted(monkeypatch) -> list[Secret]:
    """Every Secret constructed while the test runs, except ``secret + bytes``
    (its tail is public: the puzzle values behind the DH secret)."""
    made: list[Secret] = []
    init, add = Secret.__init__, Secret.__add__

    def recording_init(self, b):
        init(self, b)
        made.append(self)

    def unrecorded_add(self, other):
        joined = add(self, other)
        if made and made[-1] is joined:
            made.pop()
        return joined

    monkeypatch.setattr(Secret, "__init__", recording_init)
    monkeypatch.setattr(Secret, "__add__", unrecorded_add)
    return made


@pytest.fixture
def wire():
    """Every byte string that crossed a link (payloads and HIP raw packets)."""
    seen: list[bytes] = []

    def tap(packet) -> None:
        while packet is not None:
            seen.extend(v for v in packet.meta.values() if isinstance(v, bytes))
            payload = packet.payload
            if isinstance(payload, (bytes, bytearray)):
                seen.append(bytes(payload))
            packet = getattr(payload, "inner", payload)
            if not hasattr(packet, "meta"):
                packet = None

    link.WIRE_TAPS.append(tap)
    yield seen
    link.WIRE_TAPS.remove(tap)


def catch(sim, generator, error) -> list[Exception]:
    """Drive ``generator`` to the ``error`` it must raise; returns [error]."""
    caught: list[Exception] = []

    def flow():
        try:
            yield from generator
        except error as exc:
            caught.append(exc)

    run_proc(sim, flow())
    assert caught, f"expected {error.__name__}"
    return caught


def test_no_live_key_reaches_traces_metrics_reprs_errors_or_wire(
    minted, wire, session_identities, vpn_keys
):
    holders: list = []
    errors: list[Exception] = []
    ints: list[int] = []
    RECORDER.clear()
    with RECORDER.recording():
        # HIP: base exchange, ESP data both ways, CLOSE and a second base
        # exchange (fresh DH, KEYMAT and SAs), a failed association, then a
        # base exchange whose I2 HMAC is forged on the wire.
        sim, a, b, da, db = build_hip_pair(Simulator(), session_identities)
        run_proc(sim, da.associate(db.hit))
        IcmpStack(b)
        icmp_a = IcmpStack(a)
        run_proc(sim, ping(icmp_a, db.hit, count=2, timeout=5.0))
        first = da.assocs[db.hit]
        holders += [first, db.assocs[da.hit]]
        ints += [first.dh.private]
        da.close(db.hit)
        sim.run(until=sim.now + 1)
        run_proc(sim, da.associate(db.hit))
        run_proc(sim, ping(icmp_a, db.hit, count=2, timeout=5.0))
        ours, theirs = da.assocs[db.hit], db.assocs[da.hit]
        assert ours is not first and ours.is_established
        header, body = ours.sa_out.protect(
            Packet((UDPHeader(src_port=1, dst_port=2),), b"tamper me")
        )
        flipped = body._replace(ciphertext=bytes(len(body.ciphertext)))
        with pytest.raises(EspError) as esp_error:
            theirs.sa_in.verify(header, flipped)
        errors += [esp_error.value]
        errors += catch(sim, da.associate(hit_from_public_key(b"RSA:nobody")), HipError)
        holders += [da, db, ours, theirs, ours.sa_out, ours.sa_in, theirs.sa_out, theirs.sa_in]
        ints += [ours.dh.private, da._responder_dh.private, db._responder_dh.private]

        sim, a, b, da, db = build_hip_pair(Simulator(), session_identities)
        send = da._send_control

        def forge_i2_hmac(packet, locator):
            if packet.packet_type == hp.I2:
                packet.params = [
                    hp.Param(p.code, bytes(len(p.data))) if p.code == hp.HMAC_PARAM else p
                    for p in packet.params
                ]
            send(packet, locator)

        da._send_control = forge_i2_hmac
        errors += catch(sim, da.associate(db.hit), HipError)
        holders += [*da.assocs.values()]
        ints += [da.assocs[db.hit].dh.private]

        # VPN: a handshake, then one whose key message is corrupted on the way.
        sim, a, b, va, vb = build_vpn_pair(Simulator(), vpn_keys)
        run_proc(sim, va.connect(vb.vpn_addr))
        holders += [va, vb, *va.tunnels.values(), *vb.tunnels.values()]
        sim, a, b, va, vb = build_vpn_pair(Simulator(), vpn_keys)
        send_control = va._send_control

        def corrupt_key_message(tunnel, kind, body):
            if kind == "key":
                body = body[:-1] + bytes([body[-1] ^ 1])
            send_control(tunnel, kind, body)

        va._send_control = corrupt_key_message
        errors += catch(sim, va.connect(vb.vpn_addr), VpnError)
        holders += [*va.tunnels.values()]
    assert RECORDER.dropped == 0  # the ring held every event

    keys = {s.reveal() for s in minted if len(s) >= 8}
    assert len(keys) > 15  # DH secrets, KEYMATs, SA keys, VPN premasters and masters
    for identity in session_identities.values():
        ints += private_ints(identity)
    for pair in vpn_keys:
        ints += [pair.d, pair.p, pair.q, pair.d_p, pair.d_q, pair.q_inv]

    texts = [repr(ev) for ev in RECORDER.events()]
    texts.append(json.dumps(metrics_json(), default=repr))
    texts += [repr(holder) for holder in holders]
    texts += ["".join(traceback.format_exception(exc)) for exc in errors]
    RECORDER.clear()
    assert_no_key_in(texts, [*keys, *ints])
    # Nothing that crossed a link carries a key either (the co-tenant's view).
    for piece in (piece for key in keys for piece in pieces(key)):
        assert not any(piece in blob for blob in wire), f"{piece.hex()} on the wire"
