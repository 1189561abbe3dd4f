"""Multi-buffer CBC encryption: the lane kernel and the deferred sealer.

``AES._cbc_encrypt_lanes`` is pinned byte-for-byte to the schoolbook oracle;
``CbcSealer`` must hand out exactly what eager CBC-then-HMAC produces, however
and whenever its bodies are read; and an ESP transfer must come out the same
whether every body is read on the wire (k = 1) or batched.
"""

import hashlib
import pickle
import random

import pytest

from repro.crypto import modes
from repro.crypto.aes import AES
from repro.crypto.hmac_kdf import HmacKey
from repro.crypto.modes import CbcSealer, cbc_encrypt, pkcs7_pad
from repro.hip.esp import EspCiphertext, SecurityAssociation, canonical_packet_bytes
from repro.metrics import METRICS
from repro.net import link
from repro.net.addresses import ipv4, ipv6
from repro.net.packet import IPHeader, Packet, TCPHeader
from repro.net.tcp import TcpStack
from repro.sim import Simulator
from tests.conftest import build_hip_pair
from tests.oracles.crypto_reference import AesRef, cbc_encrypt_ref

TAG_LEN = 12
CRYPTO_COUNTERS = ("crypto.aes_blocks", "crypto.aes_bytes", "crypto.hmac_ops", "crypto.hmac_bytes")


def counters(prefix=("crypto.", "esp.")):
    return {c.name: c.value for c in METRICS.counters() if c.name.startswith(prefix)}


@pytest.fixture
def cipher_calls(monkeypatch):
    """Counts calls into the scalar chain and the lane kernel."""
    calls = {"scalar": 0, "lanes": []}
    scalar, lanes = AES.cbc_encrypt_blocks, AES._cbc_encrypt_lanes

    def count_scalar(self, iv, padded):
        calls["scalar"] += 1
        return scalar(self, iv, padded)

    def count_lanes(self, ivs, padded):
        calls["lanes"].append(len(padded))
        return lanes(self, ivs, padded)

    monkeypatch.setattr(AES, "cbc_encrypt_blocks", count_scalar)
    monkeypatch.setattr(AES, "_cbc_encrypt_lanes", count_lanes)
    return calls


def eager(key, mac_key, iv, plaintext, prefix):
    ciphertext = cbc_encrypt(AES(key), iv, plaintext)
    return ciphertext, HmacKey(mac_key, "sha1").digest(prefix + iv + ciphertext)[:TAG_LEN]


def make_sealer(key, mac_key):
    return CbcSealer(AES(key), HmacKey(mac_key, "sha1"), TAG_LEN)


class TestLaneKernel:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_random_lane_counts_match_the_oracle(self, key_len):
        rng = random.Random(key_len)
        key = rng.randbytes(key_len)
        aes, ref = AES(key), AesRef(key)
        for _ in range(4):
            k = rng.randint(1, 40)
            length = rng.randrange(0, 100)
            plains = [rng.randbytes(length) for _ in range(k)]
            ivs = [rng.randbytes(16) for _ in range(k)]
            out = aes._cbc_encrypt_lanes(ivs, [pkcs7_pad(p) for p in plains])
            assert out == [cbc_encrypt_ref(ref, iv, p) for iv, p in zip(ivs, plains)]

    def test_mss_packets_match_the_scalar_chain(self):
        rng = random.Random(6)
        aes = AES(rng.randbytes(16))
        padded = [pkcs7_pad(rng.randbytes(1400)) for _ in range(6)]
        ivs = [rng.randbytes(16) for _ in range(6)]
        assert aes._cbc_encrypt_lanes(ivs, padded) == [
            aes.cbc_encrypt_blocks(iv, p) for iv, p in zip(ivs, padded)
        ]


class TestSealer:
    KEY, MAC = bytes(range(16)), bytes(range(100, 120))

    def test_mixed_queue_read_in_random_order_gives_the_eager_bytes(self, cipher_calls):
        rng = random.Random(29)
        lengths = [1400] * 5 + [40] * 2 + [100] + [200] * modes._MULTI_MIN_LANES
        rng.shuffle(lengths)
        sealer = make_sealer(self.KEY, self.MAC)
        bodies = []
        for i, n in enumerate(lengths):
            iv, plain, prefix = rng.randbytes(16), rng.randbytes(n), i.to_bytes(8, "big")
            bodies.append((sealer.seal(iv, plain, prefix), eager(self.KEY, self.MAC, iv, plain, prefix)))
        rng.shuffle(bodies)
        eager_calls = cipher_calls["scalar"]
        for sealed, (ciphertext, tag) in bodies:
            assert (sealed.tag, sealed.ciphertext) == (tag, ciphertext)
        # The 1400 B and 200 B groups ran as lanes; the 40 B pair and the
        # lone 100 B body took the scalar chain.
        assert sorted(cipher_calls["lanes"]) == sorted([5, modes._MULTI_MIN_LANES])
        assert cipher_calls["scalar"] - eager_calls == 3

    def test_one_read_empties_the_queue(self, cipher_calls):
        sealer = make_sealer(self.KEY, self.MAC)
        sealed = [sealer.seal(bytes(16), bytes([i]) * 1400, b"") for i in range(4)]
        assert not cipher_calls["lanes"]
        sealed[2].ciphertext
        assert cipher_calls["lanes"] == [4] and not sealer._pending
        for body in sealed:
            body.tag, body.ciphertext
        assert cipher_calls["lanes"] == [4] and cipher_calls["scalar"] == 0

    def test_the_cap_flushes_the_queue(self, cipher_calls):
        sealer = make_sealer(self.KEY, self.MAC)
        for i in range(modes._SEAL_QUEUE_MAX - 1):
            sealer.seal(bytes(16), bytes(64), i.to_bytes(4, "big"))
        assert len(sealer._pending) == modes._SEAL_QUEUE_MAX - 1 and not cipher_calls["lanes"]
        sealer.seal(bytes(16), bytes(64), b"last")
        assert not sealer._pending
        assert cipher_calls["lanes"] == [modes._SEAL_QUEUE_MAX]

    def test_an_unread_body_does_no_cipher_work_but_is_booked(self, cipher_calls):
        iv, plain, prefix = bytes(range(16)), b"never read" * 100, b"\x00" * 8
        before = counters(("crypto.",))
        eager(self.KEY, self.MAC, iv, plain, prefix)
        eager_cost = {k: v - before.get(k, 0) for k, v in counters(("crypto.",)).items()}
        calls_after_eager = cipher_calls["scalar"]
        before = counters(("crypto.",))
        make_sealer(self.KEY, self.MAC).seal(iv, plain, prefix)
        sealed_cost = {k: v - before.get(k, 0) for k, v in counters(("crypto.",)).items()}
        assert cipher_calls["scalar"] == calls_after_eager and not cipher_calls["lanes"]
        for name in CRYPTO_COUNTERS:
            assert sealed_cost[name] == eager_cost[name] > 0, name


def esp_pair_bodies(observe):
    """(pending ESP body after ``observe``, eager body) for one protect()."""
    enc, auth = bytes(range(16)), bytes(range(20))
    sa = SecurityAssociation(0x77, enc, auth, ipv6("2001:10::a"), ipv6("2001:10::b"))
    inner = Packet(
        (IPHeader(ipv4("1.0.0.1"), ipv4("1.0.0.2"), "tcp"), TCPHeader(1, 2, seq=3, ack=4)),
        bytes(range(200)),
    )
    _, body = sa.protect(inner)
    observed = observe(body)  # first read: the body is still pending here
    iv = sa._iv_hmac.digest((0x77).to_bytes(4, "big") + (1).to_bytes(8, "big"))[:16]
    ciphertext, icv = eager(enc, auth, iv, canonical_packet_bytes(sa._plaintext_view(inner)),
                            (0x77).to_bytes(4, "big") + (1).to_bytes(4, "big"))
    reference = EspCiphertext(inner, body.wire_len, ciphertext, icv, iv)
    return observed, observe(reference)


@pytest.mark.parametrize("observe", [
    lambda body: body,  # compared with ==
    hash,
    repr,
    lambda body: pickle.dumps(body, pickle.HIGHEST_PROTOCOL),
    lambda body: pickle.loads(pickle.dumps(body)),
    lambda body: (body.icv, body.ciphertext),
], ids=["eq", "hash", "repr", "pickle-bytes", "pickle-roundtrip", "fields"])
def test_a_pending_esp_body_observes_as_the_eager_one(observe):
    observed, reference = esp_pair_bodies(observe)
    assert observed == reference


class TestEndToEnd:
    @staticmethod
    def transfer(session_identities, tap):
        """Two real-crypto daemons move 60 KB over TCP; returns what we compare."""
        METRICS.reset()
        sim = Simulator()
        sim, a, b, da, db = build_hip_pair(sim, session_identities)
        ta, tb = TcpStack(a), TcpStack(b)
        data = random.Random(60).randbytes(60_000)
        got = []

        def server():
            listener = tb.listen(8080)
            conn = yield listener.accept()
            got.append((yield from conn.recv_bytes(len(data))))

        def client():
            conn = yield sim.process(ta.open_connection(db.hit, 8080))
            conn.write(data)

        if tap is not None:
            link.WIRE_TAPS.append(tap)
        try:
            sim.process(server())
            sim.process(client())
            sim.run(until=60)
        finally:
            if tap is not None:
                link.WIRE_TAPS.remove(tap)
        assert got == [data]
        return hashlib.sha256(got[0]).hexdigest(), counters()

    def test_tapped_and_batched_runs_agree(self, session_identities, cipher_calls):
        def read_every_body(packet):
            payload = packet.payload
            if isinstance(payload, EspCiphertext) and payload.ciphertext is not None:
                assert len(payload.icv) == TAG_LEN

        tapped = self.transfer(session_identities, read_every_body)
        assert not cipher_calls["lanes"]  # every body was read alone, on the wire
        batched = self.transfer(session_identities, None)
        assert max(cipher_calls["lanes"]) >= 4  # bodies were ciphered together
        assert tapped == batched
        assert batched[1]["esp.packets_protected"] == batched[1]["esp.packets_verified"] > 40
