"""Differential tests pinning the optimized crypto fast path to the naive
oracle implementations in ``tests/oracles/crypto_reference.py`` (for the AES
block itself, ``AesRef``).

These complement the fixed known-answer vectors in
``test_crypto_primitives.py`` / ``test_crypto_aes_modes.py``: randomized
inputs catch the word-packing and padding edge cases a handful of published
vectors can miss.  Also asserts the new crypto-op METRICS counters, in
particular that ESP's virtual-payload fast path performs zero AES block
operations.
"""

import hashlib
import hmac as stdlib_hmac
import random
import struct

import pytest

from tests.oracles.crypto_reference import (
    AesRef,
    cbc_decrypt_ref,
    cbc_encrypt_ref,
    hmac_digest_ref,
    sha1_ref,
    sha256_ref,
)
from repro.crypto.aes import _PLANE_KEY_CACHE_MAX, _PLANE_MIN_BLOCKS, AES
from repro.crypto.hmac_kdf import HmacKey, hip_keymat, hmac_digest
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, pkcs7_pad
from repro.crypto.rsa import RsaKeyPair
from repro.crypto.sha import sha1, sha256
from repro.hip.identity import HostIdentity
from repro.metrics import METRICS

from tests.test_hip_esp import make_sa, sample_inner
from repro.net.packet import VirtualPayload

# Lengths that straddle every Merkle-Damgard padding boundary plus block
# alignment corners for the modes.
EDGE_LENS = [0, 1, 15, 16, 17, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129]


class TestAesBlockDifferential:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_encrypt_matches_reference(self, key_len):
        rng = random.Random(0xA15 + key_len)
        for _ in range(40):
            key = rng.randbytes(key_len)
            block = rng.randbytes(16)
            assert AES(key).encrypt_block(block) == AesRef(key).encrypt_block(block)

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_decrypt_matches_reference(self, key_len):
        rng = random.Random(0xDE5 + key_len)
        for _ in range(40):
            key = rng.randbytes(key_len)
            block = rng.randbytes(16)
            assert AES(key).decrypt_block(block) == AesRef(key).decrypt_block(block)

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for key_len in (16, 24, 32):
            aes = AES(rng.randbytes(key_len))
            for _ in range(20):
                block = rng.randbytes(16)
                assert aes.decrypt_block(aes.encrypt_block(block)) == block


class TestModesDifferential:
    def test_cbc_matches_reference(self):
        rng = random.Random(0xCBC)
        for trial in range(60):
            key = rng.randbytes(16)
            aes, ref = AES(key), AesRef(key)
            iv = rng.randbytes(16)
            n = EDGE_LENS[trial % len(EDGE_LENS)] if trial < 32 else rng.randrange(0, 400)
            pt = rng.randbytes(n)
            ct = cbc_encrypt(aes, iv, pt)
            assert ct == cbc_encrypt_ref(ref, iv, pt)
            assert cbc_decrypt(aes, iv, ct) == pt
            assert cbc_decrypt_ref(ref, iv, ct) == pt


def scalar_cbc_decrypt_blocks(aes: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """The per-block loop on a message of any length: CBC decryption of a
    chunk needs only the ciphertext block before it, so feed the loop
    below-threshold chunks."""
    chunk = (_PLANE_MIN_BLOCKS - 1) * 16
    out = bytearray()
    for i in range(0, len(ciphertext), chunk):
        out += aes.cbc_decrypt_blocks(iv, ciphertext[i : i + chunk])
        iv = ciphertext[i + chunk - 16 : i + chunk]
    assert not aes._plane_keys  # never reached the block-parallel kernel
    return bytes(out)


class TestCbcDecryptPlanes:
    """The block-parallel kernel against the scalar loop and the oracle."""

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_every_block_count_matches_scalar_and_oracle(self, key_len):
        rng = random.Random(0x91A2E + key_len)
        for nblocks in [*range(1, 97), 1024]:
            key, iv = rng.randbytes(key_len), rng.randbytes(16)
            plain = rng.randbytes(16 * nblocks - rng.randrange(1, 17))
            aes = AES(key)
            ciphertext = cbc_encrypt(aes, iv, plain)
            assert len(ciphertext) == 16 * nblocks
            raw = aes.cbc_decrypt_blocks(iv, ciphertext)
            assert raw == pkcs7_pad(plain)
            assert raw == scalar_cbc_decrypt_blocks(AES(key), iv, ciphertext)
            assert cbc_decrypt_ref(AesRef(key), iv, ciphertext) == plain
            assert cbc_decrypt(aes, iv, ciphertext) == plain

    def test_threshold_boundary_takes_different_paths_and_agrees(self):
        rng = random.Random(0xB0DE)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        aes, ref = AES(key), AesRef(key)
        below = rng.randbytes(16 * (_PLANE_MIN_BLOCKS - 1) - 1)
        at = rng.randbytes(16 * _PLANE_MIN_BLOCKS - 1)
        ct_below, ct_at = cbc_encrypt(aes, iv, below), cbc_encrypt(aes, iv, at)
        assert cbc_decrypt(aes, iv, ct_below) == cbc_decrypt_ref(ref, iv, ct_below) == below
        assert not aes._plane_keys  # scalar loop: no plane keys were built
        assert cbc_decrypt(aes, iv, ct_at) == cbc_decrypt_ref(ref, iv, ct_at) == at
        assert list(aes._plane_keys) == [_PLANE_MIN_BLOCKS]

    def test_counters_do_not_depend_on_the_path(self):
        aes_blocks = METRICS.counter("crypto.aes_blocks")
        aes_bytes = METRICS.counter("crypto.aes_bytes")
        aes = AES(bytes(16))
        for nblocks in (_PLANE_MIN_BLOCKS - 1, _PLANE_MIN_BLOCKS, 88):
            ciphertext = cbc_encrypt(aes, bytes(16), bytes(16 * nblocks - 1))
            b0, y0 = aes_blocks.value, aes_bytes.value
            cbc_decrypt(aes, bytes(16), ciphertext)
            assert aes_blocks.value - b0 == nblocks
            assert aes_bytes.value - y0 == 16 * nblocks

    def test_plane_key_cache_is_bounded(self):
        rng = random.Random(0xCAC4E)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        aes = AES(key)
        lengths = range(_PLANE_MIN_BLOCKS, _PLANE_MIN_BLOCKS + 200)
        for nblocks in lengths:
            aes.cbc_decrypt_blocks(iv, bytes(16 * nblocks))
            assert len(aes._plane_keys) <= _PLANE_KEY_CACHE_MAX
        assert list(aes._plane_keys) == list(lengths)[-_PLANE_KEY_CACHE_MAX:]
        # An evicted length is rebuilt, not mis-served from a neighbour's keys.
        ciphertext = rng.randbytes(16 * lengths[0])
        assert aes.cbc_decrypt_blocks(iv, ciphertext) == scalar_cbc_decrypt_blocks(
            AES(key), iv, ciphertext
        )

    @pytest.mark.parametrize("lanes_first", [True, False])
    def test_fresh_key_serves_lanes_and_planes_from_one_lazy_schedule(self, lanes_first):
        # The plane-order rows are built on first use by whichever kernel
        # runs first; the other direction must read the same schedule.
        rng = random.Random(0x1A2F + lanes_first)
        key = rng.randbytes(16)
        aes, ref = AES(key), AesRef(key)
        assert aes._rk_rows is None
        plains = [rng.randbytes(100) for _ in range(5)]
        ivs = [rng.randbytes(16) for _ in range(5)]
        long_plain, long_iv = rng.randbytes(16 * _PLANE_MIN_BLOCKS + 9), rng.randbytes(16)
        long_ct = cbc_encrypt_ref(ref, long_iv, long_plain)

        def lanes():
            out = aes._cbc_encrypt_lanes(ivs, [pkcs7_pad(p) for p in plains])
            assert out == [cbc_encrypt_ref(ref, iv, p) for iv, p in zip(ivs, plains)]

        def planes():
            assert aes.cbc_decrypt_blocks(long_iv, long_ct) == pkcs7_pad(long_plain)

        for kernel in (lanes, planes) if lanes_first else (planes, lanes):
            kernel()
        assert aes._rk_rows is not None and aes._plane_keys and aes._lane_keys


class TestShaDifferential:
    """``repro.crypto.sha`` is ``hashlib``; the FIPS-180 oracle pins it.

    Every length from 0 to 130 bytes covers each Merkle-Damgard padding
    case: a tail that pads within its block (0-55), one that spills into a
    second padding block (56-63), and both again after one or two full
    blocks.
    """

    @staticmethod
    def padding_cases(seed: int) -> list[bytes]:
        rng = random.Random(seed)
        return [rng.randbytes(n) for n in range(131)] + [
            rng.randbytes(rng.randrange(131, 500)) for _ in range(20)
        ]

    def test_sha1_matches_reference_and_hashlib(self):
        for msg in self.padding_cases(1):
            d = sha1(msg)
            assert d == sha1_ref(msg)
            assert d == hashlib.sha1(msg).digest()

    def test_sha256_matches_reference_and_hashlib(self):
        for msg in self.padding_cases(2):
            d = sha256(msg)
            assert d == sha256_ref(msg)
            assert d == hashlib.sha256(msg).digest()


class TestGoldens:
    """Values recorded with the FIPS-180 engine that ``sha.py`` replaced:
    identities and keys derived through ``hashlib`` must not move."""

    def test_fixed_rsa_key_gives_a_fixed_hit_and_signature(self):
        key = RsaKeyPair.generate(512, random.Random(0x417))
        ident = HostIdentity(algorithm="rsa", rsa=key)
        assert str(ident.hit) == "2001:12:81a3:8f6c:e7ad:cb64:59d7:f3d9"
        assert key.sign(b"HIT golden").hex() == (
            "59935cdd562ce8f8bc8ad28852be08c6ee54d5abfbf19d4d744a9632b7bc897b"
            "1d52899e85f839244cabeeed861d6362103ca28c9756b708d2e7b5ccb636a70c"
        )

    def test_fixed_dh_secret_gives_a_fixed_keymat(self):
        keymat = hip_keymat(bytes(range(48)), bytes(16), bytes(range(16)), 72)
        assert keymat.reveal().hex() == (
            "d8ae79c31afe0fdaf8febc5d66b4d18a07c53d0d679786a55721d066015ff485"
            "4a17132b6b5f4b60829095d02ec705b5b9c2686c822226d25ff1dc355776fa84"
            "b25dd264f3adc0cf"
        )


class TestHmacDifferential:
    @pytest.mark.parametrize("hash_name", ["sha1", "sha256"])
    def test_backends_agree_with_stdlib_and_reference(self, hash_name):
        rng = random.Random(3)
        # Short, block-sized and over-long keys (a key longer than the 64-byte
        # block, from 65 bytes up, is hashed down first: a separate code
        # path in RFC 2104).
        keys = [b"", b"k", rng.randbytes(20), rng.randbytes(64), rng.randbytes(65),
                rng.randbytes(100)]
        msgs = [bytes(n) for n in EDGE_LENS] + [rng.randbytes(200)]
        for key in keys:
            hk = HmacKey(key, hash_name)
            for msg in msgs:
                expect = stdlib_hmac.new(key, msg, hash_name).digest()
                assert hk.digest(msg) == expect
                assert hmac_digest_ref(key, msg, hash_name) == expect

    def test_one_shot_wrapper(self):
        assert hmac_digest(b"key", b"msg", "sha1") == stdlib_hmac.new(b"key", b"msg", "sha1").digest()


class TestCryptoCounters:
    def test_cbc_counts_blocks_and_bytes(self):
        aes_blocks = METRICS.counter("crypto.aes_blocks")
        aes_bytes = METRICS.counter("crypto.aes_bytes")
        aes = AES(bytes(16))
        b0, y0 = aes_blocks.value, aes_bytes.value
        cbc_encrypt(aes, bytes(16), bytes(100))  # pads to 112 bytes = 7 blocks
        assert aes_blocks.value - b0 == 7
        assert aes_bytes.value - y0 == 112

    def test_hmac_counts_ops_and_bytes(self):
        hmac_ops = METRICS.counter("crypto.hmac_ops")
        hmac_bytes = METRICS.counter("crypto.hmac_bytes")
        hk = HmacKey(b"key", "sha1")
        o0, y0 = hmac_ops.value, hmac_bytes.value
        hk.digest(bytes(10))
        hk.digest(bytes(300))
        assert hmac_ops.value - o0 == 2
        assert hmac_bytes.value - y0 == 310

    def test_esp_virtual_payload_does_zero_aes_blocks(self):
        # The cost-model fast path for virtual payloads must never touch the
        # real cipher — this is what keeps large simulated transfers cheap.
        aes_blocks = METRICS.counter("crypto.aes_blocks")
        out_sa, in_sa = make_sa(), make_sa()
        inner = sample_inner(VirtualPayload(1400))
        before = aes_blocks.value
        header, ct = out_sa.protect(inner)
        assert ct.ciphertext is None
        in_sa.verify(header, ct)
        assert aes_blocks.value == before

    def test_esp_real_payload_does_aes_blocks(self):
        aes_blocks = METRICS.counter("crypto.aes_blocks")
        out_sa, in_sa = make_sa(), make_sa()
        inner = sample_inner(b"x" * 100)
        before = aes_blocks.value
        header, ct = out_sa.protect(inner)
        in_sa.verify(header, ct)
        assert aes_blocks.value > before
