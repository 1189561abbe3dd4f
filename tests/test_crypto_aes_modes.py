"""AES known-answer tests (FIPS-197) and mode properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES, INV_SBOX, SBOX
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from tests.oracles.crypto_reference import _gf_mul

FIPS_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestAesBlock:
    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))
        assert all(INV_SBOX[SBOX[x]] == x for x in range(256))

    def test_sbox_matches_its_definition(self):
        """Each entry is the FIPS-197 affine transform of the GF(2^8)
        inverse, the inverse found by exhaustive search with the oracle's
        multiplier (independent of the log tables that build ``SBOX``)."""

        def rotl8(b, n):
            return ((b << n) | (b >> (8 - n))) & 0xFF

        for x in range(256):
            inv = next((y for y in range(1, 256) if _gf_mul(x, y) == 1), 0)
            want = inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^ rotl8(inv, 4) ^ 0x63
            assert SBOX[x] == want, x
            assert INV_SBOX[want] == x
        assert SBOX[0x00] == 0x63 and SBOX[0x53] == 0xED  # FIPS-197 5.1.1

    def test_fips197_aes128(self):
        aes = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        ct = aes.encrypt_block(FIPS_PLAIN)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
        assert aes.decrypt_block(ct) == FIPS_PLAIN

    def test_fips197_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        aes = AES(key)
        ct = aes.encrypt_block(FIPS_PLAIN)
        assert ct.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"
        assert aes.decrypt_block(ct) == FIPS_PLAIN

    def test_fips197_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        aes = AES(key)
        ct = aes.encrypt_block(FIPS_PLAIN)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"
        assert aes.decrypt_block(ct) == FIPS_PLAIN

    def test_bad_key_sizes(self):
        for n in (0, 15, 17, 31, 33):
            with pytest.raises(ValueError):
                AES(bytes(n))

    def test_bad_block_sizes(self):
        aes = AES(bytes(16))
        with pytest.raises(ValueError):
            aes.encrypt_block(bytes(15))
        with pytest.raises(ValueError):
            aes.decrypt_block(bytes(17))

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=30)
    def test_roundtrip_random(self, key, block):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block


class TestPkcs7:
    @given(st.binary(max_size=100))
    def test_roundtrip(self, data):
        assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_always_pads(self):
        assert len(pkcs7_pad(bytes(16))) == 32

    def test_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(b"\x00" * 15 + b"\x03")
        with pytest.raises(ValueError):
            pkcs7_unpad(b"\x00" * 16)  # pad byte 0 invalid
        with pytest.raises(ValueError):
            pkcs7_unpad(b"")
        with pytest.raises(ValueError):
            pkcs7_unpad(b"\x01" * 15)  # not block aligned


class TestModes:
    @given(st.binary(max_size=200), st.binary(min_size=16, max_size=16))
    @settings(max_examples=30)
    def test_cbc_roundtrip(self, plaintext, iv):
        aes = AES(b"0123456789abcdef")
        assert cbc_decrypt(aes, iv, cbc_encrypt(aes, iv, plaintext)) == plaintext

    # NIST SP 800-38A F.2.1-F.2.6: four blocks, exactly the length at which
    # decryption switches to the block-parallel kernel.
    NIST_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    NIST_PLAIN = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710"
    )
    NIST_CBC = {
        "F.2.2 AES-128": (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "7649abac8119b246cee98e9b12e9197d" "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516" "3ff1caa1681fac09120eca307586e1a7",
        ),
        "F.2.4 AES-192": (
            "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
            "4f021db243bc633d7178183a9fa071e8" "b4d9ada9ad7dedf4e5e738763f69145a"
            "571b242012fb7ae07fa9baac3df102e0" "08b0e27988598881d920a9e64f5615cd",
        ),
        "F.2.6 AES-256": (
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6" "9cfc4e967edb808d679f777bc6702c7d"
            "39f23369a9d9bacfa530e26304231461" "b2eb05e2c39be9fcda6c19078c6a9d1b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(NIST_CBC))
    def test_cbc_nist_sp800_38a_vectors(self, name):
        key, ciphertext = (bytes.fromhex(h) for h in self.NIST_CBC[name])
        aes = AES(key)
        # The vectors are unpadded, so they go through the block cores.
        assert aes.cbc_encrypt_blocks(self.NIST_IV, self.NIST_PLAIN) == ciphertext
        assert aes.cbc_decrypt_blocks(self.NIST_IV, ciphertext) == self.NIST_PLAIN
        assert list(aes._plane_keys) == [4]  # took the block-parallel path

    def test_cbc_iv_sensitivity(self):
        aes = AES(bytes(16))
        c1 = cbc_encrypt(aes, bytes(16), b"message")
        c2 = cbc_encrypt(aes, b"\x01" + bytes(15), b"message")
        assert c1 != c2

    def test_cbc_tamper_breaks_padding_or_content(self):
        aes = AES(bytes(16))
        ct = bytearray(cbc_encrypt(aes, bytes(16), b"sixteen byte msg"))
        ct[-1] ^= 0xFF
        try:
            out = cbc_decrypt(aes, bytes(16), bytes(ct))
        except ValueError:
            return  # padding error: detected
        assert out != b"sixteen byte msg"

    def test_cbc_rejects_bad_iv(self):
        aes = AES(bytes(16))
        with pytest.raises(ValueError):
            cbc_encrypt(aes, bytes(8), b"x")
        with pytest.raises(ValueError):
            cbc_decrypt(aes, bytes(8), bytes(16))

    def test_cbc_rejects_unaligned_ciphertext(self):
        aes = AES(bytes(16))
        with pytest.raises(ValueError):
            cbc_decrypt(aes, bytes(16), bytes(17))
