"""Tests for number theory, SHA, HMAC/KDF — with hypothesis cross-checks."""

import hashlib
import hmac as stdlib_hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac_kdf import (
    hip_keymat,
    hmac_digest,
    tls_prf,
    tls_verify_data,
)
from repro.crypto.numtheory import (
    bytes_to_int,
    crt_pair,
    egcd,
    int_to_bytes,
    is_probable_prime,
    modinv,
    random_prime,
)
from repro.crypto.sha import sha1, sha256


class TestNumTheory:
    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_egcd_invariant(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0

    @given(st.integers(2, 10**6))
    def test_modinv_roundtrip(self, m):
        a = 3
        while egcd(a % m, m)[0] != 1:
            a += 1
        inv = modinv(a, m)
        assert (a * inv) % m == 1

    def test_modinv_non_coprime_raises(self):
        with pytest.raises(ValueError):
            modinv(4, 8)

    def test_small_primes_recognized(self, rng):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 997, 7919}
        for p in primes:
            assert is_probable_prime(p, rng=rng), p
        for n in (0, 1, 4, 6, 9, 15, 998, 7917):
            assert not is_probable_prime(n, rng=rng), n

    def test_carmichael_numbers_rejected(self, rng):
        # Classic Fermat pseudoprimes that Miller-Rabin must catch.
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041):
            assert not is_probable_prime(n, rng=rng), n

    def test_random_prime_bit_length(self, rng):
        for bits in (16, 64, 256):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p, rng=rng)

    def test_random_prime_too_small(self, rng):
        with pytest.raises(ValueError):
            random_prime(4, rng)

    def test_crt_pair(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2 and x % 5 == 3

    @given(st.integers(0, 2**128 - 1))
    def test_int_bytes_roundtrip(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n

    def test_int_to_bytes_fixed_length(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"
        with pytest.raises(ValueError):
            int_to_bytes(-1)


class TestSha:
    def test_empty_vectors(self):
        assert sha1(b"").hex() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        assert (
            sha256(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc_vectors(self):
        assert sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"
        assert (
            sha256(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    @pytest.mark.parametrize("n", [0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 1000])
    def test_padding_boundaries_match_hashlib(self, n):
        msg = bytes(range(256)) * 4
        msg = msg[:n]
        assert sha1(msg) == hashlib.sha1(msg).digest()
        assert sha256(msg) == hashlib.sha256(msg).digest()

    @given(st.binary(max_size=500))
    @settings(max_examples=60)
    def test_matches_hashlib(self, data):
        assert sha1(data) == hashlib.sha1(data).digest()
        assert sha256(data) == hashlib.sha256(data).digest()


class TestHmacKdf:
    @given(st.binary(max_size=100), st.binary(max_size=300))
    @settings(max_examples=40)
    def test_hmac_matches_stdlib(self, key, msg):
        assert hmac_digest(key, msg, "sha256") == stdlib_hmac.new(
            key, msg, hashlib.sha256
        ).digest()
        assert hmac_digest(key, msg, "sha1") == stdlib_hmac.new(
            key, msg, hashlib.sha1
        ).digest()

    def test_hmac_long_key_hashed(self):
        key = b"k" * 200  # longer than the block size
        assert hmac_digest(key, b"m") == stdlib_hmac.new(
            key, b"m", hashlib.sha256
        ).digest()

    def test_hmac_unknown_hash(self):
        with pytest.raises(ValueError):
            hmac_digest(b"k", b"m", "md5")

    def test_hip_keymat_symmetric(self):
        """Initiator and responder derive identical KEYMAT."""
        secret, hit_a, hit_b = b"S" * 96, b"\x01" * 16, b"\x02" * 16
        assert hip_keymat(secret, hit_a, hit_b, 144).reveal() == hip_keymat(
            secret, hit_b, hit_a, 144
        ).reveal()

    def test_hip_keymat_secret_sensitivity(self):
        hit_a, hit_b = b"\x01" * 16, b"\x02" * 16
        k1 = hip_keymat(b"x" * 96, hit_a, hit_b, 64)
        k2 = hip_keymat(b"y" * 96, hit_a, hit_b, 64)
        assert k1.reveal() != k2.reveal()

    @given(st.integers(1, 300))
    @settings(max_examples=20)
    def test_hip_keymat_length_and_prefix(self, n):
        full = hip_keymat(b"s" * 32, b"\x01" * 16, b"\x02" * 16, 300)
        part = hip_keymat(b"s" * 32, b"\x01" * 16, b"\x02" * 16, n)
        assert len(part) == n
        assert full.reveal().startswith(part.reveal())

    def test_tls_prf_deterministic_and_expanding(self):
        a = tls_prf(b"secret", b"label", b"seed", 48).reveal()
        b = tls_prf(b"secret", b"label", b"seed", 48).reveal()
        c = tls_prf(b"secret", b"label", b"seeD", 48).reveal()
        assert a == b and a != c and len(a) == 48

    def test_tls_verify_data_is_the_public_prf_prefix(self):
        master = tls_prf(b"premaster", b"master secret", b"randoms", 48)
        verify = tls_verify_data(master, b"client finished", b"hash")
        assert type(verify) is bytes
        assert verify == tls_prf(master, b"client finished", b"hash", 12).reveal()
