"""RSA, DH, ECDSA and puzzle tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.dh import DHKeyPair, MODP_GROUPS
from repro.crypto.ecc import (
    EcdsaKeyPair,
    P256,
    ecdsa_verify,
    is_on_curve,
    point_add,
    scalar_mult,
)
from repro.crypto.puzzle import (
    Puzzle,
    expected_attempts,
    solve_puzzle,
    verify_solution,
)
from repro.crypto.rsa import RsaError, RsaKeyPair, RsaPublicKey


@pytest.fixture(scope="module")
def rsa512():
    return RsaKeyPair.generate(512, random.Random(99))


class TestRsa:
    def test_keygen_modulus_size(self, rsa512):
        assert rsa512.public.bits == 512
        assert rsa512.p != rsa512.q

    def test_sign_verify(self, rsa512):
        sig = rsa512.sign(b"the message")
        assert rsa512.public.verify(b"the message", sig)

    def test_verify_rejects_wrong_message(self, rsa512):
        sig = rsa512.sign(b"the message")
        assert not rsa512.public.verify(b"the messagE", sig)

    def test_verify_rejects_tampered_signature(self, rsa512):
        sig = bytearray(rsa512.sign(b"m"))
        sig[0] ^= 1
        assert not rsa512.public.verify(b"m", bytes(sig))

    def test_verify_rejects_wrong_length(self, rsa512):
        assert not rsa512.public.verify(b"m", b"short")

    def test_sign_sha1_digestinfo(self, rsa512):
        sig = rsa512.sign(b"m", hash_name="sha1")
        assert rsa512.public.verify(b"m", sig, hash_name="sha1")
        assert not rsa512.public.verify(b"m", sig, hash_name="sha256")

    def test_encrypt_decrypt(self, rsa512, rng):
        ct = rsa512.public.encrypt(b"premaster secret", rng)
        assert rsa512.decrypt(ct) == b"premaster secret"

    def test_encrypt_randomized(self, rsa512, rng):
        a = rsa512.public.encrypt(b"x", rng)
        b = rsa512.public.encrypt(b"x", rng)
        assert a != b

    def test_decrypt_rejects_garbage(self, rsa512):
        with pytest.raises(RsaError):
            rsa512.decrypt(bytes(rsa512.public.byte_length))

    def test_decrypt_rejects_wrong_length(self, rsa512):
        with pytest.raises(RsaError):
            rsa512.decrypt(b"abc")

    def test_message_too_long(self, rsa512, rng):
        with pytest.raises(ValueError):
            rsa512.public.encrypt(bytes(rsa512.public.byte_length - 10), rng)

    def test_public_key_wire_roundtrip(self, rsa512):
        encoded = rsa512.public.to_bytes()
        decoded = RsaPublicKey.from_bytes(encoded)
        assert decoded == rsa512.public

    def test_public_key_truncated_encoding(self):
        with pytest.raises(ValueError):
            RsaPublicKey.from_bytes(b"\x00")

    def test_keygen_validation(self, rng):
        with pytest.raises(ValueError):
            RsaKeyPair.generate(64, rng)
        with pytest.raises(ValueError):
            RsaKeyPair.generate(513, rng)

    def test_crt_matches_plain_exponentiation(self, rsa512):
        c = 0xDEADBEEF
        assert rsa512._decrypt_int(c) == pow(c, rsa512.d, rsa512.public.n)


class TestDh:
    @pytest.mark.parametrize("group_id", [1, 2])
    def test_shared_secret_agreement(self, group_id, rng):
        params = MODP_GROUPS[group_id]
        a = DHKeyPair.generate(params, rng)
        b = DHKeyPair.generate(params, rng)
        assert a.shared_secret(b.public).reveal() == b.shared_secret(a.public).reveal()

    def test_secret_length_fixed(self, rng):
        params = MODP_GROUPS[1]
        a = DHKeyPair.generate(params, rng)
        b = DHKeyPair.generate(params, rng)
        assert len(a.shared_secret(b.public)) == params.byte_length

    def test_rejects_degenerate_peer_values(self, rng):
        params = MODP_GROUPS[1]
        kp = DHKeyPair.generate(params, rng)
        for bad in (0, 1, params.prime - 1, params.prime, params.prime + 5):
            with pytest.raises(ValueError):
                kp.shared_secret(bad)

    def test_group_parameters_sane(self):
        for gid, params in MODP_GROUPS.items():
            assert params.generator == 2
            assert params.prime % 2 == 1
            assert params.bits in (768, 1024, 1536, 2048)

    def test_public_bytes_length(self, rng):
        params = MODP_GROUPS[1]
        kp = DHKeyPair.generate(params, rng)
        assert len(kp.public_bytes()) == params.byte_length


class TestEcdsa:
    @pytest.fixture(scope="class")
    def keypair(self):
        return EcdsaKeyPair.generate(random.Random(5))

    def test_generator_on_curve(self):
        assert is_on_curve((P256.gx, P256.gy), P256)

    def test_point_order(self):
        assert scalar_mult(P256.n, (P256.gx, P256.gy), P256) is None

    def test_scalar_mult_distributes(self):
        g = (P256.gx, P256.gy)
        lhs = scalar_mult(7, g, P256)
        rhs = point_add(scalar_mult(3, g, P256), scalar_mult(4, g, P256), P256)
        assert lhs == rhs

    def test_sign_verify(self, keypair, rng):
        sig = keypair.sign(b"hello", rng)
        assert ecdsa_verify(keypair.public, b"hello", sig)

    def test_verify_rejects_modified_message(self, keypair, rng):
        sig = keypair.sign(b"hello", rng)
        assert not ecdsa_verify(keypair.public, b"hellO", sig)

    def test_verify_rejects_tampered_sig(self, keypair, rng):
        sig = bytearray(keypair.sign(b"m", rng))
        sig[10] ^= 0x40
        assert not ecdsa_verify(keypair.public, b"m", bytes(sig))

    def test_verify_rejects_zero_sig(self, keypair):
        assert not ecdsa_verify(keypair.public, b"m", bytes(64))

    def test_signatures_randomized(self, keypair):
        r1, r2 = random.Random(1), random.Random(2)
        assert keypair.sign(b"m", r1) != keypair.sign(b"m", r2)

    def test_ecdh_agreement(self, rng):
        a = EcdsaKeyPair.generate(rng)
        b = EcdsaKeyPair.generate(rng)
        assert a.ecdh(b.public) == b.ecdh(a.public)

    def test_ecdh_rejects_off_curve_point(self, keypair):
        with pytest.raises(ValueError):
            keypair.ecdh((1, 2))

    def test_public_bytes_roundtrip(self, keypair):
        data = keypair.public_bytes()
        assert EcdsaKeyPair.public_from_bytes(data) == keypair.public

    def test_public_from_bytes_validation(self):
        with pytest.raises(ValueError):
            EcdsaKeyPair.public_from_bytes(b"\x04" + bytes(63))
        with pytest.raises(ValueError):
            EcdsaKeyPair.public_from_bytes(b"\x02" + bytes(64))


class TestPuzzle:
    def test_solve_and_verify(self, rng):
        puzzle = Puzzle.fresh(8, rng)
        hit_i, hit_r = bytes(16), bytes(range(16))
        j, attempts = solve_puzzle(puzzle, hit_i, hit_r, rng)
        assert verify_solution(puzzle, hit_i, hit_r, j)
        assert attempts >= 1

    def test_wrong_hits_fail_verification(self, rng):
        puzzle = Puzzle.fresh(8, rng)
        j, _ = solve_puzzle(puzzle, bytes(16), bytes(16), rng)
        assert not verify_solution(puzzle, b"\x01" * 16, bytes(16), j)

    def test_k_zero_any_j(self, rng):
        puzzle = Puzzle.fresh(0, rng)
        assert verify_solution(puzzle, bytes(16), bytes(16), bytes(8))

    def test_wrong_j_length_rejected(self, rng):
        puzzle = Puzzle.fresh(0, rng)
        assert not verify_solution(puzzle, bytes(16), bytes(16), bytes(4))

    def test_difficulty_scales_attempts(self):
        """Mean attempts grows ~2^K (statistical, generous tolerance)."""
        rng = random.Random(123)
        hit_i, hit_r = bytes(16), bytes(16)

        def mean_attempts(k, n=30):
            total = 0
            for _ in range(n):
                puzzle = Puzzle.fresh(k, rng)
                _, attempts = solve_puzzle(puzzle, hit_i, hit_r, rng)
                total += attempts
            return total / n

        easy = mean_attempts(2)
        hard = mean_attempts(7)
        assert hard > easy * 4  # expectation ratio is 32

    def test_hashlib_solver_matches_the_pure_sha1_reference(self):
        """The solver resumes a ``hashlib`` midstate per candidate J; the
        pre-PR loop hashed the whole 48 bytes with this package's ``sha1``.
        Same rng draws, same J, same attempt count, over 240 seeded puzzles."""
        from repro.crypto.sha import sha1

        def reference(puzzle, hit_i, hit_r, rng):
            attempts = 0
            while True:
                attempts += 1
                j = rng.getrandbits(64).to_bytes(8, "big")
                digest = int.from_bytes(sha1(puzzle.i + hit_i + hit_r + j), "big")
                if digest & ((1 << puzzle.k) - 1) == 0:
                    return j, attempts

        gen = random.Random(2012)
        total = 0
        for n in range(240):
            puzzle = Puzzle.fresh(n % 7, gen)  # K = 0..6
            hit_i, hit_r = gen.randbytes(16), gen.randbytes(16)
            seed = gen.getrandbits(32)
            rng_fast, rng_ref = random.Random(seed), random.Random(seed)
            solved = solve_puzzle(puzzle, hit_i, hit_r, rng_fast)
            assert solved == reference(puzzle, hit_i, hit_r, rng_ref)
            assert rng_fast.getstate() == rng_ref.getstate()
            assert verify_solution(puzzle, hit_i, hit_r, solved[0])
            total += solved[1]
        assert total > 240  # some puzzles took more than one attempt

    def test_expected_attempts(self):
        assert expected_attempts(0) == 1
        assert expected_attempts(10) == 1024

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            Puzzle(i=bytes(4), k=5)
        with pytest.raises(ValueError):
            Puzzle(i=bytes(8), k=60)
