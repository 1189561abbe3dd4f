"""HIP computational puzzles (RFC 5201 §4.1.2).

The responder includes a random value ``I`` and a difficulty ``K`` in R1;
the initiator must find ``J`` such that the ``K`` lowest-order bits of
``SHA-1(I | HIT-I | HIT-R | J)`` are zero.  Solving costs the initiator
O(2^K) hash operations on average while verification is a single hash —
this asymmetry is HIP's DoS-mitigation knob, which the puzzle ablation
benchmark sweeps.

The solver hashes the fixed ``I | HIT-I | HIT-R`` prefix once and
``.copy()``s the :mod:`hashlib` midstate per candidate ``J`` (``HmacKey``'s
midstate trick); the verifier is one :func:`repro.crypto.sha.sha1`.  Both
are ``hashlib``; ``tests/test_crypto_fastpath.py`` pins that SHA-1 to the
FIPS-180 reference in ``tests/oracles``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.crypto.sha import sha1

RHASH_LEN = 8  # bytes of I and J on the wire (RFC 5201 uses 64-bit values)


@dataclass(frozen=True)
class Puzzle:
    """A puzzle challenge as carried in the R1 packet."""

    i: bytes  # random value I, RHASH_LEN bytes
    k: int  # difficulty: number of low-order zero bits required
    lifetime: float = 60.0  # seconds the responder will accept solutions

    def __post_init__(self) -> None:
        if len(self.i) != RHASH_LEN:
            raise ValueError(f"puzzle I must be {RHASH_LEN} bytes")
        if not 0 <= self.k <= 40:
            raise ValueError("puzzle difficulty K out of supported range 0..40")

    @classmethod
    def fresh(cls, k: int, rng: random.Random, lifetime: float = 60.0) -> "Puzzle":
        return cls(i=bytes(rng.randrange(256) for _ in range(RHASH_LEN)), k=k,
                   lifetime=lifetime)


def _ltrunc_ok(digest: bytes, k: int) -> bool:
    """True if the k lowest-order bits of the digest are zero."""
    if k == 0:
        return True
    value = int.from_bytes(digest, "big")
    return value & ((1 << k) - 1) == 0


def solve_puzzle(puzzle: Puzzle, hit_i: bytes, hit_r: bytes, rng: random.Random) -> tuple[bytes, int]:
    """Find J solving the puzzle; returns (J, attempts).

    ``attempts`` is returned so simulations can charge the true number of
    hash operations spent, preserving the expected O(2^K) cost.
    """
    prefix = hashlib.sha1(puzzle.i + hit_i + hit_r)
    attempts = 0
    while True:
        attempts += 1
        j = rng.getrandbits(8 * RHASH_LEN).to_bytes(RHASH_LEN, "big")
        candidate = prefix.copy()
        candidate.update(j)
        if _ltrunc_ok(candidate.digest(), puzzle.k):
            return j, attempts


def verify_solution(puzzle: Puzzle, hit_i: bytes, hit_r: bytes, j: bytes) -> bool:
    """Responder-side check: one hash."""
    if len(j) != RHASH_LEN:
        return False
    return _ltrunc_ok(sha1(puzzle.i + hit_i + hit_r + j), puzzle.k)


def expected_attempts(k: int) -> float:
    """Mean number of hashes an honest solver needs: 2^K."""
    return float(1 << k)
