"""Classic finite-field Diffie-Hellman with the RFC 3526 MODP groups.

The HIP base exchange negotiates a DH group in R1 and completes the exchange
in I2; RFC 5201 mandates support for the 1536-bit MODP group and recommends
the 3072-bit one.  We ship groups 2 (1024), 5 (1536) and 14 (2048) plus a
small 512-bit test group for fast unit tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.numtheory import int_to_bytes
from repro.crypto.secret import Secret

# RFC 3526 / RFC 2409 MODP primes.  All have generator 2 and (p-1)/2 prime.
_MODP_1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)
_MODP_1536 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)
_MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
# RFC 2409 Oakley Group 1 (768-bit) — obsolete for security, kept as the
# fast group for unit tests and simulations where crypto time is charged
# through the cost model anyway.
_MODP_768 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
    16,
)


@dataclass(frozen=True)
class DHParams:
    """A Diffie-Hellman group: prime modulus and generator."""

    group_id: int
    prime: int
    generator: int = 2

    @property
    def bits(self) -> int:
        return self.prime.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8


MODP_GROUPS: dict[int, DHParams] = {
    2: DHParams(group_id=2, prime=_MODP_1024),
    5: DHParams(group_id=5, prime=_MODP_1536),
    14: DHParams(group_id=14, prime=_MODP_2048),
    # RFC 2409 group 1; used as the fast group for tests and simulations
    1: DHParams(group_id=1, prime=_MODP_768),
}


@dataclass(frozen=True)
class DHKeyPair:
    """Ephemeral DH key pair bound to a group."""

    params: DHParams
    private: int = field(repr=False)
    public: int

    @classmethod
    def generate(cls, params: DHParams, rng: random.Random) -> "DHKeyPair":
        # Exponent of twice the security level of the group is plenty;
        # cap at p-2 for tiny test groups.
        exp_bits = min(2 * 128, params.bits - 2)
        private = rng.getrandbits(exp_bits) | (1 << (exp_bits - 1))
        public = pow(params.generator, private, params.prime)
        return cls(params=params, private=private, public=public)

    def shared_secret(self, peer_public: int) -> Secret:
        """Compute the shared secret, validating the peer's public value."""
        p = self.params.prime
        if not 2 <= peer_public <= p - 2:
            raise ValueError("peer DH public value out of range")
        secret = pow(peer_public, self.private, p)
        if secret in (0, 1, p - 1):
            raise ValueError("degenerate DH shared secret (small-subgroup attack?)")
        return Secret(int_to_bytes(secret, self.params.byte_length))

    def public_bytes(self) -> bytes:
        return int_to_bytes(self.public, self.params.byte_length)
