"""From-scratch cryptographic substrate.

The paper's claim — "HIP and SSL have a very similar performance footprint as
they are essentially based on the same algorithms" — is structural: both
protocols pay for asymmetric operations at connection setup and symmetric
operations per byte.  To make that claim testable we implement the actual
algorithms (RSA, Diffie-Hellman, ECDSA P-256, AES, HMAC, HKDF-style key
derivation and RFC 5201 puzzles) in pure Python over stdlib ``hashlib``
SHA-1/SHA-256, operate on real bytes everywhere, and let the simulator
charge *calibrated* CPU time per primitive through
:mod:`repro.crypto.costmodel` so measured shapes do not depend on the speed
of Python big-int arithmetic.
"""

from repro.crypto.aes import AES
from repro.crypto.costmodel import CostModel, CryptoMeter
from repro.crypto.dh import DHKeyPair, DHParams, MODP_GROUPS
from repro.crypto.ecc import EcdsaKeyPair, P256
from repro.crypto.hmac_kdf import (
    ct_equal,
    hkdf_expand,
    hkdf_extract,
    hmac_digest,
    tls_verify_data,
)
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_keystream_xor,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.numtheory import is_probable_prime, modinv, random_prime
from repro.crypto.puzzle import Puzzle, solve_puzzle, verify_solution
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.secret import Secret
from repro.crypto.sha import sha1, sha256

__all__ = [
    "AES",
    "CostModel",
    "CryptoMeter",
    "DHKeyPair",
    "DHParams",
    "EcdsaKeyPair",
    "MODP_GROUPS",
    "P256",
    "Puzzle",
    "RsaKeyPair",
    "RsaPublicKey",
    "Secret",
    "cbc_decrypt",
    "cbc_encrypt",
    "ct_equal",
    "ctr_keystream_xor",
    "hkdf_expand",
    "hkdf_extract",
    "hmac_digest",
    "is_probable_prime",
    "modinv",
    "pkcs7_pad",
    "pkcs7_unpad",
    "random_prime",
    "sha1",
    "sha256",
    "solve_puzzle",
    "tls_verify_data",
    "verify_solution",
]
