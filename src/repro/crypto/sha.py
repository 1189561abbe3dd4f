"""SHA-1 and SHA-256 implemented from the FIPS-180 specification.

HIP uses SHA-1 for HITs and puzzles (RFC 5201 era) and SHA-256 in later
revisions; TLS 1.2 PRF and our HMAC use SHA-256.  Both are implemented here
rather than taken from :mod:`hashlib` so the whole crypto substrate is
self-contained and auditable; tests cross-check every digest against
``hashlib`` on random inputs.  Two hot loops do use ``hashlib`` midstates
and are checked against this module on every use or by differential test:
``HmacKey``'s "fast" engine and the ~2^K-hash puzzle *solver*
(:func:`repro.crypto.puzzle.solve_puzzle`; ``verify_solution`` hashes here).

The module exposes two layers:

* ``sha1(message)`` / ``sha256(message)`` — one-shot digests.
* A compression-function API — ``SHA1_IV``/``SHA256_IV`` initial states,
  ``sha1_compress``/``sha256_compress`` (one 512-bit block each) and
  ``md_finish`` (Merkle–Damgård padding over a < 64-byte tail given the
  true message length).  :class:`repro.crypto.hmac_kdf.HmacKey` uses it to
  cache the ipad/opad midstates once per key, which is the dominant saving
  on the per-packet HMAC path.

The compression loops are deliberately flat: rotations are inlined (a left
shift may carry bits above 2^32 — they only ever propagate *upward* through
additions and are stripped by the final ``& MASK``), the SHA-1 round
function is split into its four 20-step phases so there is no per-step
branching, and message schedules are built once per block.  Known-answer
and hashlib differential tests pin byte-identical output.
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF

SHA1_IV = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)

_SHA256_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

SHA256_IV = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)


def sha1_compress(state: tuple, data, offset: int = 0) -> tuple:
    """One SHA-1 compression of the 64-byte block at ``data[offset:]``."""
    M = _MASK32
    w = list(struct.unpack_from(">16I", data, offset))
    append = w.append
    for t in range(16, 80):
        x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]
        append(((x << 1) | (x >> 31)) & M)
    a, b, c, d, e = state
    for t in range(0, 20):
        temp = (((a << 5) | (a >> 27)) + ((b & c) | (~b & d)) + e + 0x5A827999 + w[t]) & M
        e, d, c, b, a = d, c, ((b << 30) | (b >> 2)) & M, a, temp
    for t in range(20, 40):
        temp = (((a << 5) | (a >> 27)) + (b ^ c ^ d) + e + 0x6ED9EBA1 + w[t]) & M
        e, d, c, b, a = d, c, ((b << 30) | (b >> 2)) & M, a, temp
    for t in range(40, 60):
        temp = (((a << 5) | (a >> 27)) + ((b & c) | (b & d) | (c & d)) + e + 0x8F1BBCDC + w[t]) & M
        e, d, c, b, a = d, c, ((b << 30) | (b >> 2)) & M, a, temp
    for t in range(60, 80):
        temp = (((a << 5) | (a >> 27)) + (b ^ c ^ d) + e + 0xCA62C1D6 + w[t]) & M
        e, d, c, b, a = d, c, ((b << 30) | (b >> 2)) & M, a, temp
    h0, h1, h2, h3, h4 = state
    return ((h0 + a) & M, (h1 + b) & M, (h2 + c) & M, (h3 + d) & M, (h4 + e) & M)


def sha256_compress(state: tuple, data, offset: int = 0) -> tuple:
    """One SHA-256 compression of the 64-byte block at ``data[offset:]``."""
    M = _MASK32
    K = _SHA256_K
    w = list(struct.unpack_from(">16I", data, offset))
    append = w.append
    for t in range(16, 64):
        x = w[t - 15]
        s0 = (((x >> 7) | (x << 25)) ^ ((x >> 18) | (x << 14)) ^ (x >> 3)) & M
        y = w[t - 2]
        s1 = (((y >> 17) | (y << 15)) ^ ((y >> 19) | (y << 13)) ^ (y >> 10)) & M
        append((w[t - 16] + s0 + w[t - 7] + s1) & M)
    a, b, c, d, e, f, g, hh = state
    for t in range(64):
        big_s1 = (((e >> 6) | (e << 26)) ^ ((e >> 11) | (e << 21)) ^ ((e >> 25) | (e << 7))) & M
        temp1 = hh + big_s1 + ((e & f) ^ (~e & g)) + K[t] + w[t]
        big_s0 = (((a >> 2) | (a << 30)) ^ ((a >> 13) | (a << 19)) ^ ((a >> 22) | (a << 10))) & M
        temp2 = big_s0 + ((a & b) ^ (a & c) ^ (b & c))
        hh, g, f, e, d, c, b, a = (
            g, f, e, (d + temp1) & M, c, b, a, (temp1 + temp2) & M,
        )
    h = state
    return (
        (h[0] + a) & M, (h[1] + b) & M, (h[2] + c) & M, (h[3] + d) & M,
        (h[4] + e) & M, (h[5] + f) & M, (h[6] + g) & M, (h[7] + hh) & M,
    )


def md_finish(compress, state: tuple, tail: bytes, total_len: int) -> tuple:
    """Merkle–Damgård finalization: pad ``tail`` (< 64 bytes) and compress.

    ``total_len`` is the length in bytes of the *entire* message, including
    any blocks already folded into ``state`` (e.g. the HMAC ipad block).
    """
    padded = bytes(tail) + b"\x80" + b"\x00" * ((55 - len(tail)) % 64) + struct.pack(
        ">Q", total_len * 8
    )
    state = compress(state, padded)
    if len(padded) == 128:
        state = compress(state, padded, 64)
    return state


def _md_pad(message: bytes) -> bytes:
    """Merkle–Damgård strengthening: 0x80, zeros, 64-bit big-endian bit length."""
    bit_len = len(message) * 8
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    return padded + struct.pack(">Q", bit_len)


def sha1(message: bytes) -> bytes:
    """SHA-1 digest (20 bytes)."""
    state = SHA1_IV
    n = len(message)
    full = n - (n % 64)
    for off in range(0, full, 64):
        state = sha1_compress(state, message, off)
    return struct.pack(">5I", *md_finish(sha1_compress, state, message[full:], n))


def sha256(message: bytes) -> bytes:
    """SHA-256 digest (32 bytes)."""
    state = SHA256_IV
    n = len(message)
    full = n - (n % 64)
    for off in range(0, full, 64):
        state = sha256_compress(state, message, off)
    return struct.pack(">8I", *md_finish(sha256_compress, state, message[full:], n))


DIGEST_SIZES = {"sha1": 20, "sha256": 32}
BLOCK_SIZES = {"sha1": 64, "sha256": 64}
HASHES = {"sha1": sha1, "sha256": sha256}
IVS = {"sha1": SHA1_IV, "sha256": SHA256_IV}
COMPRESS = {"sha1": sha1_compress, "sha256": sha256_compress}
PACK_FORMATS = {"sha1": ">5I", "sha256": ">8I"}
