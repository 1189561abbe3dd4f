"""Schoolbook crypto oracles (the pinned pre-optimization implementations).

These are the byte-matrix AES, FIPS-180 SHA, RFC 2104 HMAC and mode loops
that shipped before the fast-path rewrite of :mod:`repro.crypto.aes` and
:mod:`repro.crypto.modes`, and before :mod:`repro.crypto.sha` and
:mod:`repro.crypto.hmac_kdf` moved onto stdlib ``hashlib``.  They live with
the tests, not in ``src/``, and exist for two reasons only:

1. **Differential tests** — ``tests/test_crypto_fastpath.py`` asserts the
   shipped primitives are byte-identical to these on random inputs and on
   every SHA padding case, so a perf change can never silently change
   outputs.
2. **The perf baseline** — ``benchmarks/bench_crypto.py`` measures both the
   oracle and the shipped path and records the ratio in ``BENCH_crypto.json``.

:class:`AesRef` runs its own FIPS-197 key expansion and byte-matrix rounds;
all it shares with the shipped cipher is the derived S-box.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import BLOCK_SIZE, INV_SBOX, SBOX
from repro.crypto.modes import pkcs7_pad, pkcs7_unpad

_MASK32 = 0xFFFFFFFF


def _rotl32(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK32


def _rotr32(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK32


def _md_pad(message: bytes) -> bytes:
    bit_len = len(message) * 8
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    return padded + struct.pack(">Q", bit_len)


def sha1_ref(message: bytes) -> bytes:
    """Pre-PR SHA-1: branchy 80-step loop with helper-function rotates."""
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    padded = _md_pad(message)
    for off in range(0, len(padded), 64):
        w = list(struct.unpack(">16I", padded[off : off + 64]))
        for t in range(16, 80):
            w.append(_rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = h
        for t in range(80):
            if t < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif t < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_rotl32(a, 5) + f + e + k + w[t]) & _MASK32
            e, d, c, b, a = d, c, _rotl32(b, 30), a, temp
        h = [(x + y) & _MASK32 for x, y in zip(h, (a, b, c, d, e))]
    return struct.pack(">5I", *h)


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

_SHA256_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)


def sha256_ref(message: bytes) -> bytes:
    """Pre-PR SHA-256: per-step helper-function rotates."""
    h = list(_SHA256_H0)
    padded = _md_pad(message)
    for off in range(0, len(padded), 64):
        w = list(struct.unpack(">16I", padded[off : off + 64]))
        for t in range(16, 64):
            s0 = _rotr32(w[t - 15], 7) ^ _rotr32(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr32(w[t - 2], 17) ^ _rotr32(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            big_s1 = _rotr32(e, 6) ^ _rotr32(e, 11) ^ _rotr32(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (hh + big_s1 + ch + _SHA256_K[t] + w[t]) & _MASK32
            big_s0 = _rotr32(a, 2) ^ _rotr32(a, 13) ^ _rotr32(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (big_s0 + maj) & _MASK32
            hh, g, f, e, d, c, b, a = (
                g, f, e, (d + temp1) & _MASK32, c, b, a, (temp1 + temp2) & _MASK32,
            )
        h = [(x + y) & _MASK32 for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return struct.pack(">8I", *h)


_HASHES_REF = {"sha1": sha1_ref, "sha256": sha256_ref}


def hmac_digest_ref(key: bytes, message: bytes, hash_name: str = "sha256") -> bytes:
    """Pre-PR HMAC: recomputes ipad/opad and both key blocks on every call."""
    hash_fn = _HASHES_REF[hash_name]
    block = 64
    if len(key) > block:
        key = hash_fn(key)
    key = key.ljust(block, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    return hash_fn(opad + hash_fn(ipad + message))


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) multiplication modulo the AES polynomial 0x11B."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


_MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14 = (
    bytes(_gf_mul(x, m) for x in range(256)) for m in (2, 3, 9, 11, 13, 14)
)
_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))


class AesRef:
    """Pre-PR AES: flat 16-byte state, column-major as in FIPS-197
    (``state[4*c + r]`` is row r, column c), one list rebuild per step."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self.round_keys = self._expand_key(self.key)

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (self.rounds + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        return [
            [b for w in words[4 * r : 4 * r + 4] for b in w] for r in range(self.rounds + 1)
        ]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        rk = self.round_keys
        s = [block[i] ^ rk[0][i] for i in range(16)]
        for rnd in range(1, self.rounds):
            s = self._round(s, rk[rnd])
        # Final round: no MixColumns.
        s = [SBOX[b] for b in s]
        s = self._shift_rows(s)
        return bytes(s[i] ^ rk[self.rounds][i] for i in range(16))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        rk = self.round_keys
        s = [block[i] ^ rk[self.rounds][i] for i in range(16)]
        s = self._inv_shift_rows(s)
        s = [INV_SBOX[b] for b in s]
        for rnd in range(self.rounds - 1, 0, -1):
            s = [s[i] ^ rk[rnd][i] for i in range(16)]
            s = self._inv_mix_columns(s)
            s = self._inv_shift_rows(s)
            s = [INV_SBOX[b] for b in s]
        return bytes(s[i] ^ rk[0][i] for i in range(16))

    @staticmethod
    def _shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    def _round(self, s: list[int], rk: list[int]) -> list[int]:
        s = [SBOX[b] for b in s]
        s = self._shift_rows(s)
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return [out[i] ^ rk[i] for i in range(16)]

    @staticmethod
    def _inv_mix_columns(s: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out


def _xor_block_ref(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def cbc_encrypt_ref(cipher: AesRef, iv: bytes, plaintext: bytes) -> bytes:
    """Pre-PR CBC: per-byte generator XOR + per-block naive AES."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes")
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    prev = iv
    for i in range(0, len(padded), BLOCK_SIZE):
        block = _xor_block_ref(padded[i : i + BLOCK_SIZE], prev)
        prev = cipher.encrypt_block(block)
        out += prev
    return bytes(out)


def cbc_decrypt_ref(cipher: AesRef, iv: bytes, ciphertext: bytes) -> bytes:
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes")
    if len(ciphertext) % BLOCK_SIZE:
        raise ValueError("ciphertext length is not a multiple of the block size")
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i : i + BLOCK_SIZE]
        out += _xor_block_ref(cipher.decrypt_block(block), prev)
        prev = block
    return pkcs7_unpad(bytes(out))


def ctr_keystream_xor_ref(
    cipher: AesRef, nonce: bytes, data: bytes, counter0: int = 0
) -> bytes:
    """Pre-PR CTR: rebuilds the counter block by concatenation per block."""
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    out = bytearray()
    counter = counter0
    for i in range(0, len(data), BLOCK_SIZE):
        block = cipher.encrypt_block(nonce + counter.to_bytes(8, "big"))
        chunk = data[i : i + BLOCK_SIZE]
        out += _xor_block_ref(chunk, block[: len(chunk)])
        counter += 1
    return bytes(out)
