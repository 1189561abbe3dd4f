"""AES block cipher (FIPS-197), pure Python, T-table fast path.

Supports 128/192/256-bit keys.  The S-box is derived at import time from the
GF(2^8) multiplicative inverse plus the affine transform rather than being
transcribed, so a typo cannot silently corrupt the cipher; the inverses come
from log/antilog tables over the generator {03}.  Known-answer tests in
``tests/test_crypto_aes_modes.py`` pin the FIPS-197 vectors and every S-box
entry against the definition.

The hot path is the classic 32-bit T-table formulation: four 256-entry
tables fold SubBytes + ShiftRows + MixColumns into table lookups and XORs
over packed column words (and four TD tables for the equivalent inverse
cipher, with InvMixColumns pre-applied to the decryption round keys).  The
schoolbook byte-matrix implementation lives with the tests
(``tests/oracles/crypto_reference.py``); differential tests assert the two
are byte-identical on random inputs.

CBC *decryption* has no dependency between blocks, so messages of
``_PLANE_MIN_BLOCKS`` blocks or more skip the per-block loop: the
ciphertext is transposed once into 16 byte planes (one per state
position, each as long as the message has blocks) and every round then
runs over the whole message with ``bytes.translate``, slicing and big-int
XOR only — see :meth:`AES._cbc_decrypt_planes` and DESIGN.md "Crypto fast
path".  CBC encryption chains within a message, so it batches across
messages instead (:meth:`AES._cbc_encrypt_lanes`).

This is the shared symmetric engine for both the HIP/ESP data plane and the
TLS record layer — deliberately so, because the paper's core performance
argument is that the two protocols use the same algorithms.
"""

from __future__ import annotations

import struct

from repro.crypto.secret import Secret
from repro.metrics import METRICS

_AES_BLOCKS = METRICS.counter("crypto.aes_blocks")


def _xtime(a: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial 0x11B."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) multiplication (schoolbook, used to build tables)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses from log/antilog tables over the generator
    # {03}: if x = 3**k then 1/x = 3**(255 - k).  (0 maps to 0.)
    antilog = [0] * 255
    log = [0] * 256
    x = 1
    for k in range(255):
        antilog[k] = x
        log[x] = k
        x ^= _xtime(x)  # x * {03} = x * {02} ^ x
    inv = [0] + [antilog[-log[x] % 255] for x in range(1, 256)]
    sbox = bytearray(256)
    for x in range(256):
        b = inv[x]
        # Affine transform: b ^ rot1 ^ rot2 ^ rot3 ^ rot4 ^ 0x63
        res = b
        for shift in (1, 2, 3, 4):
            res ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[x] = res ^ 0x63
    inv_sbox = bytearray(256)
    for x, s in enumerate(sbox):
        inv_sbox[s] = x
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()
_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_xtime(_RCON[-1]))

# Precomputed multiplication tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(_gf_mul(x, 3) for x in range(256))
_MUL9 = bytes(_gf_mul(x, 9) for x in range(256))
_MUL11 = bytes(_gf_mul(x, 11) for x in range(256))
_MUL13 = bytes(_gf_mul(x, 13) for x in range(256))
_MUL14 = bytes(_gf_mul(x, 14) for x in range(256))


def _build_t_tables() -> tuple:
    """Encryption tables TE0..3 and decryption tables TD0..3.

    ``TE0[x]`` is MixColumns applied to the column ``(SBOX[x], 0, 0, 0)``
    packed big-endian; TE1..3 are byte rotations of TE0 so each covers one
    input row.  TD tables are the same construction over INV_SBOX with the
    InvMixColumns matrix.
    """
    te0, te1, te2, te3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    td0, td1, td2, td3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    for x in range(256):
        s = SBOX[x]
        t = (_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s]
        te0[x] = t
        te1[x] = ((t >> 8) | (t << 24)) & 0xFFFFFFFF
        te2[x] = ((t >> 16) | (t << 16)) & 0xFFFFFFFF
        te3[x] = ((t >> 24) | (t << 8)) & 0xFFFFFFFF
        v = INV_SBOX[x]
        u = (_MUL14[v] << 24) | (_MUL9[v] << 16) | (_MUL13[v] << 8) | _MUL11[v]
        td0[x] = u
        td1[x] = ((u >> 8) | (u << 24)) & 0xFFFFFFFF
        td2[x] = ((u >> 16) | (u << 16)) & 0xFFFFFFFF
        td3[x] = ((u >> 24) | (u << 8)) & 0xFFFFFFFF
    return tuple(te0), tuple(te1), tuple(te2), tuple(te3), \
        tuple(td0), tuple(td1), tuple(td2), tuple(td3)


_TE0, _TE1, _TE2, _TE3, _TD0, _TD1, _TD2, _TD3 = _build_t_tables()

BLOCK_SIZE = 16

# One struct.pack call splits the four column words back into 16 bytes; a
# ``bytes`` subscript yields a cached small int, so this replaces the 24
# shift/mask operations per round that the obvious formulation needs.
_PACK4 = struct.Struct(">4I").pack

# Block-parallel CBC decrypt (``AES._cbc_decrypt_planes``).  The x14/x9/x13/x11
# products of InvSubBytes output are the four byte lanes of TD0, as
# ``bytes.translate`` tables.
_TD_MUL14 = bytes(t >> 24 for t in _TD0)
_TD_MUL9 = bytes((t >> 16) & 0xFF for t in _TD0)
_TD_MUL13 = bytes((t >> 8) & 0xFF for t in _TD0)
_TD_MUL11 = bytes(t & 0xFF for t in _TD0)
# Plane q = 4*row + col holds state byte 4*col + row of every block.
_PLANE_ORDER = tuple(4 * col + row for row in range(4) for col in range(4))
# Below this many blocks the scalar loop is faster (DESIGN.md has the table).
_PLANE_MIN_BLOCKS = 4
# Stretched round keys kept per AES instance and direction, one per block/lane count.
_PLANE_KEY_CACHE_MAX = 8
# ``AES._cbc_encrypt_lanes``: x2/x3 SubBytes products, two byte lanes of TE0.
_TE_MUL2 = bytes(t >> 24 for t in _TE0)
_TE_MUL3 = bytes(t & 0xFF for t in _TE0)


def _flatten_schedule(schedule: tuple) -> tuple[int, ...]:
    """Undo :meth:`AES._structure_schedule`: the round-key words in order."""
    first, pairs, penult, final = schedule
    return first + sum(pairs, ()) + penult + final


class AES:
    """AES block cipher instance bound to one key.

    Use through :mod:`repro.crypto.modes` (CBC/CTR) for anything longer than
    one block.  ``encrypt_words``/``decrypt_words`` are the zero-copy core
    the mode loops batch over; ``encrypt_block``/``decrypt_block`` wrap them
    for single-block byte callers.
    """

    __slots__ = ("rounds", "_rk_enc", "_rk_dec", "_rk_rows", "_plane_keys", "_lane_keys")

    def __init__(self, key: bytes | Secret) -> None:
        if isinstance(key, Secret):
            key = key.reveal()
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._rk_enc, self._rk_dec = self._pack_round_keys(self._expand_key(bytes(key)))
        self._rk_rows: tuple[tuple[bytes, ...], ...] | None = None
        self._plane_keys: dict[int, tuple[int, ...]] = {}
        self._lane_keys: dict[int, tuple[int, ...]] = {}

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        # Group into 16-byte round keys (flattened per round).
        round_keys = []
        for r in range(self.rounds + 1):
            rk = []
            for w in words[4 * r : 4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    def _pack_round_keys(self, round_keys: list[list[int]]) -> tuple[tuple, tuple]:
        """Pack byte round keys into 32-bit words; derive decryption keys.

        The equivalent inverse cipher wants the encryption schedule in
        reverse order with InvMixColumns applied to the middle rounds.
        ``TD0[SBOX[b]]`` is InvMixColumns of the column ``(b, 0, 0, 0)``, so
        the transform is four lookups per word.

        Both schedules are returned pre-structured for the round loops as
        ``(first, pairs, penult, final)``: the whitening round, the middle
        rounds two at a time as flat 8-tuples, the one odd middle round left
        over (the middle-round count is odd for every AES key size), and the
        final round.  Unpacking a whole 8-tuple at the loop head costs one
        instruction and removes all per-round key indexing.
        """
        enc = []
        for rk in round_keys:
            for c in range(0, 16, 4):
                enc.append((rk[c] << 24) | (rk[c + 1] << 16) | (rk[c + 2] << 8) | rk[c + 3])
        dec = []
        for r in range(self.rounds, -1, -1):
            rk = round_keys[r]
            for c in range(0, 16, 4):
                if 0 < r < self.rounds:
                    dec.append(
                        _TD0[SBOX[rk[c]]] ^ _TD1[SBOX[rk[c + 1]]]
                        ^ _TD2[SBOX[rk[c + 2]]] ^ _TD3[SBOX[rk[c + 3]]]
                    )
                else:
                    dec.append((rk[c] << 24) | (rk[c + 1] << 16) | (rk[c + 2] << 8) | rk[c + 3])
        return self._structure_schedule(enc), self._structure_schedule(dec)

    def _structure_schedule(self, flat: list[int]) -> tuple:
        mid = [tuple(flat[4 * r : 4 * r + 4]) for r in range(1, self.rounds)]
        pairs = tuple(mid[j] + mid[j + 1] for j in range(0, len(mid) - 1, 2))
        return tuple(flat[0:4]), pairs, mid[-1], tuple(flat[4 * self.rounds :])

    # -- fast path: packed 32-bit column words ---------------------------------
    def encrypt_words(self, s0: int, s1: int, s2: int, s3: int) -> tuple[int, int, int, int]:
        """Encrypt one block given as four big-endian column words."""
        first, pairs, penult, final = self._rk_enc
        t0, t1, t2, t3 = _TE0, _TE1, _TE2, _TE3
        pk = _PACK4
        k0, k1, k2, k3 = first
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3, m0, m1, m2, m3 in pairs:
            b = pk(s0, s1, s2, s3)
            u0 = t0[b[0]] ^ t1[b[5]] ^ t2[b[10]] ^ t3[b[15]] ^ k0
            u1 = t0[b[4]] ^ t1[b[9]] ^ t2[b[14]] ^ t3[b[3]] ^ k1
            u2 = t0[b[8]] ^ t1[b[13]] ^ t2[b[2]] ^ t3[b[7]] ^ k2
            u3 = t0[b[12]] ^ t1[b[1]] ^ t2[b[6]] ^ t3[b[11]] ^ k3
            b = pk(u0, u1, u2, u3)
            s0 = t0[b[0]] ^ t1[b[5]] ^ t2[b[10]] ^ t3[b[15]] ^ m0
            s1 = t0[b[4]] ^ t1[b[9]] ^ t2[b[14]] ^ t3[b[3]] ^ m1
            s2 = t0[b[8]] ^ t1[b[13]] ^ t2[b[2]] ^ t3[b[7]] ^ m2
            s3 = t0[b[12]] ^ t1[b[1]] ^ t2[b[6]] ^ t3[b[11]] ^ m3
        k0, k1, k2, k3 = penult
        b = pk(s0, s1, s2, s3)
        u0 = t0[b[0]] ^ t1[b[5]] ^ t2[b[10]] ^ t3[b[15]] ^ k0
        u1 = t0[b[4]] ^ t1[b[9]] ^ t2[b[14]] ^ t3[b[3]] ^ k1
        u2 = t0[b[8]] ^ t1[b[13]] ^ t2[b[2]] ^ t3[b[7]] ^ k2
        u3 = t0[b[12]] ^ t1[b[1]] ^ t2[b[6]] ^ t3[b[11]] ^ k3
        sb = SBOX
        f0, f1, f2, f3 = final
        b = pk(u0, u1, u2, u3)
        return (
            ((sb[b[0]] << 24) | (sb[b[5]] << 16) | (sb[b[10]] << 8) | sb[b[15]]) ^ f0,
            ((sb[b[4]] << 24) | (sb[b[9]] << 16) | (sb[b[14]] << 8) | sb[b[3]]) ^ f1,
            ((sb[b[8]] << 24) | (sb[b[13]] << 16) | (sb[b[2]] << 8) | sb[b[7]]) ^ f2,
            ((sb[b[12]] << 24) | (sb[b[1]] << 16) | (sb[b[6]] << 8) | sb[b[11]]) ^ f3,
        )

    def decrypt_words(self, s0: int, s1: int, s2: int, s3: int) -> tuple[int, int, int, int]:
        """Decrypt one block given as four big-endian column words."""
        first, pairs, penult, final = self._rk_dec
        t0, t1, t2, t3 = _TD0, _TD1, _TD2, _TD3
        pk = _PACK4
        k0, k1, k2, k3 = first
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3, m0, m1, m2, m3 in pairs:
            b = pk(s0, s1, s2, s3)
            u0 = t0[b[0]] ^ t1[b[13]] ^ t2[b[10]] ^ t3[b[7]] ^ k0
            u1 = t0[b[4]] ^ t1[b[1]] ^ t2[b[14]] ^ t3[b[11]] ^ k1
            u2 = t0[b[8]] ^ t1[b[5]] ^ t2[b[2]] ^ t3[b[15]] ^ k2
            u3 = t0[b[12]] ^ t1[b[9]] ^ t2[b[6]] ^ t3[b[3]] ^ k3
            b = pk(u0, u1, u2, u3)
            s0 = t0[b[0]] ^ t1[b[13]] ^ t2[b[10]] ^ t3[b[7]] ^ m0
            s1 = t0[b[4]] ^ t1[b[1]] ^ t2[b[14]] ^ t3[b[11]] ^ m1
            s2 = t0[b[8]] ^ t1[b[5]] ^ t2[b[2]] ^ t3[b[15]] ^ m2
            s3 = t0[b[12]] ^ t1[b[9]] ^ t2[b[6]] ^ t3[b[3]] ^ m3
        k0, k1, k2, k3 = penult
        b = pk(s0, s1, s2, s3)
        u0 = t0[b[0]] ^ t1[b[13]] ^ t2[b[10]] ^ t3[b[7]] ^ k0
        u1 = t0[b[4]] ^ t1[b[1]] ^ t2[b[14]] ^ t3[b[11]] ^ k1
        u2 = t0[b[8]] ^ t1[b[5]] ^ t2[b[2]] ^ t3[b[15]] ^ k2
        u3 = t0[b[12]] ^ t1[b[9]] ^ t2[b[6]] ^ t3[b[3]] ^ k3
        sb = INV_SBOX
        f0, f1, f2, f3 = final
        b = pk(u0, u1, u2, u3)
        return (
            ((sb[b[0]] << 24) | (sb[b[13]] << 16) | (sb[b[10]] << 8) | sb[b[7]]) ^ f0,
            ((sb[b[4]] << 24) | (sb[b[1]] << 16) | (sb[b[14]] << 8) | sb[b[11]]) ^ f1,
            ((sb[b[8]] << 24) | (sb[b[5]] << 16) | (sb[b[2]] << 8) | sb[b[15]]) ^ f2,
            ((sb[b[12]] << 24) | (sb[b[9]] << 16) | (sb[b[6]] << 8) | sb[b[3]]) ^ f3,
        )

    # -- batched CBC cores -------------------------------------------------------
    # The mode loops in :mod:`repro.crypto.modes` delegate here so the round
    # structure (key-schedule tuples, T-tables, final-round S-box) is
    # unpacked once per *message* rather than once per block.  ``padded`` /
    # ``ciphertext`` must already be a multiple of 16 bytes; padding policy
    # stays in the modes layer.

    def cbc_encrypt_blocks(self, iv: bytes, padded: bytes) -> bytes:
        n = len(padded)
        words = struct.unpack(">%dI" % (n // 4), padded)
        out = bytearray(n)
        pack_into = struct.pack_into
        pk = _PACK4
        t0, t1, t2, t3 = _TE0, _TE1, _TE2, _TE3
        sb = SBOX
        first, pairs, penult, final = self._rk_enc
        a0, a1, a2, a3 = first
        n0, n1, n2, n3 = penult
        f0, f1, f2, f3 = final
        p0, p1, p2, p3 = struct.unpack(">4I", iv)
        for i in range(0, n // 4, 4):
            # Chaining XOR fused with the whitening round key.
            s0 = words[i] ^ p0 ^ a0
            s1 = words[i + 1] ^ p1 ^ a1
            s2 = words[i + 2] ^ p2 ^ a2
            s3 = words[i + 3] ^ p3 ^ a3
            for k0, k1, k2, k3, m0, m1, m2, m3 in pairs:
                b = pk(s0, s1, s2, s3)
                u0 = t0[b[0]] ^ t1[b[5]] ^ t2[b[10]] ^ t3[b[15]] ^ k0
                u1 = t0[b[4]] ^ t1[b[9]] ^ t2[b[14]] ^ t3[b[3]] ^ k1
                u2 = t0[b[8]] ^ t1[b[13]] ^ t2[b[2]] ^ t3[b[7]] ^ k2
                u3 = t0[b[12]] ^ t1[b[1]] ^ t2[b[6]] ^ t3[b[11]] ^ k3
                b = pk(u0, u1, u2, u3)
                s0 = t0[b[0]] ^ t1[b[5]] ^ t2[b[10]] ^ t3[b[15]] ^ m0
                s1 = t0[b[4]] ^ t1[b[9]] ^ t2[b[14]] ^ t3[b[3]] ^ m1
                s2 = t0[b[8]] ^ t1[b[13]] ^ t2[b[2]] ^ t3[b[7]] ^ m2
                s3 = t0[b[12]] ^ t1[b[1]] ^ t2[b[6]] ^ t3[b[11]] ^ m3
            b = pk(s0, s1, s2, s3)
            u0 = t0[b[0]] ^ t1[b[5]] ^ t2[b[10]] ^ t3[b[15]] ^ n0
            u1 = t0[b[4]] ^ t1[b[9]] ^ t2[b[14]] ^ t3[b[3]] ^ n1
            u2 = t0[b[8]] ^ t1[b[13]] ^ t2[b[2]] ^ t3[b[7]] ^ n2
            u3 = t0[b[12]] ^ t1[b[1]] ^ t2[b[6]] ^ t3[b[11]] ^ n3
            b = pk(u0, u1, u2, u3)
            p0 = ((sb[b[0]] << 24) | (sb[b[5]] << 16) | (sb[b[10]] << 8) | sb[b[15]]) ^ f0
            p1 = ((sb[b[4]] << 24) | (sb[b[9]] << 16) | (sb[b[14]] << 8) | sb[b[3]]) ^ f1
            p2 = ((sb[b[8]] << 24) | (sb[b[13]] << 16) | (sb[b[2]] << 8) | sb[b[7]]) ^ f2
            p3 = ((sb[b[12]] << 24) | (sb[b[1]] << 16) | (sb[b[6]] << 8) | sb[b[11]]) ^ f3
            pack_into(">4I", out, i * 4, p0, p1, p2, p3)
        return bytes(out)

    def cbc_decrypt_blocks(self, iv: bytes, ciphertext: bytes) -> bytes:
        n = len(ciphertext)
        if n >= _PLANE_MIN_BLOCKS * BLOCK_SIZE:
            return self._cbc_decrypt_planes(iv, ciphertext)
        words = struct.unpack(">%dI" % (n // 4), ciphertext)
        out = bytearray(n)
        pack_into = struct.pack_into
        pk = _PACK4
        t0, t1, t2, t3 = _TD0, _TD1, _TD2, _TD3
        sb = INV_SBOX
        first, pairs, penult, final = self._rk_dec
        a0, a1, a2, a3 = first
        n0, n1, n2, n3 = penult
        f0, f1, f2, f3 = final
        p0, p1, p2, p3 = struct.unpack(">4I", iv)
        for i in range(0, n // 4, 4):
            c0, c1, c2, c3 = words[i], words[i + 1], words[i + 2], words[i + 3]
            s0 = c0 ^ a0
            s1 = c1 ^ a1
            s2 = c2 ^ a2
            s3 = c3 ^ a3
            for k0, k1, k2, k3, m0, m1, m2, m3 in pairs:
                b = pk(s0, s1, s2, s3)
                u0 = t0[b[0]] ^ t1[b[13]] ^ t2[b[10]] ^ t3[b[7]] ^ k0
                u1 = t0[b[4]] ^ t1[b[1]] ^ t2[b[14]] ^ t3[b[11]] ^ k1
                u2 = t0[b[8]] ^ t1[b[5]] ^ t2[b[2]] ^ t3[b[15]] ^ k2
                u3 = t0[b[12]] ^ t1[b[9]] ^ t2[b[6]] ^ t3[b[3]] ^ k3
                b = pk(u0, u1, u2, u3)
                s0 = t0[b[0]] ^ t1[b[13]] ^ t2[b[10]] ^ t3[b[7]] ^ m0
                s1 = t0[b[4]] ^ t1[b[1]] ^ t2[b[14]] ^ t3[b[11]] ^ m1
                s2 = t0[b[8]] ^ t1[b[5]] ^ t2[b[2]] ^ t3[b[15]] ^ m2
                s3 = t0[b[12]] ^ t1[b[9]] ^ t2[b[6]] ^ t3[b[3]] ^ m3
            b = pk(s0, s1, s2, s3)
            u0 = t0[b[0]] ^ t1[b[13]] ^ t2[b[10]] ^ t3[b[7]] ^ n0
            u1 = t0[b[4]] ^ t1[b[1]] ^ t2[b[14]] ^ t3[b[11]] ^ n1
            u2 = t0[b[8]] ^ t1[b[5]] ^ t2[b[2]] ^ t3[b[15]] ^ n2
            u3 = t0[b[12]] ^ t1[b[9]] ^ t2[b[6]] ^ t3[b[3]] ^ n3
            b = pk(u0, u1, u2, u3)
            pack_into(
                ">4I", out, i * 4,
                (((sb[b[0]] << 24) | (sb[b[13]] << 16) | (sb[b[10]] << 8) | sb[b[7]]) ^ f0) ^ p0,
                (((sb[b[4]] << 24) | (sb[b[1]] << 16) | (sb[b[14]] << 8) | sb[b[11]]) ^ f1) ^ p1,
                (((sb[b[8]] << 24) | (sb[b[5]] << 16) | (sb[b[2]] << 8) | sb[b[15]]) ^ f2) ^ p2,
                (((sb[b[12]] << 24) | (sb[b[9]] << 16) | (sb[b[6]] << 8) | sb[b[3]]) ^ f3) ^ p3,
            )
            p0, p1, p2, p3 = c0, c1, c2, c3
        return bytes(out)

    def _plane_round_keys(self, width: int, encrypt: bool = False) -> tuple[int, ...]:
        """Round keys stretched over ``width``-byte planes.

        Each key byte is repeated once per block (decrypt) or lane (encrypt)
        so one big-int XOR adds the round key to all of them.  The cache is
        bounded and evicts oldest-first: message lengths come off the wire,
        and a peer cycling through them must cost a rebuild, not memory.

        The unstretched rows, both schedules once more as one 16-byte string
        per round in plane order (row-major), are built on first use: most
        keys, such as a base exchange's, never reach a plane or lane kernel.
        """
        cache = self._lane_keys if encrypt else self._plane_keys
        keys = cache.get(width)
        if keys is None:
            rows = self._rk_rows
            if rows is None:
                rows = self._rk_rows = tuple(
                    tuple(
                        bytes((flat[r + col] >> shift) & 0xFF
                              for shift in (24, 16, 8, 0) for col in range(4))
                        for r in range(0, len(flat), 4)
                    )
                    for flat in map(_flatten_schedule, (self._rk_dec, self._rk_enc))
                )
            if len(cache) >= _PLANE_KEY_CACHE_MAX:
                del cache[next(iter(cache))]
            keys = cache[width] = tuple(
                int.from_bytes(b"".join([rk[q : q + 1] * width for q in range(16)]), "big")
                for rk in rows[encrypt]
            )
        return keys

    def _cbc_decrypt_planes(self, iv: bytes, ciphertext: bytes) -> bytes:
        """Block-parallel CBC decrypt: every round runs over the whole message.

        The state is one ``bytes`` of 16 planes, row-major: plane ``4*row +
        col`` is ``nb`` bytes, byte ``i`` belonging to block ``i``.  A state
        row is therefore ``4*nb`` contiguous bytes and InvShiftRows rotates
        row ``r`` right by ``r*nb`` bytes: seven slices.  InvMixColumns
        output row ``i`` is ``14*a[i] ^ 11*a[i+1] ^ 13*a[i+2] ^ 9*a[i+3]``
        over the InvSubBytes'd rows ``a``, so the shifted rows are joined in
        four rotations, each translated through its product table, and the
        results XORed as big ints together with the plane-stretched round key.
        """
        n = len(ciphertext)
        nb = n // BLOCK_SIZE
        keys = self._plane_round_keys(nb)
        from_bytes = int.from_bytes
        join = b"".join
        n4, n7, n8, n10, n12, n13 = 4 * nb, 7 * nb, 8 * nb, 10 * nb, 12 * nb, 13 * nb
        mul14, mul11, mul13, mul9 = _TD_MUL14, _TD_MUL11, _TD_MUL13, _TD_MUL9
        s = from_bytes(join([ciphertext[p::16] for p in _PLANE_ORDER]), "big") ^ keys[0]
        for k in keys[1:-1]:
            b = s.to_bytes(n, "big")
            r0, r1a, r1b = b[:n4], b[n7:n8], b[n4:n7]
            r2a, r2b, r3a, r3b = b[n10:n12], b[n8:n10], b[n13:], b[n12:n13]
            s = (
                from_bytes(join((r0, r1a, r1b, r2a, r2b, r3a, r3b)).translate(mul14), "big")
                ^ from_bytes(join((r1a, r1b, r2a, r2b, r3a, r3b, r0)).translate(mul11), "big")
                ^ from_bytes(join((r2a, r2b, r3a, r3b, r0, r1a, r1b)).translate(mul13), "big")
                ^ from_bytes(join((r3a, r3b, r0, r1a, r1b, r2a, r2b)).translate(mul9), "big")
                ^ k
            )
        b = s.to_bytes(n, "big")
        b = join(
            (b[:n4], b[n7:n8], b[n4:n7], b[n10:n12], b[n8:n10], b[n13:], b[n12:n13])
        ).translate(INV_SBOX)
        b = (from_bytes(b, "big") ^ keys[-1]).to_bytes(n, "big")
        out = bytearray(n)
        for q, p in enumerate(_PLANE_ORDER):
            out[p::16] = b[q * nb : (q + 1) * nb]
        # CBC chaining for every block at once: P[i] = D(C[i]) ^ C[i-1].
        return (from_bytes(out, "big") ^ from_bytes(iv + ciphertext[:-16], "big")).to_bytes(n, "big")

    def _cbc_encrypt_lanes(self, ivs: list[bytes], padded: list[bytes]) -> list[bytes]:
        """CBC-encrypt k equal-length messages as the k lanes of one state.

        :meth:`_cbc_decrypt_planes`'s layout with lanes in place of blocks.
        SubBytes∘MixColumns row ``i`` is ``2*a[i] ^ 3*a[i+1] ^ a[i+2] ^ a[i+3]``
        over the ShiftRows'd state ``a``: four rotations of it, translated.
        """
        k, w = len(padded), 16 * len(padded)
        first, *mid, last = self._plane_round_keys(k, encrypt=True)
        # (lane, block, byte) -> (lane, block, plane) -> (block, plane, lane),
        # with each IV as block 0 of its lane.
        n = len(padded[0]) + 16
        chains = b"".join(map(bytes.__add__, ivs, padded))
        by_plane, planes = bytearray(k * n), bytearray(k * n)
        for q, p in enumerate(_PLANE_ORDER):
            by_plane[q::16] = chains[p::16]
        for lane in range(k):
            planes[lane::k] = by_plane[lane * n : (lane + 1) * n]
        from_bytes, join = int.from_bytes, b"".join
        w4, w5, w8, w10, w12, w15 = 4 * k, 5 * k, 8 * k, 10 * k, 12 * k, 15 * k
        mul2, mul3, sbox = _TE_MUL2, _TE_MUL3, SBOX
        c = from_bytes(planes[:w], "big")
        out = []
        for j in range(w, len(planes), w):
            s = from_bytes(planes[j : j + w], "big") ^ c ^ first
            for key in mid:
                b = s.to_bytes(w, "big")
                a = join((b[:w4], b[w5:w8], b[w4:w5], b[w10:w12], b[w8:w10], b[w15:], b[w12:w15]))
                aa = a + a
                s = (
                    from_bytes(a.translate(mul2), "big")
                    ^ from_bytes(aa[w4 : w4 + w].translate(mul3), "big")
                    ^ from_bytes(aa[w8 : w8 + w].translate(sbox), "big")
                    ^ from_bytes(aa[w12 : w12 + w].translate(sbox), "big")
                    ^ key
                )
            b = s.to_bytes(w, "big")
            a = join((b[:w4], b[w5:w8], b[w4:w5], b[w10:w12], b[w8:w10], b[w15:], b[w12:w15]))
            c = from_bytes(a.translate(sbox), "big") ^ last
            out.append(c.to_bytes(w, "big"))
        # ... and back: (block, plane, lane) -> (lane, block, plane) -> bytes.
        ct = join(out)
        by_plane = join([ct[lane::k] for lane in range(k)])
        body = bytearray(len(ct))
        for q, p in enumerate(_PLANE_ORDER):
            body[p::16] = by_plane[q::16]
        n -= 16
        return [bytes(body[lane * n : (lane + 1) * n]) for lane in range(k)]

    # -- byte API ---------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        _AES_BLOCKS.value += 1
        w = int.from_bytes(block, "big")
        out = self.encrypt_words(w >> 96, (w >> 64) & 0xFFFFFFFF, (w >> 32) & 0xFFFFFFFF, w & 0xFFFFFFFF)
        return ((out[0] << 96) | (out[1] << 64) | (out[2] << 32) | out[3]).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        _AES_BLOCKS.value += 1
        w = int.from_bytes(block, "big")
        out = self.decrypt_words(w >> 96, (w >> 64) & 0xFFFFFFFF, (w >> 32) & 0xFFFFFFFF, w & 0xFFFFFFFF)
        return ((out[0] << 96) | (out[1] << 64) | (out[2] << 32) | out[3]).to_bytes(16, "big")
