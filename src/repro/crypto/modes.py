"""Block-cipher modes of operation: CBC and CTR, plus PKCS#7 padding.

CBC + HMAC is the classic ESP transform (and the TLS 1.2 CBC suites); CTR is
provided for completeness and for the virtual-payload fast path (keystream
generation cost without ciphertext storage).

The mode loops are batched: input is unpacked to 32-bit words once with
``struct``, chaining/keystream XOR happens on words, and ciphertext is
packed straight into a preallocated ``bytearray`` — no per-byte generator
expressions, no per-block ``bytes`` round-trips through
``AES.encrypt_block``.  CBC delegates to ``AES.cbc_encrypt_blocks`` /
``cbc_decrypt_blocks`` so the whole message runs inside one round-loop
frame (key schedule and tables bound once per message, the chaining XOR
fused into the whitening round); decryption of four or more blocks runs
block-parallel there, every round over the whole message.  CTR derives each
counter block from two nonce words plus the 64-bit counter split into
words, so no counter buffer is ever (re)built or sliced.

:class:`CbcSealer` defers CBC encrypt-then-MAC to the first read, so bodies
sealed under one key meanwhile are ciphered as lanes of one pass.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.hmac_kdf import HmacKey
from repro.metrics import METRICS

_AES_BLOCKS = METRICS.counter("crypto.aes_blocks")
_AES_BYTES = METRICS.counter("crypto.aes_bytes")
_HMAC_OPS = METRICS.counter("crypto.hmac_ops")
_HMAC_BYTES = METRICS.counter("crypto.hmac_bytes")

_MASK32 = 0xFFFFFFFF
# Fewer same-length pending bodies than this take the scalar chain (DESIGN.md).
_MULTI_MIN_LANES = 3
# The seal that fills a sealer's queue flushes it: unread bodies pin bounded memory.
_SEAL_QUEUE_MAX = 32


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Append PKCS#7 padding (always adds at least one byte)."""
    if not 0 < block_size < 256:
        raise ValueError("block size must be in 1..255")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len

def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip and validate PKCS#7 padding; raises ValueError on malformed input."""
    if not data or len(data) % block_size:
        raise ValueError("ciphertext length is not a multiple of the block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise ValueError("invalid padding length byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("padding bytes are inconsistent")
    return data[:-pad_len]


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt ``plaintext`` (PKCS#7 padded internally)."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes")
    padded = pkcs7_pad(plaintext)
    n = len(padded)
    _AES_BLOCKS.value += n // BLOCK_SIZE
    _AES_BYTES.value += n
    return cipher.cbc_encrypt_blocks(iv, padded)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt and strip PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes")
    n = len(ciphertext)
    if n % BLOCK_SIZE:
        raise ValueError("ciphertext length is not a multiple of the block size")
    _AES_BLOCKS.value += n // BLOCK_SIZE
    _AES_BYTES.value += n
    return pkcs7_unpad(cipher.cbc_decrypt_blocks(iv, ciphertext))


class Sealed:
    """A body :meth:`CbcSealer.seal` booked.  Reading ``ciphertext`` or ``tag``
    ciphers every body pending on the sealer: the bytes are the eager ones."""

    __slots__ = ("_sealer", "_iv", "_body", "_mac_prefix", "_tag")

    def __init__(self, sealer: CbcSealer, iv: bytes, padded: bytes, mac_prefix: bytes) -> None:
        self._sealer, self._iv, self._body, self._mac_prefix = sealer, iv, padded, mac_prefix

    ciphertext = property(lambda self: self._read()._body)
    tag = property(lambda self: self._read()._tag)

    def _read(self) -> Sealed:
        if self._sealer is not None:
            self._sealer._flush()
        return self


class CbcSealer:
    """CBC encrypt-then-MAC under one key, deferred to the first read.

    ``seal`` books the eager transform's counters and queues the body; reading
    any pending :class:`Sealed` flushes the queue, same-length groups as lanes.
    """

    __slots__ = ("_aes", "_mac", "_tag_len", "_pending")

    def __init__(self, aes: AES, mac: HmacKey, tag_len: int) -> None:
        self._aes, self._mac, self._tag_len = aes, mac, tag_len
        self._pending: list[Sealed] = []

    def seal(self, iv: bytes, plaintext: bytes, mac_prefix: bytes) -> Sealed:
        """Pad and queue ``plaintext``; its tag covers ``mac_prefix + iv + ciphertext``."""
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"IV must be {BLOCK_SIZE} bytes")
        padded = pkcs7_pad(plaintext)
        _AES_BLOCKS.value += len(padded) // BLOCK_SIZE
        _AES_BYTES.value += len(padded)
        _HMAC_OPS.value += 1
        _HMAC_BYTES.value += len(mac_prefix) + BLOCK_SIZE + len(padded)
        sealed = Sealed(self, iv, padded, mac_prefix)
        self._pending.append(sealed)
        if len(self._pending) >= _SEAL_QUEUE_MAX:
            self._flush()
        return sealed

    def _flush(self) -> None:
        pending, self._pending = self._pending, []
        while pending:  # one pass per distinct length; a batch has a few
            n = len(pending[0]._body)
            group = [sealed for sealed in pending if len(sealed._body) == n]
            pending = [sealed for sealed in pending if len(sealed._body) != n]
            ivs, bodies = [sealed._iv for sealed in group], [sealed._body for sealed in group]
            if len(group) >= _MULTI_MIN_LANES:
                bodies = self._aes._cbc_encrypt_lanes(ivs, bodies)
            else:
                bodies = map(self._aes.cbc_encrypt_blocks, ivs, bodies)
            for sealed, ciphertext in zip(group, bodies):
                sealed._body, sealed._sealer = ciphertext, None
                tag = self._mac._digest(sealed._mac_prefix + sealed._iv + ciphertext)
                sealed._tag = tag[: self._tag_len]


def ctr_keystream_xor(cipher: AES, nonce: bytes, data: bytes, counter0: int = 0) -> bytes:
    """CTR mode: XOR ``data`` with the AES-CTR keystream.

    ``nonce`` is the first 8 bytes of the counter block; the remaining 8
    bytes are a big-endian block counter starting at ``counter0``.  Encryption
    and decryption are the same operation.
    """
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    n = len(data)
    if n == 0:
        return b""
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    _AES_BLOCKS.value += nblocks
    _AES_BYTES.value += n
    n0, n1 = struct.unpack(">2I", nonce)
    enc = cipher.encrypt_words
    out = bytearray(n)
    pack_into = struct.pack_into
    full = n - (n % BLOCK_SIZE)
    counter = counter0
    if full:
        words = struct.unpack_from(">%dI" % (full // 4), data)
        for i in range(0, full // 4, 4):
            k0, k1, k2, k3 = enc(n0, n1, (counter >> 32) & _MASK32, counter & _MASK32)
            pack_into(
                ">4I", out, i * 4,
                words[i] ^ k0, words[i + 1] ^ k1, words[i + 2] ^ k2, words[i + 3] ^ k3,
            )
            counter += 1
    rem = n - full
    if rem:
        k = struct.pack(">4I", *enc(n0, n1, (counter >> 32) & _MASK32, counter & _MASK32))
        tail = data[full:]
        out[full:] = (
            int.from_bytes(tail, "big") ^ int.from_bytes(k[:rem], "big")
        ).to_bytes(rem, "big")
    return bytes(out)
