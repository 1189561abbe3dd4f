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
"""

from __future__ import annotations

import struct

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.metrics import METRICS

_AES_BLOCKS = METRICS.counter("crypto.aes_blocks")
_AES_BYTES = METRICS.counter("crypto.aes_bytes")

_MASK32 = 0xFFFFFFFF


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
