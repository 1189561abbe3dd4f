"""Crypto fast-path microbenchmark: reference vs optimized primitives.

Measures the schoolbook oracles (``tests/oracles/crypto_reference.py``)
against the shipped T-table/batched/midstate fast path, and writes
``BENCH_crypto.json`` at the repo root.  The headline acceptance number is
the full AES-128-CBC + HMAC-SHA1-96 packet transform (IV derivation +
encrypt + ICV) on a 1400-byte payload, which must improve by >= 5x.  The
``cbc_decrypt_*`` rows are absolute packets/s of the shipped receive path
at three sizes: 64 B runs the scalar loop's side of the four-block
threshold, 1400 B and 16 KiB the block-parallel kernel.  ``cbc_sealed_6x1400B``
is per-packet encrypt through ``CbcSealer``: six bodies sealed under one key,
then one read, so the six are ciphered as lanes of one pass.

Run directly::

    PYTHONPATH=src python benchmarks/bench_crypto.py

or via the pytest wrapper ``benchmarks/test_bench_crypto_fastpath.py``
(which uses shorter repetitions and a conservative floor assertion).
"""

from __future__ import annotations

import json
import pathlib
import struct
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # run as a script: benchmarks/ and tests/ are packages of the root
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks._provenance import provenance
from repro.crypto.aes import AES
from repro.crypto.hmac_kdf import HmacKey
from repro.crypto.modes import CbcSealer, cbc_decrypt, cbc_encrypt
from repro.hip.esp import derive_sa_pair
from repro.net.addresses import ipv6
from repro.net.packet import IPHeader, Packet, TCPHeader
from tests.oracles.crypto_reference import AesRef, cbc_encrypt_ref, hmac_digest_ref

PAYLOAD_BYTES = 1400


def _rate(fn, *, min_time: float, min_iters: int = 3) -> float:
    """Calls/sec of ``fn``, running for at least ``min_time`` seconds."""
    fn()  # warm up (table/midstate construction, bytecode caches)
    iters = 0
    start = time.perf_counter()
    while True:
        fn()
        iters += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_time and iters >= min_iters:
            return iters / elapsed


def bench_aes_block(min_time: float) -> dict:
    aes, aes_ref = AES(bytes(range(16))), AesRef(bytes(range(16)))
    block = bytes(range(16, 32))
    ref = _rate(lambda: aes_ref.encrypt_block(block), min_time=min_time)
    opt = _rate(lambda: aes.encrypt_block(block), min_time=min_time)
    return {"ref_blocks_per_s": ref, "opt_blocks_per_s": opt, "speedup": opt / ref}


def _payload(n: int) -> bytes:
    return bytes(range(256)) * (n // 256) + bytes(n % 256)


def bench_cbc(min_time: float) -> dict:
    aes, aes_ref = AES(bytes(range(16))), AesRef(bytes(range(16)))
    iv = bytes(16)
    payload = _payload(PAYLOAD_BYTES)
    ref = _rate(lambda: cbc_encrypt_ref(aes_ref, iv, payload), min_time=min_time)
    opt = _rate(lambda: cbc_encrypt(aes, iv, payload), min_time=min_time)
    return {"ref_pkts_per_s": ref, "opt_pkts_per_s": opt, "speedup": opt / ref}


def bench_cbc_decrypt(payload_bytes: int, min_time: float) -> dict:
    """Absolute receive-side rate: padding check included, no reference arm."""
    aes = AES(bytes(range(16)))
    iv = bytes(range(16))
    payload = _payload(payload_bytes)
    ciphertext = cbc_encrypt(aes, iv, payload)
    assert cbc_decrypt(aes, iv, ciphertext) == payload
    rate = _rate(lambda: cbc_decrypt(aes, iv, ciphertext), min_time=min_time)
    return {"blocks": len(ciphertext) // 16, "pkts_per_s": rate}


def bench_sealed_cbc(lanes: int, min_time: float) -> dict:
    """Per-packet rate of ``lanes`` bodies sealed under one key, then read."""
    sealer = CbcSealer(AES(bytes(range(16))), HmacKey(bytes(range(20)), "sha1"), 12)
    ivs = [bytes([i]) * 16 for i in range(lanes)]
    payload = _payload(PAYLOAD_BYTES)

    def batch():
        bodies = [sealer.seal(iv, payload, b"") for iv in ivs]
        bodies[0].ciphertext

    return {"lanes": lanes, "pkts_per_s": lanes * _rate(batch, min_time=min_time)}


def bench_hmac(min_time: float) -> dict:
    key = bytes(range(20))
    payload = bytes(PAYLOAD_BYTES)
    hk = HmacKey(key, "sha1")
    ref = _rate(lambda: hmac_digest_ref(key, payload, "sha1"), min_time=min_time)
    opt = _rate(lambda: hk.digest(payload), min_time=min_time)
    return {"ref_ops_per_s": ref, "opt_ops_per_s": opt, "speedup": opt / ref}


def bench_packet_transform(min_time: float) -> dict:
    """The ESP steady-state transform: IV HMAC + AES-128-CBC + HMAC-SHA1-96."""
    enc_key, auth_key = bytes(range(16)), bytes(range(20))
    aes, aes_ref = AES(enc_key), AesRef(enc_key)
    payload = _payload(PAYLOAD_BYTES)
    spi, seq = 0x1000, 42

    def ref_transform():
        iv = hmac_digest_ref(enc_key, struct.pack(">IQ", spi, seq), "sha1")[:16]
        ct = cbc_encrypt_ref(aes_ref, iv, payload)
        return hmac_digest_ref(auth_key, struct.pack(">II", spi, seq) + iv + ct, "sha1")[:12]

    iv_hmac = HmacKey(enc_key, "sha1")
    icv_hmac = HmacKey(auth_key, "sha1")

    def opt_transform():
        iv = iv_hmac.digest(struct.pack(">IQ", spi, seq))[:16]
        ct = cbc_encrypt(aes, iv, payload)
        return icv_hmac.digest(struct.pack(">II", spi, seq) + iv + ct)[:12]

    assert ref_transform() == opt_transform()  # byte-identical by construction
    ref = _rate(ref_transform, min_time=min_time)
    opt = _rate(opt_transform, min_time=min_time)
    return {"ref_pkts_per_s": ref, "opt_pkts_per_s": opt, "speedup": opt / ref}


def bench_esp_end_to_end(packets: int) -> dict:
    """Wall-clock for protect+verify of real payloads through the ESP stack."""
    hit_a, hit_b = ipv6("2001:10::a"), ipv6("2001:10::b")
    keymat = bytes(range(256)) * 2
    out_sa, _ = derive_sa_pair(keymat[:144], 0x10, 0x20, hit_a, hit_b, True)
    _, in_sa = derive_sa_pair(keymat[:144], 0x20, 0x10, hit_b, hit_a, False)
    inner = Packet(
        headers=(
            IPHeader(src=hit_a, dst=hit_b, proto="tcp"),
            TCPHeader(src_port=1000, dst_port=80, seq=5, ack=6),
        ),
        payload=bytes(PAYLOAD_BYTES),
    )
    out_sa.protect(inner)  # warm up
    start = time.perf_counter()
    for _ in range(packets):
        header, ct = out_sa.protect(inner)
        in_sa.verify(header, ct)
    wall = time.perf_counter() - start
    return {"packets": packets, "wall_clock_s": wall, "pkts_per_s": packets / wall}


def run_bench(min_time: float = 1.0, e2e_packets: int = 200) -> dict:
    results = {
        "aes128_block_encrypt": bench_aes_block(min_time),
        "cbc_encrypt_1400B": bench_cbc(min_time),
        "cbc_sealed_6x1400B": bench_sealed_cbc(6, min_time),
        "cbc_decrypt_64B": bench_cbc_decrypt(64, min_time),
        "cbc_decrypt_1400B": bench_cbc_decrypt(PAYLOAD_BYTES, min_time),
        "cbc_decrypt_16KiB": bench_cbc_decrypt(16384, min_time),
        "hmac_sha1_1400B": bench_hmac(min_time),
        "packet_transform_1400B": bench_packet_transform(min_time),
        "esp_end_to_end_1400B": bench_esp_end_to_end(e2e_packets),
    }
    measured = results["packet_transform_1400B"]["speedup"]
    return {
        **provenance(),
        "payload_bytes": PAYLOAD_BYTES,
        "results": results,
        "acceptance": {
            "metric": "packet_transform_1400B.speedup",
            "target_speedup": 5.0,
            "measured_speedup": measured,
            "pass": measured >= 5.0,
        },
    }


def write_report(report: dict) -> pathlib.Path:
    path = REPO_ROOT / "BENCH_crypto.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main() -> int:
    report = run_bench()
    path = write_report(report)
    for name, row in report["results"].items():
        if "speedup" in row:
            print(f"{name:28s} speedup {row['speedup']:6.2f}x")
        else:
            print(f"{name:28s} {row['pkts_per_s']:8.1f} pkt/s")
    acc = report["acceptance"]
    print(f"acceptance: {acc['measured_speedup']:.2f}x vs {acc['target_speedup']}x target "
          f"-> {'PASS' if acc['pass'] else 'FAIL'}  (written to {path})")
    return 0 if acc["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
