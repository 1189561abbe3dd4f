"""Pytest wrapper around the crypto fast-path microbenchmark.

Runs :mod:`benchmarks.bench_crypto` with shortened repetitions and asserts a
conservative floor (2x) on the packet-transform speedup so CI catches a
fast-path regression without being flaky on loaded machines.  The committed
``BENCH_crypto.json`` is produced by the direct, longer run
(``python benchmarks/bench_crypto.py``, 5x acceptance target).
"""

from __future__ import annotations

from benchmarks.bench_crypto import run_bench, write_report

# Loaded shared CI runners can halve throughput; the direct run demonstrates
# the real >= 5x, this floor only guards against losing the fast path.
FLOOR = 2.0


def test_crypto_fastpath_speedup():
    report = run_bench(min_time=0.25, e2e_packets=50)
    write_report(report)
    results = report["results"]
    assert results["packet_transform_1400B"]["speedup"] >= FLOOR
    assert results["aes128_block_encrypt"]["speedup"] >= 1.5
    assert results["hmac_sha1_1400B"]["speedup"] >= 2.0
    assert results["esp_end_to_end_1400B"]["pkts_per_s"] > 0
    # Same run, same host, no reference arm: decrypting an MSS packet runs the
    # block-parallel kernel (~7x the serial encrypt chain); falling under 3x
    # means the receive path is back on the per-block loop.
    assert (
        results["cbc_decrypt_1400B"]["pkts_per_s"]
        >= 3.0 * results["cbc_encrypt_1400B"]["opt_pkts_per_s"]
    )
    # Same run: six MSS bodies sealed under one key are ciphered as lanes of
    # one pass (~2.3x the scalar chain per packet); under 1.5x means the
    # sealer is back on per-packet encryption.
    assert (
        results["cbc_sealed_6x1400B"]["pkts_per_s"]
        >= 1.5 * results["cbc_encrypt_1400B"]["opt_pkts_per_s"]
    )
