"""Direct drive: each layer's public functions timed alone.

No simulator is wrapped around a layer unless the layer *is* the simulator
(engine, link, shard codec).  Every rate is an absolute calls-per-host-second
figure taken from at least ``budget_s`` of calls after a warm-up, reported with
its iteration count — a crypto or engine change can iterate on this table in
seconds (``python3 bench/run.py --direct``) before paying for the workloads.
Inputs are fixed, not seeded: the table describes the code, not a workload.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from repro.crypto.aes import AES
from repro.crypto.dh import MODP_GROUPS, DHKeyPair
from repro.crypto.ecc import EcdsaKeyPair
from repro.crypto.hmac_kdf import HmacKey
from repro.crypto.modes import cbc_encrypt
from repro.crypto.puzzle import Puzzle, solve_puzzle
from repro.crypto.rsa import RsaKeyPair
from repro.hip import packets as hp
from repro.hip.esp import derive_sa_pair
from repro.hip.identity import hit_from_public_key
from repro.net.packet import IPHeader, Packet, UDPHeader, VirtualPayload
from repro.net.topology import lan_pair
from repro.sim import Simulator
from repro.sim.shard import Envelope, decode_envelopes, encode_envelopes


def _rate(call: Callable[[], int], budget_s: float) -> tuple[float, int]:
    """(operations per host second, operations timed).

    ``call()`` does a batch of work and returns how many operations it was.
    """
    call()  # warm-up: bytecode caches, lazily built tables
    ops = 0
    start = time.perf_counter()
    while True:
        ops += call()
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return ops / elapsed, ops


# -- sim.engine ----------------------------------------------------------------


def _call_later_chain(n_events: int = 20_000) -> int:
    sim = Simulator()
    remaining = n_events

    def tick():
        nonlocal remaining
        remaining -= 1
        if remaining:
            sim.call_later(1e-6, tick)

    sim.call_later(1e-6, tick)
    sim.run()
    sim.close()
    return n_events


def _process_ticker(n_events: int = 20_000) -> int:
    sim = Simulator()

    def ticker():
        timeout = sim.timeout
        for _ in range(n_events):
            yield timeout(1e-6)

    sim.process(ticker())
    sim.run()
    sim.close()
    return n_events


# -- net.link ------------------------------------------------------------------


def _link_sender() -> Callable[[], int]:
    sim = Simulator()
    node_a, node_b = lan_pair(sim, queue_packets=256)
    received = [0]

    def sink(node, packet, iface):
        received[0] += 1

    node_b.register_protocol("bench", sink)
    iface = node_a.interfaces[0]
    src, dst = node_a.addresses()[0], node_b.addresses()[0]
    packet = Packet(
        headers=(IPHeader(src=src, dst=dst, proto="bench"),),
        payload=VirtualPayload(1400, tag="bench"),
    )
    burst = 200  # below the egress queue's capacity: nothing is dropped

    def call() -> int:
        before = received[0]
        for _ in range(burst):
            iface.send(packet)
        sim.run()
        delivered = received[0] - before
        if delivered != burst:
            raise AssertionError(f"link delivered {delivered} of {burst} packets")
        return burst

    return call


# -- hip -----------------------------------------------------------------------


def _i2_bytes(rsa: RsaKeyPair) -> bytes:
    hit_i = hit_from_public_key(rsa.public.to_bytes())
    hit_r = hit_from_public_key(b"responder" + rsa.public.to_bytes())
    i2 = hp.HipPacket(packet_type=hp.I2, sender_hit=hit_i, receiver_hit=hit_r)
    i2.add(hp.ESP_INFO, hp.build_esp_info(0, 0x1234))
    i2.add(hp.SOLUTION, hp.build_solution(8, 7, bytes(8), bytes(8)))
    i2.add(hp.DIFFIE_HELLMAN, hp.build_dh(1, bytes(range(96))))
    i2.add(hp.HIP_TRANSFORM, hp.build_transform([hp.SUITE_AES_CBC_HMAC_SHA1]))
    i2.add(hp.HOST_ID, hp.build_host_id(rsa.public.to_bytes()))
    i2.add(hp.HMAC_PARAM, bytes(20))
    i2.add(hp.HIP_SIGNATURE, bytes(rsa.public.byte_length))
    return i2.serialize()


def _esp_roundtrip(payload) -> Callable[[], int]:
    hit_a = hit_from_public_key(b"bench-a")
    hit_b = hit_from_public_key(b"bench-b")
    keymat = bytes(range(72))
    out_sa, _ = derive_sa_pair(keymat, 0x1000, 0x2000, hit_a, hit_b, True)
    _, in_sa = derive_sa_pair(keymat, 0x2000, 0x1000, hit_b, hit_a, False)
    inner = Packet(
        headers=(IPHeader(src=hit_a, dst=hit_b, proto="udp"),
                 UDPHeader(src_port=1, dst_port=2)),
        payload=payload,
    )

    def call() -> int:
        header, ciphertext = out_sa.protect(inner)
        if in_sa.verify(header, ciphertext) is not inner:
            raise AssertionError("ESP round trip returned another packet")
        return 1

    return call


# -- sim.shard -----------------------------------------------------------------


def _frame_codec() -> Callable[[], int]:
    hit_a = hit_from_public_key(b"bench-a")
    hit_b = hit_from_public_key(b"bench-b")
    envelopes = [
        Envelope(
            arrival=0.005 + i * 1e-6, src_shard="z0", src_index=0, seq=i,
            dst_shard="z1", port_id="x:z0->z1",
            packet=Packet(
                headers=(IPHeader(src=hit_a, dst=hit_b, proto="udp"),
                         UDPHeader(src_port=7100, dst_port=7100)),
                payload=b"heartbeat-%04d" % i,
            ),
        )
        for i in range(16)
    ]

    def call() -> int:
        decoded, _offset = decode_envelopes(encode_envelopes(envelopes))
        if len(decoded) != len(envelopes):
            raise AssertionError("frame codec lost envelopes")
        return len(envelopes)

    return call


def _once(fn: Callable[[], object]) -> Callable[[], int]:
    def call() -> int:
        fn()
        return 1
    return call


def measure(budget_s: float = 1.0) -> dict[str, dict]:
    """Every direct-drive rate: name → {"value", "unit", "iterations"}."""
    rng = random.Random(0xBE7C)
    rsa = RsaKeyPair.generate(1024, rng)
    message = bytes(range(64))
    signature = rsa.sign(message)
    if not rsa.public.verify(message, signature):
        raise AssertionError("RSA signature does not verify")
    dh_a = DHKeyPair.generate(MODP_GROUPS[1], rng)
    dh_b = DHKeyPair.generate(MODP_GROUPS[1], rng)
    ecdsa = EcdsaKeyPair.generate(rng)
    puzzle = Puzzle.fresh(8, rng)
    aes = AES(bytes(range(16)))
    hmac_key = HmacKey(bytes(range(20)), "sha1")
    block_1400 = bytes(range(256)) * 5 + bytes(120)
    i2 = _i2_bytes(rsa)
    if hp.HipPacket.parse(i2).serialize() != i2:
        raise AssertionError("I2 does not survive parse + serialize")

    table: dict[str, Callable[[], int]] = {
        "sim.engine.call_later_events_per_s": _call_later_chain,
        "sim.engine.process_events_per_s": _process_ticker,
        "net.link.send_packets_per_s": _link_sender(),
        "hip.daemon.i2_parse_serialize_per_s":
            _once(lambda: hp.HipPacket.parse(i2).serialize()),
        "hip.esp.virtual_roundtrip_per_s":
            _esp_roundtrip(VirtualPayload(1400, tag="bench")),
        "hip.esp.real_1400B_roundtrip_per_s": _esp_roundtrip(block_1400),
        "hip.esp.real_64B_roundtrip_per_s": _esp_roundtrip(bytes(range(64))),
        "crypto.aes_cbc_1400B_per_s":
            _once(lambda: cbc_encrypt(aes, bytes(16), block_1400)),
        "crypto.hmac_sha1_1400B_per_s": _once(lambda: hmac_key.digest(block_1400)),
        "crypto.rsa1024_sign_per_s": _once(lambda: rsa.sign(message)),
        "crypto.rsa1024_verify_per_s":
            _once(lambda: rsa.public.verify(message, signature)),
        "crypto.dh_shared_per_s": _once(lambda: dh_a.shared_secret(dh_b.public)),
        "crypto.ecdsa_p256_sign_per_s": _once(lambda: ecdsa.sign(message, rng)),
        "crypto.puzzle_k8_solve_per_s":
            _once(lambda: solve_puzzle(puzzle, bytes(16), bytes(16), rng)),
        "sim.shard.frame_codec_envelopes_per_s": _frame_codec(),
    }
    out = {}
    for name, call in table.items():
        value, iterations = _rate(call, budget_s)
        out[name] = {"value": value, "unit": "1/s", "iterations": iterations}
    return out
