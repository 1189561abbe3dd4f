"""A HOST_ID whose key does not decode is a counted drop, never a crash.

The attacker is a co-resident peer that computes everything an honest
initiator (or responder) would -- HIT, puzzle solution, Diffie-Hellman and
control HMAC -- around a HOST_ID of ``b"RSA:\\x00"``, a truncated RSA key.
Its HIT is the hash of those bytes, so the HIT<->HI binding check passes
and the packet reaches the signature step, which prices and verifies the
key.  The victim must count the packet in ``drops_policy``, hold no
association for the attacker, and still complete a base exchange with an
honest peer afterwards.
"""

import random

from repro.crypto.dh import MODP_GROUPS, DHKeyPair
from repro.crypto.hmac_kdf import HmacKey, hip_keymat
from repro.crypto.puzzle import Puzzle, solve_puzzle
from repro.hip import packets as hp
from repro.hip.daemon import KEYMAT_BYTES, HipState
from repro.hip.identity import hit_from_public_key
from repro.net.addresses import ipv4

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")
HOSTILE_HI = b"RSA:\x00"
HOSTILE_HIT = hit_from_public_key(HOSTILE_HI)


def hostile_i2(victim, rng: random.Random) -> hp.HipPacket:
    """An I2 that is valid in every respect but its HOST_ID key, built from
    the victim's R1 (which any sender of an I1 receives)."""
    r1 = victim._r1_template
    k, _lifetime, opaque, puzzle_i = hp.parse_puzzle(r1.get(hp.PUZZLE))
    group_id, responder_pub = hp.parse_dh(r1.get(hp.DIFFIE_HELLMAN))
    j, _ = solve_puzzle(Puzzle(i=puzzle_i, k=k), HOSTILE_HIT.packed(), victim.hit.packed(), rng)
    dh = DHKeyPair.generate(MODP_GROUPS[group_id], rng)
    secret = dh.shared_secret(int.from_bytes(responder_pub, "big"))
    keymat = hip_keymat(
        secret + puzzle_i + j, HOSTILE_HIT.packed(), victim.hit.packed(), KEYMAT_BYTES
    )
    i2 = hp.HipPacket(packet_type=hp.I2, sender_hit=HOSTILE_HIT, receiver_hit=victim.hit)
    i2.add(hp.SOLUTION, hp.build_solution(k, opaque, puzzle_i, j))
    i2.add(hp.DIFFIE_HELLMAN, hp.build_dh(group_id, dh.public_bytes()))
    i2.add(hp.ESP_INFO, hp.build_esp_info(0, 0x5EED))
    i2.add(hp.HOST_ID, hp.build_host_id(HOSTILE_HI))
    i2.add(hp.HMAC_PARAM, HmacKey(keymat[:20], "sha1").digest(i2.bytes_for_param(hp.HMAC_PARAM)))
    i2.add(hp.HIP_SIGNATURE, bytes(128))
    return i2


def hostile_r1(initiator, honest_r1: hp.HipPacket) -> hp.HipPacket:
    """An R1 from the hostile HIT, carrying an honest responder's puzzle and
    DH value around the undecodable HOST_ID."""
    r1 = hp.HipPacket(packet_type=hp.R1, sender_hit=HOSTILE_HIT, receiver_hit=initiator.hit)
    for code in (hp.PUZZLE, hp.DIFFIE_HELLMAN, hp.HIP_TRANSFORM):
        r1.add(code, honest_r1.get(code))
    r1.add(hp.HOST_ID, hp.build_host_id(HOSTILE_HI))
    r1.add(hp.HIP_SIGNATURE, bytes(128))
    return r1


def test_i2_with_undecodable_host_id_is_dropped_and_the_responder_lives_on(hip_pair, drive):
    sim, a, b, da, db = hip_pair
    before = db.drops_policy
    # The attacker sends from a's address; its HIT is its own.
    da._send_control(hostile_i2(db, random.Random(5)), B)
    sim.run(until=1.0)
    assert db.drops_policy == before + 1
    assert HOSTILE_HIT not in db.assocs
    assoc = drive(sim, da.associate(db.hit))
    assert assoc.is_established
    assert db.assocs[da.hit].is_established and db.bex_completed == 1


def test_r1_with_undecodable_host_id_is_dropped_and_the_initiator_lives_on(hip_pair, drive):
    sim, a, b, da, db = hip_pair
    # The initiator dials the hostile HIT; the attacker, on b's address,
    # answers the I1 with its R1.
    da.add_peer(HOSTILE_HIT, [B])
    sim.process(da.associate(HOSTILE_HIT, timeout=1.0))
    sim.run(until=0.1)
    assert da.assocs[HOSTILE_HIT].state == HipState.I1_SENT
    before = da.drops_policy
    db._send_control(hostile_r1(da, db._r1_template), A)
    sim.run(until=0.5)
    assert da.drops_policy == before + 1
    assert da.assocs[HOSTILE_HIT].state == HipState.I1_SENT
    assert da.assocs[HOSTILE_HIT].peer_key is None
    assoc = drive(sim, da.associate(db.hit))
    assert assoc.is_established and da.bex_completed == 1
