"""Adversarial HIP tests: forged/tampered control packets must be ignored,
and the paper's cross-family handover claims must hold."""

import random

import pytest

from repro.crypto.hmac_kdf import hmac_digest
from repro.hip import packets as hp
from repro.hip.daemon import HipConfig, HipDaemon
from repro.hip.identity import HostIdentity, hit_from_public_key
from repro.net.addresses import ipv4, ipv6, prefix
from repro.net.icmp import IcmpStack, ping
from repro.net.topology import lan_pair, wire
from repro.sim import Simulator

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


class TestForgedControlPackets:
    def test_i2_with_wrong_puzzle_solution_ignored(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        # Let the real exchange reach I2-SENT, then race a forged I2 with a
        # bogus J.  The responder must never establish from the forgery.
        forged = hp.HipPacket(packet_type=hp.I2, sender_hit=da.hit,
                              receiver_hit=db.hit)
        forged.add(hp.SOLUTION, hp.build_solution(
            db._puzzle.k, 0, db._puzzle.i, b"\x00" * 8))
        forged.add(hp.DIFFIE_HELLMAN, hp.build_dh(1, b"\x02" * 96))
        forged.add(hp.ESP_INFO, hp.build_esp_info(0, 0xBAD))
        forged.add(hp.HOST_ID, hp.build_host_id(da.identity.public_key_bytes))
        forged.add(hp.HMAC_PARAM, b"\x00" * 20)
        forged.add(hp.HIP_SIGNATURE, b"\x00" * 64)
        da._send_control(forged, B)
        sim.run(until=2)
        assoc = db.assocs.get(da.hit)
        assert assoc is None or not assoc.is_established

    def test_i2_with_mismatched_host_id_ignored(self, hip_pair, session_identities):
        sim, a, b, da, db = hip_pair
        # HOST_ID whose HIT does not match the sender HIT: identity theft.
        from repro.crypto.puzzle import solve_puzzle

        j, _ = solve_puzzle(db._puzzle, da.hit.packed(), db.hit.packed(),
                            random.Random(1))
        forged = hp.HipPacket(packet_type=hp.I2, sender_hit=da.hit,
                              receiver_hit=db.hit)
        forged.add(hp.SOLUTION, hp.build_solution(db._puzzle.k, 0, db._puzzle.i, j))
        forged.add(hp.DIFFIE_HELLMAN, hp.build_dh(1, b"\x02" * 96))
        forged.add(hp.ESP_INFO, hp.build_esp_info(0, 0xBAD))
        # c's key, a's HIT: must be rejected by the HIT<->HI binding check.
        forged.add(hp.HOST_ID, hp.build_host_id(
            session_identities["c"].public_key_bytes))
        forged.add(hp.HMAC_PARAM, b"\x00" * 20)
        forged.add(hp.HIP_SIGNATURE, b"\x00" * 64)
        da._send_control(forged, B)
        sim.run(until=2)
        assoc = db.assocs.get(da.hit)
        assert assoc is None or not assoc.is_established

    def test_r2_with_bad_hmac_ignored(self, hip_pair):
        """An attacker cannot complete the exchange with a forged R2."""
        sim, a, b, da, db = hip_pair
        # Break the responder so it never sends its own (valid) R2.
        db._handle_i2 = lambda i2, ip: iter(())  # type: ignore[assignment]
        proc = sim.process(da.associate(db.hit, timeout=4.0))

        def forge_r2():
            yield sim.timeout(1.0)  # a is in I2-SENT by now
            forged = hp.HipPacket(packet_type=hp.R2, sender_hit=db.hit,
                                  receiver_hit=da.hit)
            forged.add(hp.ESP_INFO, hp.build_esp_info(0, 0xE71))
            forged.add(hp.HMAC_PARAM, b"\x11" * 20)
            forged.add(hp.HIP_SIGNATURE, b"\x22" * 64)
            db._send_control(forged, A)

        sim.process(forge_r2())
        from repro.hip.daemon import HipError

        with pytest.raises((HipError, RuntimeError)):
            sim.run(until=proc)
        assert not da.assocs[db.hit].is_established

    def test_forged_close_does_not_kill_association(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        forged = hp.HipPacket(packet_type=hp.CLOSE, sender_hit=da.hit,
                              receiver_hit=db.hit)
        forged.add(hp.ECHO_REQUEST_SIGNED, b"\x00" * 8)
        forged.add(hp.HMAC_PARAM, b"\x00" * 20)  # attacker lacks the HMAC key
        da._send_control(forged, B)
        sim.run(until=sim.now + 2)
        assert db.assocs[da.hit].is_established  # CLOSE ignored

    def test_rekey_with_bad_signature_ignored(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        assoc_b = db.assocs[da.hit]
        old_spi = assoc_b.sa_in.spi
        # HMAC valid (attacker on-path replaying key material can't have it;
        # here we simulate a *partially* forged packet: valid HMAC structure
        # cannot be built without the key, so use garbage and expect a drop).
        forged = hp.HipPacket(packet_type=hp.UPDATE, sender_hit=da.hit,
                              receiver_hit=db.hit)
        forged.add(hp.ESP_INFO, hp.build_esp_info(old_spi, 0xF00D, keymat_index=1))
        forged.add(hp.SEQ, hp.build_seq(12345))
        forged.add(hp.HMAC_PARAM, b"\x00" * 20)
        forged.add(hp.HIP_SIGNATURE, b"\x00" * 64)
        da._send_control(forged, B)
        sim.run(until=sim.now + 2)
        assert assoc_b.sa_in.spi == old_spi
        assert assoc_b.rekey_count == 0

    def test_esp_injection_with_unknown_spi_dropped(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        from repro.net.packet import ESPHeader, Packet

        spoofed = Packet(headers=(ESPHeader(spi=0xDEADBEEF, seq=1),), payload=b"x")
        a.send_ip(B, "esp", spoofed)
        sim.run(until=sim.now + 1)
        assert db.drops_esp >= 1


class TestCrossFamilyHandover:
    def test_v4_to_v6_locator_handover(self, sim, session_identities, drive):
        """§IV-C: HIP 'supports IPv4-IPv6 handovers' — outer family flips
        under a live association while applications keep their HIT view."""
        a, b = lan_pair(sim, "a", "b")
        # Dual-stack the existing link.
        ia, ib = a.interface("eth0"), b.interface("eth0")
        va, vb = ipv6("2001:db8::1"), ipv6("2001:db8::2")
        ia.add_address(va)
        ib.add_address(vb)
        a.routes.add(prefix("2001:db8::/64"), ia)
        b.routes.add(prefix("2001:db8::/64"), ib)
        da = HipDaemon(a, session_identities["a"], rng=random.Random(1))
        db_ = HipDaemon(b, session_identities["b"], rng=random.Random(2))
        da.add_peer(db_.hit, [B])
        db_.add_peer(da.hit, [A])
        icmp_a, _ = IcmpStack(a), IcmpStack(b)

        drive(sim, da.associate(db_.hit))
        assert db_.assocs[da.hit].peer_locator.family == 4

        da.move_to(va)  # announce the IPv6 locator
        sim.run(until=sim.now + 3)
        assert db_.assocs[da.hit].peer_locator == va  # family flipped

        rtts = drive(sim, ping(icmp_a, db_.hit, count=2, interval=0.01))
        assert all(r is not None for r in rtts)


class TestMalformedParametersNeverCrashTheDaemon:
    """A typed parameter that does not parse is one more malformed packet:
    dropped and counted, with the control worker still serving."""

    def test_unauthenticated_i1_with_unknown_from_family_is_dropped(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        i1 = hp.HipPacket(packet_type=hp.I1, sender_hit=da.hit, receiver_hit=db.hit)
        i1.add(hp.FROM, b"\x00" * 12 + A.packed() + b"\x09")  # address family 9
        da._send_control(i1, B)
        sim.run(until=sim.now + 1)  # a crashed 'hipd-ctl-b' would raise here
        assert db.drops_policy == 1
        # The responder still answers the next well-formed I1.
        drive(sim, da.associate(db.hit))
        assert db.assocs[da.hit].is_established

    def test_i2_with_short_solution_is_dropped(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        i2 = hp.HipPacket(packet_type=hp.I2, sender_hit=da.hit, receiver_hit=db.hit)
        i2.add(hp.SOLUTION, b"\x01\x02\x03")
        i2.add(hp.DIFFIE_HELLMAN, hp.build_dh(1, b"\x02" * 96))
        i2.add(hp.ESP_INFO, hp.build_esp_info(0, 0xBAD))
        i2.add(hp.HOST_ID, hp.build_host_id(da.identity.public_key_bytes))
        i2.add(hp.HMAC_PARAM, b"\x00" * 20)
        i2.add(hp.HIP_SIGNATURE, b"\x00" * 64)
        da._send_control(i2, B)
        sim.run(until=sim.now + 1)
        assert db.drops_policy == 1 and da.hit not in db.assocs
        drive(sim, da.associate(db.hit))

    def test_update_with_unknown_locator_family_from_peer_is_ignored(self, hip_pair, drive):
        import struct

        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        assoc = da.assocs[db.hit]
        assoc.update_id += 1
        update = da._new_packet(hp.UPDATE, db.hit)
        update.add(hp.LOCATOR, struct.pack(">HBf", 1, 9, 120.0) + b"\x00" * 16)
        update.add(hp.SEQ, hp.build_seq(assoc.update_id))
        da._finalize_and_send(update, assoc, sign=True)  # authentic, but malformed
        sim.run(until=sim.now + 1)
        peer = db.assocs[da.hit]
        assert peer.is_established and peer.peer_locator == A
        assert peer.pending_update is None and db.drops_policy == 1
        # The worker survived: a well-formed readdress still goes through.
        da.move_to(A)
        sim.run(until=sim.now + 1)
        assert db.assocs[da.hit].peer_locator == A
