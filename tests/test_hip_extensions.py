"""Extension tests: adaptive puzzles (DoS), ESP rekeying, DNSSEC."""

import random

import pytest

from repro.hip.daemon import HipDaemon
from repro.hip.dos import AdaptivePuzzlePolicy, install_adaptive_puzzle
from repro.net.addresses import ipv4
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.sim import Simulator

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


class TestAdaptivePuzzle:
    def test_policy_schedule(self):
        policy = AdaptivePuzzlePolicy(base_k=4, max_k=20, calm_rate=10.0,
                                      k_per_doubling=2)
        assert policy.difficulty(1.0) == 4
        assert policy.difficulty(10.0) == 4
        assert policy.difficulty(40.0) == 8  # two doublings
        assert policy.difficulty(1e9) == 20  # capped

    def test_difficulty_escalates_under_i1_flood(self, hip_pair):
        sim, a, b, da, db = hip_pair
        controller = install_adaptive_puzzle(
            db, AdaptivePuzzlePolicy(base_k=2, calm_rate=5.0, window_s=0.5)
        )
        # Flood I1s from the initiator side (simulating many attackers).
        from repro.hip import packets as hp

        def flood():
            for _ in range(200):
                i1 = da._new_packet(hp.I1, db.hit)
                da._send_control(i1, B)
                yield sim.timeout(0.002)  # 500 I1/s

        proc = sim.process(flood())
        sim.run(until=proc)
        sim.run(until=sim.now + 1)
        assert controller.current_k > 2
        assert controller.escalations >= 1
        assert controller.r1_regenerations >= 2

    def test_difficulty_relaxes_when_calm(self, hip_pair):
        sim, a, b, da, db = hip_pair
        controller = install_adaptive_puzzle(
            db, AdaptivePuzzlePolicy(base_k=2, calm_rate=5.0, window_s=0.5)
        )
        from repro.hip import packets as hp

        def flood_then_calm():
            for _ in range(100):
                da._send_control(da._new_packet(hp.I1, db.hit), B)
                yield sim.timeout(0.002)
            yield sim.timeout(5.0)
            # One calm-period I1 triggers re-evaluation at low rate.
            da._send_control(da._new_packet(hp.I1, db.hit), B)
            yield sim.timeout(0.5)

        proc = sim.process(flood_then_calm())
        sim.run(until=proc)
        assert controller.current_k == 2  # back to base

    def test_association_still_works_with_adaptive_puzzle(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        install_adaptive_puzzle(db, AdaptivePuzzlePolicy(base_k=6))
        assoc = drive(sim, da.associate(db.hit))
        assert assoc.is_established
        # The initiator solved at the controller's base difficulty.
        assert da.meter.ops.get("puzzle.solve") == 1


class TestRekeying:
    def test_rekey_swaps_spis_and_keys(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        assoc_a = da.assocs[db.hit]
        old_spi_in = assoc_a.sa_in.spi
        old_key = assoc_a.sa_out.enc_key.reveal()
        da.rekey(db.hit)
        sim.run(until=sim.now + 3)
        assert assoc_a.rekey_count == 1
        assert assoc_a.sa_in.spi != old_spi_in
        assert assoc_a.sa_out.enc_key.reveal() != old_key
        assoc_b = db.assocs[da.hit]
        assert assoc_b.rekey_count == 1
        assert assoc_a.sa_out.spi == assoc_b.sa_in.spi
        assert assoc_a.sa_out.enc_key.reveal() == assoc_b.sa_in.enc_key.reveal()

    def test_data_flows_after_rekey(self, hip_pair):
        sim, a, b, da, db = hip_pair
        ta, tb = TcpStack(a), TcpStack(b)
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["first"] = yield from conn.recv_bytes(5)
            got["second"] = yield from conn.recv_bytes(5)

        def client():
            conn = yield sim.process(ta.open_connection(db.hit, 80))
            conn.write(b"12345")
            yield sim.timeout(1.0)  # quiesce
            da.rekey(db.hit)
            yield sim.timeout(1.0)  # let the rekey complete
            conn.write(b"67890")

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        assert got.get("first") == b"12345"
        assert got.get("second") == b"67890"

    def test_sequence_counters_reset_on_rekey(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        assoc = da.assocs[db.hit]
        assoc.sa_out.seq = 999
        da.rekey(db.hit)
        sim.run(until=sim.now + 3)
        assert assoc.sa_out.seq == 0  # fresh SA, fresh replay state

    def test_repeated_rekeys(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        for expected in (1, 2, 3):
            da.rekey(db.hit)
            sim.run(until=sim.now + 2)
            assert da.assocs[db.hit].rekey_count == expected
        # Each round derives distinct keys.
        ours = da.assocs[db.hit].sa_out.enc_key.reveal()
        assert ours != db.assocs[da.hit].sa_out.enc_key.reveal()

    def test_rekey_requires_established(self, hip_pair):
        sim, a, b, da, db = hip_pair
        from repro.hip.daemon import HipError

        with pytest.raises(HipError):
            da.rekey(db.hit)


class TestDnssec:
    @pytest.fixture
    def dnssec_net(self, sim):
        from repro.crypto.rsa import RsaKeyPair
        from repro.net.dns import DnsRecord
        from repro.net.dnssec import SignedDnsServer, SignedZone, ValidatingResolver
        from repro.net.udp import UdpStack

        a, b = lan_pair(sim, "resolver", "server")
        ua, ub = UdpStack(a), UdpStack(b)
        keypair = RsaKeyPair.generate(512, random.Random(55))
        zone = SignedZone(keypair)
        zone.add(DnsRecord(name="web.cloud", rtype="A", ttl=30.0,
                           address=ipv4("10.0.0.9")))
        server = SignedDnsServer(b, ub, zone)
        resolver = ValidatingResolver(a, ua, B, trust_anchor=keypair.public)
        return sim, zone, server, resolver, keypair

    def test_validated_resolution(self, dnssec_net, drive):
        sim, zone, server, resolver, keypair = dnssec_net
        records = drive(sim, resolver.query("web.cloud", "A"))
        assert records[0].address == ipv4("10.0.0.9")
        assert resolver.validated == 1
        assert resolver.rejected == 0

    def test_wrong_trust_anchor_rejects(self, dnssec_net, sim):
        from repro.crypto.rsa import RsaKeyPair
        from repro.net.dnssec import DnssecError, ValidatingResolver
        from repro.net.udp import UdpStack

        _sim, zone, server, good_resolver, keypair = dnssec_net
        other_key = RsaKeyPair.generate(512, random.Random(77))
        bad_resolver = ValidatingResolver(
            good_resolver.node, good_resolver.udp, B,
            trust_anchor=other_key.public,
        )

        def flow():
            with pytest.raises(DnssecError):
                yield from bad_resolver.query("web.cloud", "A")
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True
        assert bad_resolver.rejected == 1

    def test_unsigned_server_rejected(self, sim):
        """A validating resolver must fail closed against a plain server."""
        from repro.crypto.rsa import RsaKeyPair
        from repro.net.dns import DnsRecord, DnsServer, Zone
        from repro.net.dnssec import DnssecError, ValidatingResolver
        from repro.net.udp import UdpStack

        a, b = lan_pair(sim, "resolver", "server")
        ua, ub = UdpStack(a), UdpStack(b)
        zone = Zone()
        zone.add(DnsRecord(name="web.cloud", rtype="A", ttl=30.0,
                           address=ipv4("10.0.0.9")))
        DnsServer(b, ub, zone=zone)
        keypair = RsaKeyPair.generate(512, random.Random(55))
        resolver = ValidatingResolver(a, ua, B, trust_anchor=keypair.public)

        def flow():
            with pytest.raises(DnssecError):
                yield from resolver.query("web.cloud", "A")
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True

    def test_malformed_signature_section_is_a_dnssec_error(self, dnssec_net):
        import struct

        from repro.net.dns import encode_response
        from repro.net.dnssec import (
            DnssecError,
            decode_signature_section,
            encode_signed_response,
        )

        _sim, zone, _server, _resolver, _keypair = dnssec_net
        records = zone.lookup("web.cloud", "A")
        base = encode_response(1, records)
        signed = encode_signed_response(zone, 1, records)
        assert decode_signature_section(signed, len(base)) == [
            zone.signature_for(records[0])
        ]
        for malformed in (
            base + b"\x00",  # truncated count
            base + struct.pack(">H", 1) + b"\x00",  # truncated length prefix
            base + struct.pack(">HH", 1, 64) + b"abc",  # 64 declared, 3 present
            signed[:-1],
        ):
            with pytest.raises(DnssecError):
                decode_signature_section(malformed, len(base))

    def test_resolver_counts_truncated_signature_section_as_bogus(self, dnssec_net, sim):
        from repro.net.dns import encode_response
        from repro.net.dnssec import DnssecError

        _sim, zone, server, resolver, _keypair = dnssec_net
        # Cut the answer inside the first signature's length prefix.
        keep = len(encode_response(1, zone.lookup("web.cloud", "A"))) + 3
        sendto = server._sock.sendto
        server._sock.sendto = lambda data, *to: sendto(data[:keep], *to)

        def flow():
            with pytest.raises(DnssecError):
                yield from resolver.query("web.cloud", "A")
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True
        assert resolver.rejected == 1 and resolver.validated == 0

    def test_empty_answer_validates_trivially(self, dnssec_net, drive):
        sim, zone, server, resolver, keypair = dnssec_net
        records = drive(sim, resolver.query("ghost.cloud", "A"))
        assert records == []

    def test_hip_records_signable(self, dnssec_net, drive, session_identities):
        sim, zone, server, resolver, keypair = dnssec_net
        from repro.hip.dnsproxy import publish_hip_host

        class FakeDaemon:
            hit = session_identities["a"].hit
            identity = session_identities["a"]

        publish_hip_host(zone, "hip-host.cloud", FakeDaemon, [ipv4("10.0.0.3")])
        records = drive(sim, resolver.query("hip-host.cloud", "HIP"))
        assert records[0].hit == session_identities["a"].hit
        assert resolver.rejected == 0


from repro.net.topology import lan_pair  # noqa: E402  (fixture helper)
