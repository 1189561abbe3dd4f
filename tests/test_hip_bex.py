"""HIP base exchange and data-path integration tests."""

import random

import pytest

from repro.hip.daemon import HipConfig, HipDaemon, HipError
from repro.hip.esp import EspMode
from repro.hip.identity import HostIdentity
from repro.net.addresses import ipv4, is_lsi
from repro.net.icmp import IcmpStack, ping
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.sim import Simulator

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


class TestBaseExchange:
    def test_association_establishes(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        assoc = drive(sim, da.associate(db.hit))
        assert assoc.is_established
        assert da.assocs[db.hit].role == "initiator"
        assert db.assocs[da.hit].role == "responder"
        assert da.bex_completed == 1 and db.bex_completed == 1

    def test_sas_installed_with_matching_spis(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        aa = da.assocs[db.hit]
        bb = db.assocs[da.hit]
        assert aa.sa_out.spi == bb.sa_in.spi
        assert aa.sa_in.spi == bb.sa_out.spi
        assert aa.sa_out.enc_key.reveal() == bb.sa_in.enc_key.reveal()

    def test_bex_message_sequence_costs_counted(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        # Initiator: verify R1, solve puzzle, DH x2, sign I2, verify R2.
        assert da.meter.ops.get("asym.verify.r1") == 1
        assert da.meter.ops.get("puzzle.solve") == 1
        assert da.meter.ops.get("asym.sign.i2") == 1
        assert da.meter.ops.get("asym.verify.r2") == 1
        # Responder: puzzle verify, DH, verify I2, sign R2.
        assert db.meter.ops.get("puzzle.verify") == 1
        assert db.meter.ops.get("asym.verify.i2") == 1
        assert db.meter.ops.get("asym.sign.r2") == 1

    def test_associate_unknown_peer_fails(self, hip_pair):
        sim, a, b, da, db = hip_pair
        from repro.hip.identity import hit_from_public_key

        stranger = hit_from_public_key(b"nobody")

        def flow():
            with pytest.raises(HipError):
                yield from da.associate(stranger, timeout=5.0)
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True

    def test_associate_unreachable_locator_times_out(self, hip_pair):
        sim, a, b, da, db = hip_pair
        da.hosts[db.hit] = [ipv4("10.0.0.250")]  # nobody there

        def flow():
            with pytest.raises(HipError):
                yield from da.associate(db.hit, timeout=10.0)
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True

    def test_concurrent_associations_to_same_peer_share_state(self, hip_pair):
        sim, a, b, da, db = hip_pair

        def one():
            assoc = yield from da.associate(db.hit)
            return assoc

        p1 = sim.process(one())
        p2 = sim.process(one())
        sim.run(until=p1)
        sim.run(until=p2)
        assert da.bex_completed == 1  # only one exchange ran

    def test_second_association_reuses_established(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        drive(sim, da.associate(db.hit))
        assert da.bex_completed == 1

    def test_ecdsa_identities_interoperate(self, sim, session_identities):
        a, b = lan_pair(sim, "a", "b")
        ident_a = session_identities["ecdsa"]
        ident_b = session_identities["c"]
        da = HipDaemon(a, ident_a, rng=random.Random(1))
        db = HipDaemon(b, ident_b, rng=random.Random(2))
        da.add_peer(db.hit, [B])
        db.add_peer(da.hit, [A])
        proc = sim.process(da.associate(db.hit))
        assoc = sim.run(until=proc)
        assert assoc.is_established


class TestDataPath:
    def test_tcp_over_hits_real_payload(self, hip_pair):
        sim, a, b, da, db = hip_pair
        ta, tb = TcpStack(a), TcpStack(b)
        got = {}

        def server():
            listener = tb.listen(8080)
            conn = yield listener.accept()
            got["request"] = yield from conn.recv_bytes(12)
            conn.write(b"hip response")

        def client():
            conn = yield sim.process(ta.open_connection(db.hit, 8080))
            conn.write(b"over the HIT")
            got["reply"] = yield from conn.recv_bytes(12)

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        assert got == {"request": b"over the HIT", "reply": b"hip response"}
        # Data plane actually ran: SAs counted protected/verified packets.
        assert da.assocs[db.hit].sa_out.packets_protected > 3

    def test_tcp_over_lsi(self, hip_pair):
        sim, a, b, da, db = hip_pair
        ta, tb = TcpStack(a), TcpStack(b)
        lsi_b = da.lsi_for_peer(db.hit)
        assert is_lsi(lsi_b)
        got = {}

        def server():
            listener = tb.listen(8080)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(8)
            # The responder sees its own LSI view of the initiator.
            got["remote"] = conn.remote_addr

        def client():
            conn = yield sim.process(ta.open_connection(lsi_b, 8080))
            conn.write(b"via lsi!")

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        assert got["data"] == b"via lsi!"
        assert is_lsi(got["remote"])

    def test_ping_over_hit_and_lsi(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        icmp_a, _ = IcmpStack(a), IcmpStack(b)

        def flow():
            hit_rtts = yield sim.process(ping(icmp_a, db.hit, count=3, interval=0.01))
            lsi_rtts = yield sim.process(
                ping(icmp_a, da.lsi_for_peer(db.hit), count=3, interval=0.01)
            )
            return hit_rtts, lsi_rtts

        hit_rtts, lsi_rtts = drive(sim, flow())
        assert all(r is not None for r in hit_rtts + lsi_rtts)
        # Steady-state LSI RTT exceeds HIT RTT (extra translation cost).
        assert sum(lsi_rtts[1:]) > sum(hit_rtts[1:])

    def test_first_packet_triggers_bex_and_is_not_lost(self, hip_pair):
        """Packets sent before association completes are queued, not dropped."""
        sim, a, b, da, db = hip_pair
        icmp_a, _ = IcmpStack(a), IcmpStack(b)

        def flow():
            rtt = yield sim.process(icmp_a.echo(db.hit, timeout=20.0))
            return rtt

        proc = sim.process(flow())
        rtt = sim.run(until=proc)
        assert rtt is not None
        # First RTT includes the whole base exchange.
        assert rtt > 0.001

    def test_esp_packets_on_wire_not_plaintext(self, hip_pair):
        """Wire packets between the nodes carry ESP, not raw TCP."""
        sim, a, b, da, db = hip_pair
        ta, tb = TcpStack(a), TcpStack(b)
        wire_protos = []
        endpoint = a.interface("eth0")._endpoint
        original_send = endpoint.send

        def spy(packet, size=0):
            wire_protos.append(packet.outer.proto)
            return original_send(packet, size)

        endpoint.send = spy

        def server():
            listener = tb.listen(9000)
            conn = yield listener.accept()
            yield from conn.recv_bytes(4)

        def client():
            conn = yield sim.process(ta.open_connection(db.hit, 9000))
            conn.write(b"data")

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        assert "tcp" not in wire_protos
        assert "esp" in wire_protos and "hip" in wire_protos

    def test_close_tears_down_association(self, hip_pair, drive):
        sim, a, b, da, db = hip_pair
        drive(sim, da.associate(db.hit))
        da.close(db.hit)
        sim.run(until=sim.now + 5)
        assert da.assocs[db.hit].state == "CLOSED"
        assert db.assocs[da.hit].state == "CLOSED"

    def test_meter_separates_asym_and_sym(self, hip_pair):
        sim, a, b, da, db = hip_pair
        ta, tb = TcpStack(a), TcpStack(b)

        from repro.net.packet import VirtualPayload

        def server():
            listener = tb.listen(8080)
            conn = yield listener.accept()
            yield from conn.recv_bytes(100_000)

        def client():
            conn = yield sim.process(ta.open_connection(db.hit, 8080))
            conn.write(VirtualPayload(100_000))

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        asym_ops = da.meter.total_ops("asym.")
        esp_ops = da.meter.total_ops("esp.")
        # R1 precompute + verify R1 + 2 DH + sign I2 + verify R2 = 6,
        # regardless of how much data flows — HIP's amortization claim.
        assert asym_ops <= 6  # control plane only
        assert esp_ops > 20  # data plane is all symmetric per-packet work


class TestConfigVariants:
    def _pair(self, sim, session_identities, config):
        a, b = lan_pair(sim, "a", "b")
        da = HipDaemon(a, session_identities["a"], rng=random.Random(1), config=config)
        db = HipDaemon(b, session_identities["b"], rng=random.Random(2), config=config)
        da.add_peer(db.hit, [B])
        db.add_peer(da.hit, [A])
        return a, b, da, db

    def test_tunnel_mode_bigger_packets(self, session_identities):
        sizes = {}
        for mode in (EspMode.BEET, EspMode.TUNNEL):
            sim = Simulator()
            a, b, da, db = self._pair(
                sim, session_identities, HipConfig(esp_mode=mode)
            )
            icmp_a, _ = IcmpStack(a), IcmpStack(b)
            link_ep = a.interface("eth0")._endpoint
            proc = sim.process(ping(icmp_a, db.hit, count=5, interval=0.01))
            sim.run(until=proc)
            sizes[mode] = link_ep.tx_bytes
        assert sizes[EspMode.TUNNEL] > sizes[EspMode.BEET]

    def test_null_encryption_config(self, sim, session_identities, drive):
        a, b, da, db = self._pair(
            sim, session_identities, HipConfig(esp_encrypt=False)
        )
        assoc = drive(sim, da.associate(db.hit))
        assert assoc.sa_out.encrypt is False

    def test_higher_puzzle_difficulty_costs_more(self, session_identities):
        costs = {}
        for k in (0, 10):
            sim = Simulator()
            a, b, da, db = self._pair(
                sim, session_identities, HipConfig(puzzle_k=k)
            )
            proc = sim.process(da.associate(db.hit))
            sim.run(until=proc)
            costs[k] = da.meter.seconds.get("puzzle.solve", 0.0)
        assert costs[10] > costs[0] * 8


class TestEspMeterKeys:
    def test_dataplane_charges_prebound_meter_keys(self, hip_pair, drive):
        """The ESP fast path charges the four pre-bound meter keys (no
        per-packet f-string key formatting); both addressing modes land
        under their own key."""
        sim, a, b, da, db = hip_pair
        icmp_a, _ = IcmpStack(a), IcmpStack(b)

        def flow():
            yield sim.process(ping(icmp_a, db.hit, count=3, interval=0.01))
            yield sim.process(
                ping(icmp_a, da.lsi_for_peer(db.hit), count=3, interval=0.01)
            )
            return True

        assert drive(sim, flow()) is True
        assert da.meter.ops.get("esp.encrypt.hit", 0) >= 3
        assert da.meter.ops.get("esp.encrypt.lsi", 0) >= 3
        assert db.meter.ops.get("esp.decrypt.hit", 0) >= 3
        assert db.meter.ops.get("esp.decrypt.lsi", 0) >= 3
        # No stray dynamically-formatted variants crept back in.
        assert not [k for k in da.meter.ops if k.startswith("esp.encrypt.")
                    and k not in ("esp.encrypt.hit", "esp.encrypt.lsi")]
