"""TLS handshake / record layer and SSL-VPN tunnel tests."""

import random
import struct

import pytest

from repro.crypto.modes import cbc_encrypt
from repro.crypto.rsa import RsaKeyPair
from repro.crypto.secret import Secret
from repro.net.addresses import IPAddress, ipv4
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.sim import Simulator
from repro.tls import (
    TlsError,
    TlsServerContext,
    tls_client_handshake,
    tls_server_handshake,
)
from repro.tls.vpn import SslVpnDaemon, VPN_SUBNET, VpnError

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


@pytest.fixture(scope="module")
def server_keypair():
    return RsaKeyPair.generate(512, random.Random(77))


@pytest.fixture
def tls_net(sim, server_keypair):
    a, b = lan_pair(sim, "client", "server")
    ta, tb = TcpStack(a), TcpStack(b)
    ctx = TlsServerContext(keypair=server_keypair)
    return sim, a, b, ta, tb, ctx


def run_handshake(sim, a, b, ta, tb, ctx, session=None):
    """Returns (client_tls, server_tls) after a completed handshake."""
    result = {}
    listener = tb._listeners.get(443) or tb.listen(443)

    def server():
        conn = yield listener.accept()
        result["server"] = yield from tls_server_handshake(conn, b, ctx, random.Random(5))

    def client():
        conn = yield sim.process(ta.open_connection(B, 443))
        result["client"] = yield from tls_client_handshake(
            conn, a, random.Random(6), session=session
        )

    sim.process(server())
    proc = sim.process(client())
    sim.run(until=proc)
    sim.run(until=sim.now + 1)
    return result["client"], result["server"]


class TestHandshake:
    def test_full_handshake_derives_shared_master(self, tls_net):
        sim, a, b, ta, tb, ctx = tls_net
        cli, srv = run_handshake(sim, a, b, ta, tb, ctx)
        assert cli.master_secret.reveal() == srv.master_secret.reveal()
        assert not cli.resumed and not srv.resumed
        assert len(cli.session_id) == 16

    def test_full_handshake_does_rsa(self, tls_net):
        sim, a, b, ta, tb, ctx = tls_net
        cli, srv = run_handshake(sim, a, b, ta, tb, ctx)
        assert cli.meter.ops.get("asym.encrypt.premaster") == 1
        assert srv.meter.ops.get("asym.decrypt.premaster") == 1

    def test_resumed_handshake_skips_rsa(self, tls_net):
        sim, a, b, ta, tb, ctx = tls_net
        cli, _ = run_handshake(sim, a, b, ta, tb, ctx)
        cli2, srv2 = run_handshake(
            sim, a, b, ta, tb, ctx, session=(cli.session_id, cli.master_secret)
        )
        assert cli2.resumed and srv2.resumed
        assert cli2.master_secret.reveal() == cli.master_secret.reveal()
        assert "asym.encrypt.premaster" not in cli2.meter.ops
        assert "asym.decrypt.premaster" not in srv2.meter.ops

    def test_unknown_session_falls_back_to_full(self, tls_net):
        sim, a, b, ta, tb, ctx = tls_net
        fake_session = (b"\x99" * 16, Secret(b"\x01" * 48))
        cli, srv = run_handshake(sim, a, b, ta, tb, ctx, session=fake_session)
        assert not cli.resumed
        assert cli.master_secret.reveal() == srv.master_secret.reveal()


class TestRecords:
    def _connected(self, tls_net):
        sim, a, b, ta, tb, ctx = tls_net
        cli, srv = run_handshake(sim, a, b, ta, tb, ctx)
        return sim, cli, srv

    def test_real_bytes_roundtrip(self, tls_net):
        sim, cli, srv = self._connected(tls_net)
        out = {}

        def sender():
            yield from cli.write(b"attack at dawn")

        def receiver():
            out["msg"] = yield from srv.recv_bytes(14)

        sim.process(sender())
        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert out["msg"] == b"attack at dawn"

    def test_ciphertext_on_the_wire(self, tls_net):
        """The TCP payload between the peers is not the plaintext."""
        sim, a, b, ta, tb, ctx = tls_net
        cli, srv = run_handshake(sim, a, b, ta, tb, ctx)
        wire_chunks = []
        endpoint = a.interface("eth0")._endpoint
        original = endpoint.send

        def spy(packet):
            wire_chunks.append(packet)
            return original(packet)

        endpoint.send = spy

        def sender():
            yield from cli.write(b"SECRET-PAYLOAD")

        sim.process(sender())
        sim.run(until=sim.now + 5)
        for packet in wire_chunks:
            payload = packet.payload
            while hasattr(payload, "payload"):
                payload = payload.payload
            if isinstance(payload, (bytes, bytearray)):
                assert b"SECRET-PAYLOAD" not in bytes(payload)

    def test_virtual_payload_roundtrip_exact_length(self, tls_net):
        sim, cli, srv = self._connected(tls_net)
        out = {}

        def sender():
            yield from cli.write(VirtualPayload(123_456))

        def receiver():
            out["msg"] = yield from srv.recv_bytes(123_456)

        sim.process(sender())
        sim.process(receiver())
        sim.run(until=sim.now + 20)
        assert isinstance(out["msg"], VirtualPayload)
        assert len(out["msg"]) == 123_456

    def test_record_costs_charged(self, tls_net):
        sim, cli, srv = self._connected(tls_net)

        def sender():
            yield from cli.write(VirtualPayload(50_000))

        def receiver():
            yield from srv.recv_bytes(50_000)

        sim.process(sender())
        sim.process(receiver())
        sim.run(until=sim.now + 20)
        assert cli.meter.seconds_by("tls.record.out") > 0
        assert srv.meter.seconds_by("tls.record.in") > 0

    def test_bidirectional_records(self, tls_net):
        sim, cli, srv = self._connected(tls_net)
        out = {}

        def client_side():
            yield from cli.write(b"ping")
            out["reply"] = yield from cli.recv_bytes(4)

        def server_side():
            data = yield from srv.recv_bytes(4)
            yield from srv.write(bytes(reversed(bytes(data))))

        sim.process(client_side())
        sim.process(server_side())
        sim.run(until=sim.now + 5)
        assert out["reply"] == b"gnip"

    def test_max_size_record_roundtrip(self, tls_net):
        # 16 KiB + MAC + padding: 1026 blocks through the block-parallel decrypt.
        sim, cli, srv = self._connected(tls_net)
        payload = random.Random(16).randbytes(16384)
        out = {}

        def sender():
            yield from cli.write_record(payload)

        def receiver():
            out["msg"] = yield from srv.recv_record()

        sim.process(sender())
        sim.process(receiver())
        sim.run(until=sim.now + 20)
        assert out["msg"] == payload

    @pytest.mark.parametrize(
        "forge, message",
        [("mac", "record MAC verification failed"), ("padding", "record decryption failed")],
    )
    def test_forged_large_record_is_a_tls_error(self, tls_net, forge, message):
        sim, cli, srv = self._connected(tls_net)
        payload = bytes(16384)
        seq = struct.pack(">Q", 1)
        iv = cli._hmac_out.digest(seq)[:16]
        mac = cli._hmac_out.digest(seq + payload)
        if forge == "mac":
            mac = bytes(20)
        ciphertext = bytearray(cbc_encrypt(cli._aes_out, iv, payload + mac))
        if forge == "padding":
            ciphertext[-17] ^= 0x80  # final pad-length byte becomes > 16
        cli.conn.write(struct.pack(">BHH", 23, 0, len(ciphertext) + 16) + iv + bytes(ciphertext))
        out = {}

        def receiver():
            try:
                yield from srv.recv_record()
            except TlsError as exc:
                out["error"] = exc

        sim.process(receiver())
        sim.run(until=sim.now + 20)
        assert message in str(out.get("error"))


class TestSslVpn:
    @pytest.fixture
    def vpn_pair(self, sim, server_keypair):
        a, b = lan_pair(sim, "a", "b")
        key_a = server_keypair
        key_b = RsaKeyPair.generate(512, random.Random(88))
        vpn_a_addr = IPAddress(4, VPN_SUBNET.network.value + 10)
        vpn_b_addr = IPAddress(4, VPN_SUBNET.network.value + 11)
        va = SslVpnDaemon(a, vpn_a_addr, key_a, rng=random.Random(1))
        vb = SslVpnDaemon(b, vpn_b_addr, key_b, rng=random.Random(2))
        va.add_peer(vpn_b_addr, B, key_b.public)
        vb.add_peer(vpn_a_addr, A, key_a.public)
        return sim, a, b, va, vb

    def test_tunnel_establishes(self, vpn_pair, drive):
        sim, a, b, va, vb = vpn_pair
        tunnel = drive(sim, va.connect(vb.vpn_addr))
        assert tunnel.is_established
        # Both ends derived the same master secret from the real RSA exchange.
        peer_master = vb.tunnels[va.vpn_addr].master_secret
        assert tunnel.master_secret.reveal() == peer_master.reveal()

    def test_tcp_through_tunnel(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        ta, tb = TcpStack(a), TcpStack(b)
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(10)
            got["peer"] = conn.remote_addr

        def client():
            conn = yield sim.process(ta.open_connection(vb.vpn_addr, 80))
            conn.write(b"vpn bytes!")

        sim.process(server())
        sim.process(client())
        sim.run(until=30)
        assert got.get("data") == b"vpn bytes!"
        assert got.get("peer") == va.vpn_addr  # server sees tunnel addressing

    def test_unknown_peer_fails(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        stranger = IPAddress(4, VPN_SUBNET.network.value + 99)

        def flow():
            with pytest.raises(VpnError):
                yield from va.connect(stranger, timeout=5.0)
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True

    def test_first_packets_queued_not_dropped(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        from repro.net.icmp import IcmpStack, ping

        icmp_a, _ = IcmpStack(a), IcmpStack(b)
        proc = sim.process(ping(icmp_a, vb.vpn_addr, count=2, interval=0.05,
                                timeout=10.0))
        rtts = sim.run(until=proc)
        assert all(r is not None for r in rtts)

    def test_per_packet_costs_metered(self, vpn_pair):
        sim, a, b, va, vb = vpn_pair
        from repro.net.icmp import IcmpStack, ping

        icmp_a, _ = IcmpStack(a), IcmpStack(b)
        proc = sim.process(ping(icmp_a, vb.vpn_addr, count=5, timeout=10.0))
        sim.run(until=proc)
        assert va.meter.ops.get("vpn.record.out", 0) >= 5
        assert vb.meter.ops.get("vpn.record.in", 0) >= 5
        assert va.meter.ops.get("vpn.asym.encrypt") == 1  # handshake once

    def test_address_validation(self, sim, server_keypair):
        node = Simulator and lan_pair(sim, "x", "y")[0]
        with pytest.raises(ValueError):
            SslVpnDaemon(node, ipv4("9.9.9.9"), server_keypair, rng=random.Random(1))


class TestMalformedHandshake:
    """Regressions for the handshake length guards: a hostile peer's
    crafted message must raise TlsError, never silently truncate session
    ids / randoms (the old behaviour) or escape a struct.error."""

    def _server_error(self, tls_net, body, mtype=None):
        """Drive tls_server_handshake against one raw client message."""
        import struct as _struct

        from repro.tls.connection import CLIENT_HELLO

        sim, a, b, ta, tb, ctx = tls_net
        listener = tb._listeners.get(443) or tb.listen(443)
        out = {}

        def server():
            conn = yield listener.accept()
            try:
                yield from tls_server_handshake(conn, b, ctx, random.Random(5))
            except TlsError as exc:
                out["error"] = exc

        def client():
            conn = yield sim.process(ta.open_connection(B, 443))
            code = CLIENT_HELLO if mtype is None else mtype
            conn.write(_struct.pack(">BHH", 22, code, len(body)) + body)

        sim.process(server())
        sim.process(client())
        sim.run(until=sim.now + 5)
        return out.get("error")

    def _client_error(self, tls_net, messages):
        """Drive tls_client_handshake against raw server messages."""
        import struct as _struct

        sim, a, b, ta, tb, _ctx = tls_net
        listener = tb._listeners.get(443) or tb.listen(443)
        out = {}

        def server():
            conn = yield listener.accept()
            for mtype, body in messages:
                conn.write(_struct.pack(">BHH", 22, mtype, len(body)) + body)

        def client():
            conn = yield sim.process(ta.open_connection(B, 443))
            try:
                yield from tls_client_handshake(conn, a, random.Random(6))
            except TlsError as exc:
                out["error"] = exc

        sim.process(server())
        sim.process(client())
        sim.run(until=sim.now + 5)
        return out.get("error")

    def test_short_client_hello_rejected(self, tls_net):
        err = self._server_error(tls_net, b"\x00")
        assert err is not None and "truncated" in str(err)

    def test_client_hello_inflated_sid_len_rejected(self, tls_net):
        import struct as _struct

        # Claims a 64-byte session id but carries only 32 bytes of body:
        # the old code silently truncated and ran the PRF on an empty
        # client_random.
        body = _struct.pack(">H", 64) + b"\x00" * 32
        err = self._server_error(tls_net, body)
        assert err is not None and "length mismatch" in str(err)

    def test_short_server_hello_rejected(self, tls_net):
        from repro.tls.connection import SERVER_HELLO

        err = self._client_error(tls_net, [(SERVER_HELLO, b"\x01")])
        assert err is not None and "truncated" in str(err)

    def test_server_hello_inflated_sid_len_rejected(self, tls_net):
        import struct as _struct

        from repro.tls.connection import SERVER_HELLO

        body = _struct.pack(">H", 200) + b"\x00" * 33
        err = self._client_error(tls_net, [(SERVER_HELLO, body)])
        assert err is not None and "length mismatch" in str(err)

    def test_certificate_key_overrun_rejected(self, tls_net):
        import struct as _struct

        from repro.tls.connection import CERTIFICATE, SERVER_HELLO

        sid = b"\x11" * 16
        hello = _struct.pack(">H", len(sid)) + sid + b"\x22" * 32 + b"\x00"
        cert = _struct.pack(">H", 1000) + b"\x00" * 10  # key_len past the end
        err = self._client_error(
            tls_net, [(SERVER_HELLO, hello), (CERTIFICATE, cert)]
        )
        assert err is not None and "truncated" in str(err)

    def test_short_record_body_rejected(self, tls_net):
        import struct as _struct

        sim, a, b, ta, tb, ctx = tls_net
        cli, srv = run_handshake(sim, a, b, ta, tb, ctx)
        out = {}

        # A real-bytes record shorter than IV + MAC used to slice into
        # nonsense and fail deep inside CBC; now it is rejected up front.
        srv.conn.write(_struct.pack(">BHH", 23, 0, 10) + b"\x00" * 10)

        def receiver():
            try:
                yield from cli.recv_record()
            except TlsError as exc:
                out["error"] = exc

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert "too short" in str(out.get("error"))
