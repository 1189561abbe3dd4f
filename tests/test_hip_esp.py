"""ESP data-plane tests: real crypto, BEET vs tunnel, anti-replay."""

import struct

import pytest

from repro.crypto.hmac_kdf import HmacKey
from repro.crypto.secret import Secret
from repro.hip.esp import (
    EspCiphertext,
    EspError,
    EspMode,
    SecurityAssociation,
    canonical_packet_bytes,
    derive_sa_pair,
)
from repro.metrics import METRICS
from repro.net.addresses import ipv4, ipv6
from repro.net.packet import IPHeader, Packet, TCPHeader, UDPHeader, VirtualPayload

HIT_A = ipv6("2001:10::a")
HIT_B = ipv6("2001:10::b")
ENC = bytes(range(16))
AUTH = bytes(range(20))


def make_sa(mode=EspMode.BEET, encrypt=True, spi=0x1000, real=True):
    return SecurityAssociation(
        spi=spi, enc_key=ENC, auth_key=AUTH,
        src_hit=HIT_A, dst_hit=HIT_B, mode=mode, encrypt=encrypt, real=real,
    )


def sample_inner(payload=b"application data"):
    return Packet(
        headers=(
            IPHeader(src=ipv4("1.0.0.1"), dst=ipv4("1.0.0.2"), proto="tcp"),
            TCPHeader(src_port=1000, dst_port=80, seq=5, ack=6),
        ),
        payload=payload,
    )


class TestProtectVerify:
    def test_real_roundtrip(self):
        out_sa, in_sa = make_sa(), make_sa()
        inner = sample_inner()
        header, ct = out_sa.protect(inner)
        assert ct.ciphertext is not None  # real bytes were encrypted
        recovered = in_sa.verify(header, ct)
        assert recovered is inner

    def test_ciphertext_differs_from_plaintext(self):
        sa = make_sa()
        inner = sample_inner(b"super secret payload!")
        _, ct = sa.protect(inner)
        assert b"super secret payload!" not in ct.ciphertext

    def test_tampered_ciphertext_rejected(self):
        out_sa, in_sa = make_sa(), make_sa()
        header, ct = out_sa.protect(sample_inner())
        bad = EspCiphertext(
            inner=ct.inner, wire_len=ct.wire_len,
            ciphertext=ct.ciphertext[:-1] + bytes([ct.ciphertext[-1] ^ 1]),
            icv=ct.icv, iv=ct.iv,
        )
        with pytest.raises(EspError, match="ICV"):
            in_sa.verify(header, bad)
        assert in_sa.auth_failures == 1

    def test_tampered_mss_packet_rejected_before_decrypt(self):
        # 1400 B decrypts on the block-parallel path; the ICV check still
        # comes first and still counts the failure.
        failures = METRICS.counter("esp.auth_failures")
        out_sa, in_sa = make_sa(), make_sa()
        header, ct = out_sa.protect(sample_inner(bytes(range(256)) * 5 + bytes(120)))
        assert len(ct.ciphertext) >= 1400
        flipped = bytearray(ct.ciphertext)
        flipped[700] ^= 0x04
        bad = EspCiphertext(
            inner=ct.inner, wire_len=ct.wire_len,
            ciphertext=bytes(flipped), icv=ct.icv, iv=ct.iv,
        )
        before = failures.value
        with pytest.raises(EspError, match="ICV verification failed"):
            in_sa.verify(header, bad)
        assert in_sa.auth_failures == 1
        assert failures.value - before == 1
        assert in_sa.verify(header, ct) is ct.inner  # the genuine packet still passes

    def test_remaced_bad_padding_is_a_domain_error(self):
        # A sender holding the auth key re-MACs a ciphertext whose last
        # plaintext byte is no valid PKCS#7 length: past the ICV check, the
        # padding check must still end in EspError.
        out_sa, in_sa = make_sa(), make_sa()
        header, ct = out_sa.protect(sample_inner(bytes(1400)))
        forged = bytearray(ct.ciphertext)
        forged[-17] ^= 0x80  # flips the top bit of the final pad-length byte
        icv = HmacKey(AUTH, "sha1").digest(
            struct.pack(">II", header.spi, header.seq) + ct.iv + bytes(forged)
        )[:12]
        bad = EspCiphertext(
            inner=ct.inner, wire_len=ct.wire_len,
            ciphertext=bytes(forged), icv=icv, iv=ct.iv,
        )
        with pytest.raises(EspError, match="decryption failed"):
            in_sa.verify(header, bad)
        assert in_sa.auth_failures == 1
        assert in_sa.packets_verified == 0

    @pytest.mark.parametrize("forged", [
        {"iv": None}, {"icv": None}, {"ciphertext": "not bytes"}, {"icv": 12345},
    ], ids=["no-iv", "no-icv", "str-ciphertext", "int-icv"])
    def test_malformed_body_is_a_domain_error(self, forged):
        # A co-tenant can put any object in these fields; verify must end in
        # EspError (which the daemon drops and counts), with or without -O.
        out_sa, in_sa = make_sa(), make_sa()
        header, ct = out_sa.protect(sample_inner())
        fields = {"ciphertext": ct.ciphertext, "icv": ct.icv, "iv": ct.iv, **forged}
        bad = EspCiphertext(inner=ct.inner, wire_len=ct.wire_len, **fields)
        with pytest.raises(EspError, match="malformed ESP payload"):
            in_sa.verify(header, bad)
        assert in_sa.auth_failures == 1
        assert in_sa.verify(header, ct) is ct.inner  # the genuine packet still passes

    @pytest.mark.parametrize("forged", [
        {"flags": frozenset({"ACK", "ECE"}), "sack": ((5000, 6000),)},
        {"flags": frozenset({"ACK", "ECE"})},
        {"flags": frozenset({"ACK", "CWR"})},
        {"sack": ((5000, 6000),)},
    ], ids=["ece+sack", "ece", "cwr", "sack"])
    def test_forged_inner_tcp_fields_fail_authentication(self, forged):
        # A co-tenant on the path keeps a real body's ciphertext, ICV and IV
        # and swaps in an inner segment that gained ECE, CWR or SACK blocks:
        # it could force the peer's cwnd down or fake its SACK state.
        out_sa, in_sa = make_sa(), make_sa()
        ip, tcp = sample_inner().headers
        inner = Packet((ip, tcp._replace(flags=frozenset({"ACK"}))), b"application data")
        header, ct = out_sa.protect(inner)
        forged_inner = Packet((ip, inner.headers[1]._replace(**forged)), inner.payload)
        bad = EspCiphertext(forged_inner, ct.wire_len, ct.ciphertext, ct.icv, ct.iv)
        with pytest.raises(EspError, match="does not match inner packet"):
            in_sa.verify(header, bad)
        assert in_sa.auth_failures == 1
        assert in_sa.verify(header, ct) is inner  # the genuine packet still passes

    def test_forged_inner_with_no_encoding_is_a_domain_error(self):
        out_sa, in_sa = make_sa(), make_sa()
        inner = sample_inner()
        header, ct = out_sa.protect(inner)
        ip, tcp = inner.headers
        for bad_tcp in (tcp._replace(sack=((-1, 5),)), tcp._replace(seq=1 << 40)):
            forged = Packet((ip, bad_tcp), inner.payload)
            bad = EspCiphertext(forged, ct.wire_len, ct.ciphertext, ct.icv, ct.iv)
            with pytest.raises(EspError, match="does not match inner packet"):
                in_sa.verify(header, bad)
        assert in_sa.auth_failures == 2

    def test_wrong_key_rejected(self):
        out_sa = make_sa()
        wrong = SecurityAssociation(
            spi=0x1000, enc_key=bytes(16), auth_key=AUTH,
            src_hit=HIT_A, dst_hit=HIT_B,
        )
        header, ct = out_sa.protect(sample_inner())
        with pytest.raises(EspError):
            wrong.verify(header, ct)

    def test_wrong_auth_key_rejected(self):
        out_sa = make_sa()
        wrong = SecurityAssociation(
            spi=0x1000, enc_key=ENC, auth_key=bytes(20),
            src_hit=HIT_A, dst_hit=HIT_B,
        )
        header, ct = out_sa.protect(sample_inner())
        with pytest.raises(EspError, match="ICV"):
            wrong.verify(header, ct)

    def test_spi_mismatch_rejected(self):
        out_sa = make_sa(spi=0x1000)
        other = make_sa(spi=0x2000)
        header, ct = out_sa.protect(sample_inner())
        with pytest.raises(EspError, match="SPI"):
            other.verify(header, ct)

    def test_virtual_payload_fast_path(self):
        out_sa, in_sa = make_sa(), make_sa()
        inner = sample_inner(VirtualPayload(5000))
        header, ct = out_sa.protect(inner)
        assert ct.ciphertext is None
        assert in_sa.verify(header, ct) is inner

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            SecurityAssociation(spi=1, enc_key=bytes(8), auth_key=AUTH,
                                src_hit=HIT_A, dst_hit=HIT_B)
        with pytest.raises(ValueError):
            SecurityAssociation(spi=1, enc_key=ENC, auth_key=bytes(8),
                                src_hit=HIT_A, dst_hit=HIT_B)


class TestModes:
    def test_beet_strips_inner_ip_header(self):
        """BEET saves the inner IP header bytes on the wire."""
        beet = make_sa(EspMode.BEET)
        tunnel = make_sa(EspMode.TUNNEL)
        inner = sample_inner(b"x" * 100)
        h_beet, ct_beet = beet.protect(inner)
        h_tun, ct_tun = tunnel.protect(inner)
        beet_total = h_beet.header_len + len(ct_beet)
        tun_total = h_tun.header_len + len(ct_tun)
        # Tunnel mode carries the 20-byte inner IPv4 header (modulo padding).
        assert tun_total - beet_total >= 12
        assert len(ct_tun) - len(ct_beet) == 20

    def test_beet_bandwidth_overhead_modest(self):
        sa = make_sa(EspMode.BEET)
        inner = sample_inner(b"y" * 1400)
        overhead = sa.overhead_bytes(inner)
        assert 12 <= overhead < 80  # ESP fields minus the stripped IP header

    def test_auth_only_sa_skips_iv_and_padding(self):
        sa = make_sa(encrypt=False)
        header, ct = sa.protect(sample_inner(b"z" * 64))
        assert header.iv_len == 0
        assert header.pad_len == 0
        assert ct.ciphertext is None  # no encryption performed


class TestAntiReplay:
    def test_duplicate_sequence_rejected(self):
        out_sa, in_sa = make_sa(), make_sa()
        header, ct = out_sa.protect(sample_inner())
        in_sa.verify(header, ct)
        with pytest.raises(EspError, match="replay"):
            in_sa.verify(header, ct)
        assert in_sa.replay_drops == 1

    def test_out_of_order_within_window_accepted(self):
        out_sa, in_sa = make_sa(), make_sa()
        packets = [out_sa.protect(sample_inner(bytes([i]) * 4)) for i in range(5)]
        # Deliver 0, 3, 1, 4, 2 — all inside the window.
        for idx in (0, 3, 1, 4, 2):
            in_sa.verify(*packets[idx])
        assert in_sa.packets_verified == 5

    def test_below_window_rejected(self):
        out_sa, in_sa = make_sa(), make_sa()
        packets = [out_sa.protect(sample_inner(b"abcd")) for _ in range(100)]
        in_sa.verify(*packets[99])  # jump far ahead
        with pytest.raises(EspError, match="window"):
            in_sa.verify(*packets[0])

    def test_sequence_increments(self):
        sa = make_sa()
        h1, _ = sa.protect(sample_inner())
        h2, _ = sa.protect(sample_inner())
        assert h2.seq == h1.seq + 1

    def test_zero_sequence_rejected(self):
        in_sa = make_sa()
        from repro.net.packet import ESPHeader

        header = ESPHeader(spi=0x1000, seq=0)
        with pytest.raises(EspError):
            in_sa.verify(header, EspCiphertext(inner=sample_inner(), wire_len=10))

    def test_first_packet_has_seq_one(self):
        out_sa, in_sa = make_sa(), make_sa()
        header, ct = out_sa.protect(sample_inner())
        assert header.seq == 1  # the counter pre-increments from 0
        in_sa.verify(header, ct)
        assert in_sa._replay_top == 1

    def test_duplicate_at_window_edge_rejected(self):
        """seq 1 is still tracked (offset 63) once the window tops at 64."""
        out_sa, in_sa = make_sa(), make_sa()
        packets = [out_sa.protect(sample_inner(bytes([i]) * 4)) for i in range(64)]
        in_sa.verify(*packets[0])  # seq 1
        in_sa.verify(*packets[63])  # seq 64 -> window covers [1, 64]
        with pytest.raises(EspError, match="replayed"):
            in_sa.verify(*packets[0])
        assert in_sa.replay_drops == 1

    def test_far_jump_advances_window_top(self):
        out_sa, in_sa = make_sa(), make_sa()
        packets = [out_sa.protect(sample_inner(b"wxyz")) for _ in range(300)]
        in_sa.verify(*packets[0])
        in_sa.verify(*packets[299])  # seq 300, far beyond the 64-wide window
        assert in_sa._replay_top == 300
        # A late packet just inside the shifted window is still accepted...
        in_sa.verify(*packets[249])  # seq 250, offset 50
        # ...while one the jump pushed below it is not.
        with pytest.raises(EspError, match="below replay window"):
            in_sa.verify(*packets[199])  # seq 200, offset 100
        assert in_sa.packets_verified == 3

    def test_late_packet_below_window_rejected_and_counted(self):
        out_sa, in_sa = make_sa(), make_sa()
        packets = [out_sa.protect(sample_inner(b"late")) for _ in range(70)]
        in_sa.verify(*packets[69])  # seq 70: window floor is 7
        with pytest.raises(EspError, match="below replay window"):
            in_sa.verify(*packets[5])  # seq 6, offset 64 == window size
        in_sa.verify(*packets[6])  # seq 7, offset 63: last seq still inside
        assert in_sa.replay_drops == 1


class TestCostModelSa:
    """``real=False``: the SA charges and checks exactly as the real one does
    — sizes, SPI, sequence numbers, replay window — and never ciphers."""

    @staticmethod
    def crypto_counts():
        return (METRICS.counter("crypto.aes_blocks").value,
                METRICS.counter("crypto.hmac_ops").value)

    def test_no_cipher_work_across_100_real_byte_packets(self):
        out_sa, in_sa = make_sa(real=False), make_sa(real=False)
        real_out = make_sa()
        before = self.crypto_counts()
        for n in range(100):
            inner = sample_inner(bytes([n]) * (n * 13 % 1400 + 1))
            header, ct = out_sa.protect(inner)
            assert ct.ciphertext is ct.icv is ct.iv is None
            assert in_sa.verify(header, ct) is inner
        assert self.crypto_counts() == before
        assert out_sa.packets_protected == in_sa.packets_verified == 100
        # Same bytes on the wire as the ciphering SA would put there.
        inner = sample_inner(b"x" * 333)
        virt_hdr, virt_ct = out_sa.protect(inner)
        for _ in range(virt_hdr.seq - 1):
            real_out.protect(inner)
        real_hdr, real_ct = real_out.protect(inner)
        assert (virt_hdr, virt_ct.wire_len) == (real_hdr, real_ct.wire_len)
        assert out_sa.overhead_bytes(inner) == real_out.overhead_bytes(inner)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "cost-model"])
    def test_spi_sequence_and_replay_checks_hold_on_both_branches(self, real):
        out_sa, in_sa = make_sa(real=real), make_sa(real=real)
        packets = [out_sa.protect(sample_inner()) for _ in range(70)]
        in_sa.verify(*packets[0])
        with pytest.raises(EspError, match="replayed sequence 1"):
            in_sa.verify(*packets[0])
        in_sa.verify(*packets[69])
        with pytest.raises(EspError, match="below replay window"):
            in_sa.verify(*packets[1])
        header, ct = packets[2]
        for seq in (0, -3):
            bad = type(header)(spi=header.spi, seq=seq, iv_len=header.iv_len,
                               icv_len=header.icv_len, pad_len=header.pad_len)
            with pytest.raises(EspError, match="non-positive"):
                in_sa.verify(bad, ct)
        with pytest.raises(EspError, match="SPI mismatch"):
            make_sa(spi=0x2000, real=real).verify(*packets[10])
        assert (in_sa.packets_verified, in_sa.replay_drops, in_sa.auth_failures) == (2, 2, 0)

    def test_ciphertext_from_a_real_sender_is_still_verified(self):
        """The receiver follows the packet, not its own flag."""
        out_sa, in_sa = make_sa(real=True), make_sa(real=False)
        inner = sample_inner(b"sealed by a ciphering peer")
        header, ct = out_sa.protect(inner)
        assert ct.ciphertext is not None
        assert in_sa.verify(header, ct) is inner
        header, ct = out_sa.protect(inner)
        flipped = bytes([ct.ciphertext[0] ^ 0x01]) + ct.ciphertext[1:]
        bad = EspCiphertext(inner=ct.inner, wire_len=ct.wire_len,
                            ciphertext=flipped, icv=ct.icv, iv=ct.iv)
        with pytest.raises(EspError, match="ICV"):
            in_sa.verify(header, bad)
        assert in_sa.auth_failures == 1 and in_sa.packets_verified == 1

    def test_derive_sa_pair_passes_the_flag(self):
        keymat = Secret(bytes(range(72)))
        for real in (True, False):
            pair = derive_sa_pair(keymat, 1, 2, HIT_A, HIT_B, True, real=real)
            assert [sa.real for sa in pair] == [real, real]
        assert all(sa.real for sa in derive_sa_pair(keymat, 1, 2, HIT_A, HIT_B, True))


class TestKeymatSplit:
    def test_initiator_responder_keys_mirror(self):
        keymat = Secret(bytes(range(72)) + bytes(72))
        i_out, i_in = derive_sa_pair(
            keymat, spi_out=2, spi_in=1, local_hit=HIT_A, peer_hit=HIT_B,
            is_initiator=True,
        )
        r_out, r_in = derive_sa_pair(
            keymat, spi_out=1, spi_in=2, local_hit=HIT_B, peer_hit=HIT_A,
            is_initiator=False,
        )
        assert i_out.enc_key.reveal() == r_in.enc_key.reveal() == bytes(range(16))
        assert i_out.auth_key.reveal() == r_in.auth_key.reveal()
        assert i_in.enc_key.reveal() == r_out.enc_key.reveal()

    def test_mirrored_sas_interoperate(self):
        keymat = Secret(bytes(range(100, 172)) + bytes(72))
        i_out, i_in = derive_sa_pair(
            keymat, spi_out=2, spi_in=1, local_hit=HIT_A, peer_hit=HIT_B,
            is_initiator=True,
        )
        r_out, r_in = derive_sa_pair(
            keymat, spi_out=1, spi_in=2, local_hit=HIT_B, peer_hit=HIT_A,
            is_initiator=False,
        )
        inner = sample_inner(b"ping")
        assert r_in.verify(*i_out.protect(inner)) is inner
        back = sample_inner(b"pong")
        assert i_in.verify(*r_out.protect(back)) is back

    def test_short_keymat_rejected(self):
        with pytest.raises(ValueError):
            derive_sa_pair(Secret(bytes(10)), 1, 2, HIT_A, HIT_B, True)


class TestCanonicalBytes:
    def test_covers_all_header_types(self):
        from repro.net.packet import ICMPHeader

        for headers in (
            (UDPHeader(src_port=1, dst_port=2),),
            (TCPHeader(src_port=1, dst_port=2),),
            (ICMPHeader(kind="echo-request", ident=1, seq=2),),
            (IPHeader(src=ipv4("1.2.3.4"), dst=ipv4("5.6.7.8"), proto="udp"),),
        ):
            data = canonical_packet_bytes(Packet(headers=headers, payload=b"x"))
            assert isinstance(data, bytes) and len(data) > 1

    def test_virtual_payload_returns_none(self):
        pkt = Packet(headers=(), payload=VirtualPayload(10))
        assert canonical_packet_bytes(pkt) is None

    def test_segments_without_ece_cwr_or_sack_keep_their_encoding(self):
        from repro.hip.esp import canonical_header_bytes

        tcp = TCPHeader(src_port=1000, dst_port=80, seq=5, ack=6,
                        flags=frozenset({"SYN", "ACK", "FIN", "RST"}), window=4096)
        assert canonical_header_bytes(tcp) == b"TC" + struct.pack(
            ">HHIIBI", 1000, 80, 5, 6, 0b1111, 4096
        )

    def test_every_tcp_flag_and_sack_block_is_encoded(self):
        from repro.hip.esp import canonical_header_bytes

        base = TCPHeader(src_port=1, dst_port=2, flags=frozenset({"ACK"}))
        variants = [base] + [
            base._replace(**change) for change in (
                {"flags": frozenset({"ACK", "ECE"})},
                {"flags": frozenset({"ACK", "CWR"})},
                {"sack": ((10, 20),)},
                {"sack": ((10, 21),)},
                {"sack": ((10, 20), (30, 40))},
            )
        ]
        assert len({canonical_header_bytes(h) for h in variants}) == len(variants)

    def test_distinct_headers_distinct_bytes(self):
        p1 = Packet(headers=(TCPHeader(src_port=1, dst_port=2, seq=9),), payload=b"")
        p2 = Packet(headers=(TCPHeader(src_port=1, dst_port=2, seq=10),), payload=b"")
        assert canonical_packet_bytes(p1) != canonical_packet_bytes(p2)


class TestUnauthenticatedBodies:
    """A real SA accepts no real-byte body it has not authenticated; only a
    virtual payload, which has no bytes, is taken as carried."""

    def test_encrypting_sa_refuses_a_body_without_ciphertext(self):
        in_sa = make_sa()
        header, _ = make_sa().protect(sample_inner())
        with pytest.raises(EspError, match="unencrypted body"):
            in_sa.verify(header, EspCiphertext(sample_inner(b"forged"), 20))
        _, auth_only = make_sa(encrypt=False).protect(sample_inner())
        with pytest.raises(EspError, match="unencrypted body"):
            in_sa.verify(header, auth_only)  # an ICV alone is not ciphertext
        assert (in_sa.auth_failures, in_sa.packets_verified) == (2, 0)

    def test_auth_only_sa_seals_and_checks_an_icv_over_the_plaintext(self):
        out_sa, in_sa = make_sa(encrypt=False), make_sa(encrypt=False)
        inner = sample_inner()
        header, ct = out_sa.protect(inner)
        assert ct.ciphertext is None and ct.iv is None and len(ct.icv) == 12
        assert in_sa.verify(header, ct) is inner
        header, ct = out_sa.protect(inner)
        forged_inner = sample_inner(b"application dat!")
        with pytest.raises(EspError, match="ICV verification failed"):
            in_sa.verify(header, EspCiphertext(forged_inner, ct.wire_len, None, ct.icv))
        with pytest.raises(EspError, match="malformed ESP payload"):
            in_sa.verify(header, EspCiphertext(inner, ct.wire_len))  # no ICV at all
        wrong = SecurityAssociation(spi=0x1000, enc_key=ENC, auth_key=bytes(20),
                                    src_hit=HIT_A, dst_hit=HIT_B, encrypt=False)
        with pytest.raises(EspError, match="ICV verification failed"):
            wrong.verify(header, ct)
        assert (in_sa.auth_failures, in_sa.packets_verified) == (2, 1)
        assert in_sa.verify(header, ct) is inner  # the genuine body still passes
        # A virtual payload has no bytes to seal: taken as carried, as on
        # every SA.
        virtual = sample_inner(VirtualPayload(700))
        header, ct = out_sa.protect(virtual)
        assert ct.icv is None and in_sa.verify(header, ct) is virtual

    def test_an_icv_reaching_a_cost_model_sa_is_still_checked(self):
        out_sa, in_sa = make_sa(encrypt=False), make_sa(encrypt=False, real=False)
        inner = sample_inner()
        header, ct = out_sa.protect(inner)
        assert in_sa.verify(header, ct) is inner
        header, ct = out_sa.protect(inner)
        bad = EspCiphertext(inner, ct.wire_len, None, bytes(12))
        with pytest.raises(EspError, match="ICV"):
            in_sa.verify(header, bad)
        # A cost-model SA still takes an unsealed real-byte body as carried.
        assert in_sa.verify(header, EspCiphertext(inner, ct.wire_len)) is inner


@pytest.mark.parametrize("encrypt", [True, False], ids=["encrypting", "auth-only"])
def test_forged_body_with_no_ciphertext_is_dropped_by_the_daemon(session_identities, encrypt):
    """A co-tenant that read an SPI off the wire and picks a sequence above
    the replay window cannot have an unsealed inner packet delivered."""
    from repro.hip.daemon import HipConfig
    from repro.net.packet import ESPHeader
    from repro.net.udp import UdpStack
    from repro.sim import Simulator
    from tests.conftest import build_hip_pair

    sim, a, b, da, db = build_hip_pair(
        Simulator(), session_identities, HipConfig(esp_encrypt=encrypt)
    )
    sock = UdpStack(b).bind(9)
    got = []

    def listen():
        while True:
            payload, _ = yield sock.recvfrom()
            got.append(payload)

    sim.process(listen())
    UdpStack(a).bind(1).sendto(b"genuine", db.hit, 9)
    sim.run(until=2.0)
    assert got == [b"genuine"]
    sa_in = db.assocs[da.hit].sa_in
    inner = Packet((IPHeader(da.hit, db.hit, "udp"), UDPHeader(1, 9)), b"forged")
    a.send_ip(ipv4("10.0.0.2"), "esp", Packet((ESPHeader(sa_in.spi, 1000),), EspCiphertext(inner, 20)))
    sim.run(until=3.0)
    assert got == [b"genuine"]
    assert db.drops_esp == 1 and sa_in.auth_failures == 1
    assert sa_in.packets_verified == 1
