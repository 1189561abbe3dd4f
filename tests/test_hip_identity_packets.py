"""HIP identities, HIT derivation, LSIs and control-packet wire format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hip import packets as hp
from repro.hip.identity import (
    HostIdentity,
    LsiAllocator,
    asym_cost_for_host_id,
    decode_host_id,
    hit_from_public_key,
    verify_with_host_id,
)
from repro.crypto.costmodel import CostModel
from repro.net.addresses import IPAddress, ipv6, is_hit, is_lsi


class TestHit:
    def test_hit_is_orchid(self, session_identities):
        assert is_hit(session_identities["a"].hit)
        assert is_hit(session_identities["ecdsa"].hit)

    def test_hit_deterministic(self):
        assert hit_from_public_key(b"key") == hit_from_public_key(b"key")

    def test_hit_key_sensitivity(self):
        assert hit_from_public_key(b"key1") != hit_from_public_key(b"key2")

    def test_distinct_identities_distinct_hits(self, session_identities):
        hits = {ident.hit for ident in session_identities.values()}
        assert len(hits) == len(session_identities)

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=30)
    def test_hit_always_in_prefix(self, key):
        assert is_hit(hit_from_public_key(key))


def peer_key(ident: HostIdentity):
    """The peer's view of ``ident``: its wire HI, decoded."""
    return decode_host_id(ident.public_key_bytes)


class TestHostIdentity:
    def test_rsa_sign_verify_via_host_id(self, session_identities, rng):
        ident = session_identities["a"]
        sig = ident.sign(b"message", rng)
        assert peer_key(ident) == ident.public_key
        assert verify_with_host_id(peer_key(ident), b"message", sig)
        assert not verify_with_host_id(peer_key(ident), b"other", sig)

    def test_ecdsa_sign_verify_via_host_id(self, session_identities, rng):
        ident = session_identities["ecdsa"]
        sig = ident.sign(b"message", rng)
        assert peer_key(ident) == ident.public_key
        assert verify_with_host_id(peer_key(ident), b"message", sig)

    def test_cross_identity_verification_fails(self, session_identities, rng):
        sig = session_identities["a"].sign(b"m", rng)
        assert not verify_with_host_id(peer_key(session_identities["b"]), b"m", sig)

    def test_garbage_host_id_fails_safely(self, session_identities):
        # A malformed HI is a domain error at decode, never a later crash.
        for garbage in (b"", b"XXX:junk", b"RSA:", b"RSA:\x00", b"ECC:\x04" + bytes(64)):
            with pytest.raises(ValueError):
                decode_host_id(garbage)
        # A decoded key still rejects signatures of any shape, never raises.
        key = peer_key(session_identities["a"])
        assert not verify_with_host_id(key, b"m", b"sig")
        assert not verify_with_host_id(key, b"m", b"\xff" * key.byte_length)

    def test_unknown_algorithm_rejected(self, rng):
        with pytest.raises(ValueError):
            HostIdentity.generate(rng, "dsa")

    def test_asym_cost_rsa_vs_ecdsa(self, session_identities):
        cm = CostModel()
        rsa_hi = peer_key(session_identities["a"])
        ecc_hi = peer_key(session_identities["ecdsa"])
        # ECDSA signing is cheaper than RSA-1024-class signing; verify is not.
        assert asym_cost_for_host_id(ecc_hi, "sign", cm) == cm.ecdsa_sign_p256
        assert asym_cost_for_host_id(rsa_hi, "verify", cm) < asym_cost_for_host_id(
            ecc_hi, "verify", cm
        )


class TestLsiAllocator:
    def test_own_lsi_constant(self):
        alloc = LsiAllocator()
        assert str(alloc.own_lsi) == "1.0.0.1"

    def test_assign_stable_per_hit(self):
        alloc = LsiAllocator()
        hit = ipv6("2001:10::1")
        assert alloc.assign(hit) == alloc.assign(hit)

    def test_assignments_unique_and_in_prefix(self):
        alloc = LsiAllocator()
        lsis = [alloc.assign(ipv6(f"2001:10::{i:x}")) for i in range(1, 50)]
        assert len(set(lsis)) == len(lsis)
        assert all(is_lsi(lsi) for lsi in lsis)

    def test_reverse_lookup(self):
        alloc = LsiAllocator()
        hit = ipv6("2001:10::77")
        lsi = alloc.assign(hit)
        assert alloc.hit_for(lsi) == hit
        assert alloc.lsi_for(hit) == lsi
        assert alloc.hit_for(alloc.own_lsi) is None


HIT_A = ipv6("2001:10::a")
HIT_B = ipv6("2001:10::b")


class TestWireFormat:
    def _sample_packet(self) -> hp.HipPacket:
        pkt = hp.HipPacket(packet_type=hp.I2, sender_hit=HIT_A, receiver_hit=HIT_B)
        pkt.add(hp.SOLUTION, hp.build_solution(10, 0, b"\x01" * 8, b"\x02" * 8))
        pkt.add(hp.DIFFIE_HELLMAN, hp.build_dh(5, b"\x99" * 192))
        pkt.add(hp.ESP_INFO, hp.build_esp_info(0, 0xABCD))
        pkt.add(hp.HOST_ID, hp.build_host_id(b"RSA:fakekey", b"host.example"))
        pkt.add(hp.HMAC_PARAM, b"\xaa" * 20)
        pkt.add(hp.HIP_SIGNATURE, b"\xbb" * 64)
        return pkt

    def test_serialize_parse_roundtrip(self):
        pkt = self._sample_packet()
        parsed = hp.HipPacket.parse(pkt.serialize())
        assert parsed.packet_type == hp.I2
        assert parsed.sender_hit == HIT_A
        assert parsed.receiver_hit == HIT_B
        assert parsed.get(hp.ESP_INFO) == pkt.get(hp.ESP_INFO)
        assert parsed.get(hp.HOST_ID) == pkt.get(hp.HOST_ID)

    def test_serialized_length_multiple_of_8(self):
        data = self._sample_packet().serialize()
        assert len(data) % 8 == 0

    def test_params_sorted_by_type_code(self):
        pkt = self._sample_packet()
        data = pkt.serialize()
        parsed = hp.HipPacket.parse(data)
        codes = [p.code for p in parsed.params]
        assert codes == sorted(codes)

    def test_truncated_packet_rejected(self):
        data = self._sample_packet().serialize()
        with pytest.raises(hp.HipParseError):
            hp.HipPacket.parse(data[:30])
        with pytest.raises(hp.HipParseError):
            hp.HipPacket.parse(data[:-8])

    def test_bad_version_rejected(self):
        data = bytearray(self._sample_packet().serialize())
        data[3] = 0x21  # version 2
        with pytest.raises(hp.HipParseError):
            hp.HipPacket.parse(bytes(data))

    def test_bytes_for_param_excludes_from_code(self):
        pkt = self._sample_packet()
        sig_input = pkt.bytes_for_param(hp.HIP_SIGNATURE)
        hmac_input = pkt.bytes_for_param(hp.HMAC_PARAM)
        full = pkt.serialize()
        assert len(hmac_input) < len(sig_input) < len(full)
        # The signature input must cover the HMAC param.
        assert b"\xaa" * 20 in sig_input
        assert b"\xaa" * 20 not in hmac_input

    def test_get_all(self):
        pkt = hp.HipPacket(packet_type=hp.UPDATE, sender_hit=HIT_A, receiver_hit=HIT_B)
        pkt.add(hp.ACK, hp.build_ack([1]))
        pkt.add(hp.ACK, hp.build_ack([2]))
        assert len(pkt.get_all(hp.ACK)) == 2
        assert pkt.get(hp.SEQ) is None


class TestParamCodecs:
    def test_puzzle_roundtrip(self):
        data = hp.build_puzzle(12, 6, 37, b"\x0f" * 8)
        assert hp.parse_puzzle(data) == (12, 6, 37, b"\x0f" * 8)

    def test_solution_roundtrip(self):
        data = hp.build_solution(12, 37, b"\x01" * 8, b"\x02" * 8)
        assert hp.parse_solution(data) == (12, 37, b"\x01" * 8, b"\x02" * 8)

    def test_dh_roundtrip(self):
        data = hp.build_dh(14, b"\xab" * 256)
        assert hp.parse_dh(data) == (14, b"\xab" * 256)

    def test_dh_truncated(self):
        with pytest.raises(hp.HipParseError):
            hp.parse_dh(hp.build_dh(14, b"\xab" * 256)[:-1])

    def test_esp_info_roundtrip(self):
        data = hp.build_esp_info(0x11, 0x22, keymat_index=3)
        assert hp.parse_esp_info(data) == (3, 0x11, 0x22)

    def test_host_id_roundtrip(self):
        data = hp.build_host_id(b"RSA:key", b"fqdn.example")
        assert hp.parse_host_id(data) == (b"RSA:key", b"fqdn.example")

    def test_locator_roundtrip(self):
        from repro.net.addresses import ipv4

        addrs = [(ipv4("10.0.0.5"), 120.0), (ipv6("2001:db8::1"), 60.0)]
        parsed = hp.parse_locator(hp.build_locator(addrs))
        assert parsed == addrs

    def test_seq_ack_roundtrip(self):
        assert hp.parse_seq(hp.build_seq(77)) == 77
        assert hp.parse_ack(hp.build_ack([1, 2, 3])) == [1, 2, 3]

    def test_transform_roundtrip(self):
        suites = [hp.SUITE_AES_CBC_HMAC_SHA1, hp.SUITE_NULL_HMAC_SHA1]
        assert hp.parse_transform(hp.build_transform(suites)) == suites

    def test_malformed_params_raise(self):
        for parser in (hp.parse_puzzle, hp.parse_solution, hp.parse_esp_info,
                       hp.parse_host_id, hp.parse_seq, hp.parse_locator):
            with pytest.raises(hp.HipParseError):
                parser(b"\x00")
