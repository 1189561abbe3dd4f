"""Address, prefix and packet-model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import (
    IPAddress,
    LSI_PREFIX,
    ORCHID_PREFIX,
    Prefix,
    TEREDO_PREFIX,
    ipv4,
    ipv6,
    is_hit,
    is_lsi,
    is_teredo,
    prefix,
)
from repro.net.packet import (
    ESPHeader,
    HIPHeader,
    ICMPHeader,
    IPHeader,
    Packet,
    TCPHeader,
    UDPHeader,
    VirtualPayload,
)


class TestAddresses:
    def test_ipv4_parse_format_roundtrip(self):
        for text in ("0.0.0.0", "10.0.0.1", "255.255.255.255", "192.0.2.33"):
            assert str(ipv4(text)) == text

    def test_ipv4_from_int(self):
        assert ipv4(0x0A000001) == ipv4("10.0.0.1")

    def test_ipv4_malformed(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                ipv4(bad)

    def test_ipv6_parse(self):
        assert ipv6("::") == IPAddress(6, 0)
        assert ipv6("::1") == IPAddress(6, 1)
        assert ipv6("2001:10::") == IPAddress(6, 0x20010010 << 96)
        assert ipv6("1:2:3:4:5:6:7:8").value == (
            (1 << 112) | (2 << 96) | (3 << 80) | (4 << 64)
            | (5 << 48) | (6 << 32) | (7 << 16) | 8
        )

    def test_ipv6_malformed(self):
        for bad in ("1:2:3", "::1::2", "1:2:3:4:5:6:7:8:9", "12345::"):
            with pytest.raises(ValueError):
                ipv6(bad)

    def test_out_of_range_values(self):
        with pytest.raises(ValueError):
            IPAddress(4, 1 << 32)
        with pytest.raises(ValueError):
            IPAddress(6, 1 << 128)
        with pytest.raises(ValueError):
            IPAddress(5, 0)

    @given(st.integers(0, 2**32 - 1))
    def test_ipv4_text_roundtrip(self, value):
        addr = IPAddress(4, value)
        assert ipv4(str(addr)) == addr

    def test_packed(self):
        assert ipv4("1.2.3.4").packed() == b"\x01\x02\x03\x04"
        assert len(ipv6("::1").packed()) == 16

    def test_ordering(self):
        assert ipv4("1.0.0.1") < ipv4("1.0.0.2")


class TestPrefix:
    def test_contains(self):
        p = prefix("10.0.0.0/8")
        assert p.contains(ipv4("10.255.1.2"))
        assert not p.contains(ipv4("11.0.0.0"))
        assert not p.contains(ipv6("::1"))

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix(ipv4("10.0.0.1"), 8)

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            Prefix(ipv4("10.0.0.0"), 33)

    def test_zero_length_matches_all(self):
        assert prefix("0.0.0.0/0").contains(ipv4("200.1.2.3"))

    def test_special_ranges(self):
        assert is_hit(ipv6("2001:10::1"))
        assert is_hit(ipv6("2001:1f:ffff::"))  # still inside /28
        assert not is_hit(ipv6("2001:20::1"))
        assert not is_hit(ipv4("1.0.0.1"))
        assert is_lsi(ipv4("1.0.0.1"))
        assert not is_lsi(ipv4("2.0.0.1"))
        assert is_teredo(ipv6("2001:0:1234::1"))
        assert not is_teredo(ipv6("2001:10::1"))  # HITs are not Teredo

    def test_prefix_text_requires_length(self):
        with pytest.raises(ValueError):
            prefix("10.0.0.0")


# The range helpers are shift-compares on the address value; each must agree
# with its prefix's ``contains`` everywhere, above all at the range edges.
RANGES = ((is_hit, ORCHID_PREFIX), (is_lsi, LSI_PREFIX), (is_teredo, TEREDO_PREFIX))


def _edges(p: Prefix) -> list[IPAddress]:
    bits, shift = p.network.bits, p.network.bits - p.length
    first, last = p.network.value, p.network.value | ((1 << shift) - 1)
    values = {0, (1 << bits) - 1, first, last, first - 1, last + 1}
    return [IPAddress(p.network.family, v) for v in sorted(values) if 0 <= v < 1 << bits]


@pytest.mark.parametrize("helper,p", RANGES, ids=["hit", "lsi", "teredo"])
def test_range_helpers_agree_with_prefix_at_the_edges(helper, p):
    for addr in _edges(ORCHID_PREFIX) + _edges(LSI_PREFIX) + _edges(TEREDO_PREFIX):
        assert helper(addr) == p.contains(addr), addr


@given(st.sampled_from([4, 6]), st.integers(0, 2**128 - 1), st.data())
def test_range_helpers_agree_with_prefix_contains(family, raw, data):
    value = raw % (1 << (32 if family == 4 else 128))
    # Half the draws land inside a range, where a random address almost never would.
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from([ORCHID_PREFIX, LSI_PREFIX, TEREDO_PREFIX]))
        family, shift = p.network.family, p.network.bits - p.length
        value = p.network.value | (raw & ((1 << shift) - 1))
    addr = IPAddress(family, value)
    for helper, p in RANGES:
        assert helper(addr) == p.contains(addr)


def test_hip_output_shim_never_scans_a_prefix(hip_pair, monkeypatch):
    """Classifying a locally sent packet (LSI, HIT or neither) reaches no
    ``Prefix.contains``: the per-packet shim is shift-compares only."""
    sim, a, b, da, db = hip_pair
    calls = []
    real = Prefix.contains
    monkeypatch.setattr(Prefix, "contains", lambda self, addr: calls.append(addr) or real(self, addr))
    src = {4: ipv4("10.0.0.1"), 6: da.hit}
    for dst in (da.lsi_for_peer(db.hit), db.hit, ipv4("10.0.0.2")):
        da._output_shim(a, Packet((IPHeader(src[dst.family], dst, "udp"), UDPHeader(1, 2))))
    assert calls == []


class TestPacket:
    def _tcp_packet(self, payload=b"data"):
        return Packet(
            headers=(
                IPHeader(src=ipv4("10.0.0.1"), dst=ipv4("10.0.0.2"), proto="tcp"),
                TCPHeader(src_port=1000, dst_port=80),
            ),
            payload=payload,
        )

    def test_size_accounts_headers_and_payload(self):
        pkt = self._tcp_packet(b"x" * 100)
        assert pkt.size_bytes == 20 + 20 + 100

    def test_ipv6_header_is_40(self):
        pkt = Packet(
            headers=(IPHeader(src=ipv6("::1"), dst=ipv6("::2"), proto="tcp"),)
        )
        assert pkt.size_bytes == 40

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IPHeader(src=ipv4("1.2.3.4"), dst=ipv6("::1"), proto="tcp")

    def test_virtual_payload_counts(self):
        pkt = self._tcp_packet(VirtualPayload(5000))
        assert pkt.size_bytes == 40 + 5000

    def test_virtual_payload_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualPayload(-1)

    def test_push_pop_roundtrip(self):
        pkt = self._tcp_packet()
        esp = ESPHeader(spi=1, seq=1)
        wrapped = pkt.pushed(esp)
        assert wrapped.size_bytes == pkt.size_bytes + esp.header_len
        header, inner = wrapped.popped()
        assert header is esp
        assert inner.headers == pkt.headers

    def test_pop_empty_raises(self):
        with pytest.raises(ValueError):
            Packet(headers=()).popped()

    def test_find(self):
        pkt = self._tcp_packet()
        assert isinstance(pkt.find(TCPHeader), TCPHeader)
        assert pkt.find(UDPHeader) is None

    def test_meta_preserved_across_push_pop(self):
        pkt = self._tcp_packet().with_meta(flow=7)
        wrapped = pkt.pushed(ESPHeader(spi=1, seq=1))
        _, inner = wrapped.popped()
        assert inner.meta["flow"] == 7

    def test_packet_as_payload(self):
        inner = self._tcp_packet(b"x" * 10)
        outer = Packet(
            headers=(UDPHeader(src_port=1, dst_port=2),), payload=inner
        )
        assert outer.size_bytes == 8 + inner.size_bytes

    def test_esp_header_len_tracks_fields(self):
        base = ESPHeader(spi=1, seq=1, iv_len=0, icv_len=0, pad_len=0)
        assert base.header_len == 10  # spi + seq + padlen byte + next header
        full = ESPHeader(spi=1, seq=1, iv_len=16, icv_len=12, pad_len=4)
        assert full.header_len == 10 + 16 + 12 + 4

    def test_hip_header_is_40(self):
        assert HIPHeader(packet_type="I1").header_len == 40

    def test_icmp_header(self):
        assert ICMPHeader(kind="echo-request", ident=1, seq=1).header_len == 8
