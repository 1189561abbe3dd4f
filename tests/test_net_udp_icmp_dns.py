"""UDP, ICMP and DNS tests."""

import pytest

from repro.net.addresses import ipv4
from repro.net.dns import (
    DnsDecodeError,
    DnsRecord,
    DnsResolver,
    DnsServer,
    Zone,
    decode_query,
    decode_response,
    encode_query,
    encode_response,
)
from repro.net.icmp import IcmpStack, ping
from repro.net.topology import lan_pair
from repro.net.udp import UdpStack

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


class TestUdp:
    def test_datagram_roundtrip(self, lan, drive):
        sim, a, b = lan
        ua, ub = UdpStack(a), UdpStack(b)
        server = ub.bind(5000)

        def flow():
            client = ua.bind(0)
            client.sendto(b"ping", B, 5000)
            data, (src, port) = yield server.recvfrom()
            server.sendto(b"pong", src, port)
            reply, _ = yield client.recvfrom()
            return bytes(data), bytes(reply)

        assert drive(sim, flow()) == (b"ping", b"pong")

    def test_unbound_port_drops(self, lan):
        sim, a, b = lan
        ua, ub = UdpStack(a), UdpStack(b)
        ua.bind(1234).sendto(b"x", B, 9999)
        sim.run()
        assert ub.rx_dropped == 1

    def test_double_bind_rejected(self, lan):
        _sim, a, _b = lan
        ua = UdpStack(a)
        ua.bind(53)
        with pytest.raises(OSError):
            ua.bind(53)

    def test_ephemeral_ports_unique(self, lan):
        _sim, a, _b = lan
        ua = UdpStack(a)
        ports = {ua.bind(0).port for _ in range(50)}
        assert len(ports) == 50
        assert all(p >= 49152 for p in ports)

    def test_close_releases_port(self, lan):
        _sim, a, _b = lan
        ua = UdpStack(a)
        sock = ua.bind(7000)
        sock.close()
        ua.bind(7000)  # no error

    def test_send_on_closed_socket_rejected(self, lan):
        _sim, a, _b = lan
        ua = UdpStack(a)
        sock = ua.bind(7000)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.sendto(b"x", B, 1)


class TestIcmp:
    def test_ping_rtt_matches_path_delay(self, lan, drive):
        sim, a, b = lan
        icmp_a, _icmp_b = IcmpStack(a), IcmpStack(b)
        rtts = drive(sim, ping(icmp_a, B, count=5, interval=0.01))
        assert len(rtts) == 5
        for rtt in rtts:
            assert rtt is not None
            # 2 x 100 us propagation + serialization + reply cost.
            assert 2e-4 < rtt < 1e-3

    def test_ping_unreachable_times_out(self, lan, drive):
        sim, a, b = lan
        icmp_a = IcmpStack(a)
        # no ICMP stack on b at all -> no replies
        rtts = drive(sim, ping(icmp_a, ipv4("10.0.0.99"), count=2,
                               interval=0.01, timeout=0.2))
        assert rtts == [None, None]

    def test_echo_reply_counter(self, lan, drive):
        sim, a, b = lan
        icmp_a, icmp_b = IcmpStack(a), IcmpStack(b)
        drive(sim, ping(icmp_a, B, count=3, interval=0.01))
        assert icmp_b.echo_replies_sent == 3


class TestDnsWireFormat:
    def test_query_roundtrip(self):
        data = encode_query("www.example.com", "A", 7)
        assert decode_query(data) == (7, "www.example.com", "A")

    def test_a_record_roundtrip(self):
        record = DnsRecord(name="h", rtype="A", ttl=60.0, address=ipv4("1.2.3.4"))
        qid, records = decode_response(encode_response(9, [record]))
        assert qid == 9
        assert records == [record]

    def test_hip_record_roundtrip(self):
        from repro.net.addresses import ipv6

        record = DnsRecord(
            name="vm1", rtype="HIP", ttl=30.0, hit=ipv6("2001:10::42"),
            host_id=b"RSA:fakekey", rvs=("rvs1.example", "rvs2.example"),
        )
        _, records = decode_response(encode_response(1, [record]))
        assert records == [record]

    def test_record_validation(self):
        with pytest.raises(ValueError):
            DnsRecord(name="x", rtype="A")  # missing address
        with pytest.raises(ValueError):
            DnsRecord(name="x", rtype="AAAA", address=ipv4("1.2.3.4"))
        with pytest.raises(ValueError):
            DnsRecord(name="x", rtype="HIP")  # missing HIT
        with pytest.raises(ValueError):
            DnsRecord(name="x", rtype="MX", address=ipv4("1.2.3.4"))


class TestDnsService:
    def _setup(self, sim, a, b):
        ua, ub = UdpStack(a), UdpStack(b)
        zone = Zone()
        zone.add(DnsRecord(name="db.internal", rtype="A", ttl=10.0,
                           address=ipv4("10.0.0.2")))
        server = DnsServer(b, ub, zone=zone)
        resolver = DnsResolver(a, ua, server_addr=B)
        return server, resolver

    def test_resolve(self, lan, drive):
        sim, a, b = lan
        server, resolver = self._setup(sim, a, b)
        records = drive(sim, resolver.query("db.internal", "A"))
        assert records[0].address == ipv4("10.0.0.2")
        assert server.queries_served == 1

    def test_negative_answer_empty(self, lan, drive):
        sim, a, b = lan
        _server, resolver = self._setup(sim, a, b)
        assert drive(sim, resolver.query("nope.internal", "A")) == []

    def test_cache_hits_skip_server(self, lan, drive):
        sim, a, b = lan
        server, resolver = self._setup(sim, a, b)

        def flow():
            yield from resolver.query("db.internal", "A")
            yield from resolver.query("db.internal", "A")
            return server.queries_served

        assert drive(sim, flow()) == 1

    def test_cache_expires_after_ttl(self, lan):
        sim, a, b = lan
        server, resolver = self._setup(sim, a, b)

        def flow():
            yield from resolver.query("db.internal", "A")
            yield sim.timeout(11.0)  # past the 10 s TTL
            yield from resolver.query("db.internal", "A")
            return server.queries_served

        proc = sim.process(flow())
        assert sim.run(until=proc) == 2

    def test_zone_remove(self, lan, drive):
        sim, a, b = lan
        server, resolver = self._setup(sim, a, b)
        server.zone.remove("db.internal", "A")
        assert drive(sim, resolver.query("db.internal", "A")) == []

    def test_query_timeout_without_server(self, lan):
        sim, a, _b = lan
        ua = UdpStack(a)
        resolver = DnsResolver(a, ua, server_addr=ipv4("10.0.0.77"))

        def flow():
            with pytest.raises(TimeoutError):
                yield from resolver.query("x", "A", timeout=0.1, retries=1)
            return True

        proc = sim.process(flow())
        assert sim.run(until=proc) is True


class TestDnsHostileInput:
    """Regressions for the decode hardening: malformed wire input must
    surface as DnsDecodeError (a ValueError), never struct.error or
    IndexError, and neither endpoint may die on a hostile datagram."""

    def test_truncated_query_raises_domain_error(self):
        raw = encode_query("www.example.com", "A", 7)
        for cut in (0, 1, 2, 4, len(raw) - 1):
            with pytest.raises(DnsDecodeError):
                decode_query(raw[:cut])

    def test_truncated_response_raises_domain_error(self):
        record = DnsRecord(name="h", rtype="A", ttl=60.0, address=ipv4("1.2.3.4"))
        raw = encode_response(9, [record])
        for cut in (0, 4, 6, len(raw) - 1):
            with pytest.raises(DnsDecodeError):
                decode_response(raw[:cut])

    def test_address_family_mismatch_rejected(self):
        record = DnsRecord(name="h", rtype="A", ttl=60.0, address=ipv4("1.2.3.4"))
        raw = encode_response(9, [record])
        # The family byte sits after header(5) + name(2+1) + rtype(2+1) + ttl(4).
        assert raw[15] == 4
        mutated = raw[:15] + bytes([6]) + raw[16:]
        with pytest.raises(DnsDecodeError, match="family-6"):
            decode_response(mutated)

    def test_inflated_rendezvous_count_rejected(self):
        from repro.net.addresses import ipv6

        record = DnsRecord(name="vm", rtype="HIP", ttl=30.0,
                           hit=ipv6("2001:10::42"), host_id=b"k", rvs=())
        raw = encode_response(1, [record])
        # With no rendezvous names the count byte is the final byte.
        mutated = raw[:-1] + b"\xff"
        with pytest.raises(DnsDecodeError):
            decode_response(mutated)

    def test_server_survives_malformed_queries(self, lan, drive):
        sim, a, b = lan
        ua, ub = UdpStack(a), UdpStack(b)
        zone = Zone()
        zone.add(DnsRecord(name="db.internal", rtype="A", ttl=10.0,
                           address=ipv4("10.0.0.2")))
        server = DnsServer(b, ub, zone=zone)
        attacker = ua.bind(0)
        for hostile in (b"", b"\x00", b"\x00\x01\x02\xff", b"\xff" * 40):
            attacker.sendto(hostile, B, 53)
        sim.run(until=1.0)
        resolver = DnsResolver(a, ua, server_addr=B)
        records = drive(sim, resolver.query("db.internal", "A"))
        assert records[0].address == ipv4("10.0.0.2")
        assert server.queries_served == 1  # hostile datagrams never counted

    @pytest.mark.parametrize("validating", [False, True], ids=["plain", "validating"])
    def test_resolver_retries_past_hostile_response(self, lan, drive, vpn_keys, validating):
        """One off-path garbage datagram costs a retry, never the lookup: the
        validating resolver runs the same query loop (the signed answer is
        read past its signatures by the plain one)."""
        from repro.net.dnssec import SignedZone, ValidatingResolver, encode_signed_response

        sim, a, b = lan
        ua, ub = UdpStack(a), UdpStack(b)
        sock = ub.bind(53)
        record = DnsRecord(name="db.internal", rtype="A", ttl=10.0,
                           address=ipv4("10.0.0.2"))
        zone = SignedZone(vpn_keys[0])
        zone.add(record)

        def hostile_then_honest():
            _data, (src, port) = yield sock.recvfrom()
            sock.sendto(b"\x00\x01\x02", src, port)  # corrupt: short header
            data, (src, port) = yield sock.recvfrom()
            qid, _qname, _qtype = decode_query(bytes(data))
            sock.sendto(encode_signed_response(zone, qid, [record]), src, port)

        sim.process(hostile_then_honest())
        if validating:
            resolver = ValidatingResolver(a, ua, B, trust_anchor=zone.public_key)
        else:
            resolver = DnsResolver(a, ua, server_addr=B)
        records = drive(sim, resolver.query("db.internal", "A", timeout=1.0, retries=2))
        assert records[0].address == ipv4("10.0.0.2")
        if validating:
            assert (resolver.validated, resolver.rejected) == (1, 0)
