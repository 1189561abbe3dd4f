"""The wire-value contract: addresses, headers, payload wrappers and packets
are immutable ``tuple`` types that behave exactly as the frozen dataclasses
they replaced — same hash, same class-strict equality, same ``repr`` (the
shard boundary digest hashes it), same pickling and validation."""

import pickle

import pytest

from repro.hip.esp import EspCiphertext
from repro.net.addresses import IPAddress, ipv4, ipv6, prefix
from repro.net.node import Node
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
from repro.net.topology import wire
from repro.sim.shard import Envelope, decode_envelopes, encode_envelopes
from repro.tls.vpn import VpnRecordHeader

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")
INNER = Packet(
    (IPHeader(A, B, "tcp"), TCPHeader(80, 4000, seq=5, flags=frozenset({"ACK"}))),
    VirtualPayload(100, "x"),
)

#: (value, the fields a frozen dataclass compared and hashed, its repr as
#: the dataclass printed it).
CASES = [
    (A, (4, 0x0A000001), "ip('10.0.0.1')"),
    (ipv6("2001:10::1"), (6, 0x20010010 << 96 | 1), "ip('2001:10:0:0:0:0:0:1')"),
    (IPHeader(A, B, "tcp"), (A, B, "tcp", 64),
     "IPHeader(src=ip('10.0.0.1'), dst=ip('10.0.0.2'), proto='tcp', ttl=64)"),
    (IPHeader(src=A, dst=B, proto="udp", ttl=3), (A, B, "udp", 3),
     "IPHeader(src=ip('10.0.0.1'), dst=ip('10.0.0.2'), proto='udp', ttl=3)"),
    (UDPHeader(53, 1234), (53, 1234), "UDPHeader(src_port=53, dst_port=1234)"),
    (TCPHeader(80, 4000, seq=5, ack=7, flags=frozenset({"SYN"}), window=100, sack=((1, 2),)),
     (80, 4000, 5, 7, frozenset({"SYN"}), 100, ((1, 2),)),
     "TCPHeader(src_port=80, dst_port=4000, seq=5, ack=7, flags=frozenset({'SYN'}), "
     "window=100, sack=((1, 2),))"),
    (ICMPHeader("echo-request", 1, 2), ("echo-request", 1, 2),
     "ICMPHeader(kind='echo-request', ident=1, seq=2)"),
    (ESPHeader(0x1234, 9), (0x1234, 9, 16, 12, 0),
     "ESPHeader(spi=4660, seq=9, iv_len=16, icv_len=12, pad_len=0)"),
    (ESPHeader(1, 2, iv_len=0, icv_len=12, pad_len=3), (1, 2, 0, 12, 3),
     "ESPHeader(spi=1, seq=2, iv_len=0, icv_len=12, pad_len=3)"),
    (HIPHeader("I1"), ("I1",), "HIPHeader(packet_type='I1')"),
    (VpnRecordHeader(3), (3, 8), "VpnRecordHeader(seq=3, pad_len=8)"),
    (VirtualPayload(1400), (1400, ""), "VirtualPayload(size=1400, tag='')"),
    (VirtualPayload(5, "iperf"), (5, "iperf"), "VirtualPayload(size=5, tag='iperf')"),
    (INNER, INNER[:2], "<Packet IP/TCP 140B>"),
    (EspCiphertext(INNER, 120), (INNER, 120, None, None, None),
     "EspCiphertext(inner=<Packet IP/TCP 140B>, wire_len=120, ciphertext=None, "
     "icv=None, iv=None)"),
    (EspCiphertext(Packet((UDPHeader(1, 2),), b"hi"), 16, b"cccc", b"ii", b"vvv"),
     (Packet((UDPHeader(1, 2),), b"hi"), 16, b"cccc", b"ii", b"vvv"),
     "EspCiphertext(inner=<Packet UDP 10B>, wire_len=16, ciphertext=b'cccc', "
     "icv=b'ii', iv=b'vvv')"),
]
IDS = [type(value).__name__ for value, _, _ in CASES]


@pytest.mark.parametrize("value,fields,text", CASES, ids=IDS)
def test_hash_is_the_field_tuple_hash(value, fields, text):
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("value,fields,text", CASES, ids=IDS)
def test_repr_matches_the_dataclass_repr(value, fields, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,fields,text", CASES, ids=IDS)
def test_equality_is_class_strict(value, fields, text):
    twin = pickle.loads(pickle.dumps(value))
    assert twin == value and not (twin != value) and twin is not value
    plain = fields  # the plain tuple of the same compared fields
    assert value != plain and plain != value and not (value == plain)
    assert {plain: 1}.get(value) is None and {value: 1}.get(plain) is None
    assert all(value != other for other, _, _ in CASES if type(other) is not type(value))


def test_same_fields_different_type_are_unequal():
    assert IPAddress(4, 5) != (4, 5)
    assert IPAddress(4, 5) != UDPHeader(4, 5)
    assert UDPHeader(4, 5) != IPAddress(4, 5)
    assert IPAddress(4, 5) == IPAddress(4, 5)
    assert len({IPAddress(4, 5), UDPHeader(4, 5), (4, 5)}) == 3


@pytest.mark.parametrize("value,fields,text", CASES, ids=IDS)
def test_values_are_immutable_and_carry_no_dict(value, fields, text):
    assert not hasattr(value, "__dict__")
    name = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.anything = 1


def test_packet_meta_is_excluded_from_equality_and_hash():
    a = Packet((UDPHeader(1, 2),), b"x", {"ce": True})
    b = Packet((UDPHeader(1, 2),), b"x")
    assert a == b and hash(a) == hash(b) and a.meta != b.meta
    assert Packet((UDPHeader(1, 2),)).meta == {}
    assert Packet((UDPHeader(1, 2),)).meta is not Packet((UDPHeader(1, 2),)).meta


def test_pickle_round_trips_through_the_shard_frame_codec():
    ciphertext = EspCiphertext(INNER, 120, b"c" * 16, b"i" * 12, b"v" * 16)
    packets = [
        Packet((IPHeader(A, B, "esp", ttl=9), ESPHeader(7, 1)), ciphertext, {"addr_kind": "lsi"}),
        INNER,
        Packet((IPHeader(ipv6("2001:10::1"), ipv6("2001:10::2"), "hip"), HIPHeader("R1")), b"raw"),
        Packet((IPHeader(A, B, "sslvpn"), VpnRecordHeader(4, pad_len=2)), INNER),
        Packet((IPHeader(A, B, "icmp"), ICMPHeader("echo-reply", 3, 4)), b""),
        Packet((IPHeader(A, B, "udp"), UDPHeader(5, 6)), VirtualPayload(10)),
    ]
    envelopes = [
        Envelope(arrival=0.5 + i, src_shard="z0", src_index=0, seq=i, dst_shard="z1",
                 port_id="p", packet=packet)
        for i, packet in enumerate(packets)
    ]
    decoded, _end = decode_envelopes(encode_envelopes(envelopes))
    for env, back in zip(envelopes, decoded):
        sent, got = env.packet, back.packet
        assert got == sent and hash(got) == hash(sent) and got.meta == sent.meta
        assert [repr(h) for h in got.headers] == [repr(h) for h in sent.headers]
        assert [type(h) for h in got.headers] == [type(h) for h in sent.headers]
        assert type(got.payload) is type(sent.payload) and got.payload == sent.payload
    assert decoded[0].packet.payload.inner == INNER


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: IPAddress(4, 1 << 32), "IPv4 address out of range"),
        (lambda: IPAddress(4, -1), "IPv4 address out of range"),
        (lambda: IPAddress(6, 1 << 128), "IPv6 address out of range"),
        (lambda: IPAddress(5, 1), "unknown address family 5"),
        (lambda: IPHeader(A, ipv6("::1"), "tcp"), "IP src/dst family mismatch"),
        (lambda: VirtualPayload(-1), "negative payload size"),
    ],
    ids=["v4-range", "v4-negative", "v6-range", "family", "ip-mismatch", "payload"],
)
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_validation_runs_on_unpickle_and_replace():
    blob = pickle.dumps(IPHeader(A, B, "tcp"))
    assert pickle.loads(blob) == IPHeader(A, B, "tcp")
    with pytest.raises(ValueError, match="family mismatch"):
        IPHeader(A, B, "tcp")._replace(dst=ipv6("::1"))
    with pytest.raises(TypeError, match="no fields"):
        UDPHeader(1, 2)._replace(port=3)
    assert TCPHeader(1, 2, seq=9)._replace(dst_port=7) == TCPHeader(1, 7, seq=9)


def test_fields_read_by_name_and_size_follows_them():
    tcp = TCPHeader(1, 2, sack=((10, 20), (30, 40)))
    assert (tcp.src_port, tcp.dst_port, tcp.sack) == (1, 2, ((10, 20), (30, 40)))
    assert tcp.header_len == 20 + 20 and tcp.has("ACK") is False
    assert IPHeader(A, B, "tcp").family == 4 and IPHeader(A, B, "tcp").header_len == 20
    assert len(VirtualPayload(77)) == 77 and len(EspCiphertext(INNER, 33)) == 33
    assert len(INNER) == INNER.size_bytes == 20 + 20 + 100


# -------------------------------------------- the node's local-address set --


def test_node_built_with_add_interface_addresses_delivers_to_them(sim):
    node = Node(sim, "n")
    addr = ipv4("10.9.0.1")
    node.add_interface("eth0", addr)
    seen = []
    node.register_protocol("udp", lambda n, p, i: seen.append(p), UDPHeader)
    assert node.has_address(addr)
    assert node.send_ip_fast(addr, "udp", (UDPHeader(1, 2),), b"hi")
    assert [p.payload for p in seen] == [b"hi"]


def test_removing_an_address_redirects_the_next_packet(sim):
    """``a`` answers to X locally until X is removed; then the next packet
    to X leaves on the route towards ``b``, which also owns X."""
    a, b = Node(sim, "a"), Node(sim, "b")
    x = ipv4("10.0.5.5")
    ia, _ib, _ = wire(sim, a, b, addr_a=ipv4("10.0.1.1"), addr_b=ipv4("10.0.1.2"))
    b.interfaces[0].add_address(x)
    lo = a.add_interface("lo", x)
    a.routes.add(prefix("10.0.5.0/24"), ia)
    got = {"a": [], "b": []}
    for name, node in (("a", a), ("b", b)):
        node.register_protocol("udp", lambda n, p, i, name=name: got[name].append(p), UDPHeader)

    def send() -> None:
        a.send_ip_fast(x, "udp", (UDPHeader(1, 2),), b"")
        sim.run()

    send()
    assert [len(got["a"]), len(got["b"])] == [1, 0]
    lo.remove_address(x)
    assert not a.has_address(x)
    send()
    assert [len(got["a"]), len(got["b"])] == [1, 1]
