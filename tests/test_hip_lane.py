"""The ESP data path's callback lanes and the ``real_crypto`` switch.

Ordering (a packet queued behind a base exchange leaves before anything
submitted later), liveness (every rx drop path hands the lane on), the
pending-queue bound, and which runs cipher: ``HipConfig(real_crypto=False)``
daemons charge the cost model and never touch AES, the default still does.
"""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest

from repro.apps.workload import ClosedLoopClients
from repro.crypto.costmodel import CostModel
from repro.hip.daemon import HipConfig, HipDaemon, HipState
from repro.hip.esp import EspCiphertext
from repro.metrics import METRICS, RECORDER
from repro.net.addresses import ipv4
from repro.net.packet import ESPHeader, Packet, UDPHeader
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud
from repro.sim import Simulator
from repro.sim.engine import TimerHandle
from tests.conftest import build_hip_pair, run_proc

B, NOBODY = ipv4("10.0.0.2"), ipv4("10.0.0.250")


def datagram(tag: int) -> Packet:
    return Packet(headers=(UDPHeader(src_port=1, dst_port=2),), payload=bytes([tag]))


def udp_sink(node) -> list[int]:
    """Collect the tag byte of every UDP datagram delivered to ``node``."""
    tags: list[int] = []
    node.register_protocol("udp", lambda n, packet, iface: tags.append(packet.payload[0]))
    return tags


def counter(name: str) -> int:
    return METRICS.counter(name).value


def configured_pair(sim, identities, config, **node_kw):
    """``conftest.build_hip_pair`` with a ``HipConfig`` on both daemons
    (``node_kw`` goes to both nodes)."""
    a, b = lan_pair(sim, "a", "b", **node_kw)
    da = HipDaemon(a, identities["a"], rng=random.Random(11), config=config)
    db = HipDaemon(b, identities["b"], rng=random.Random(22), config=config)
    da.add_peer(db.hit, [B])
    db.add_peer(da.hit, [ipv4("10.0.0.1")])
    return a, b, da, db


# ------------------------------------------------------------------- tx lane --


def test_queued_then_flushed_packets_leave_before_newer_ones(hip_pair):
    """Five datagrams wait out the base exchange; two more are submitted the
    moment it completes, while the flush still owns the CPU.  At the parent
    the flush ran in the control worker and the newer ones cut in."""
    sim, a, b, da, db = hip_pair
    got = udp_sink(b)
    for tag in range(5):
        a.send_ip(db.hit, "udp", datagram(tag))

    def late_sender():
        yield from da.associate(db.hit)
        assert da.assocs[db.hit].sa_out.packets_protected < 5  # flush under way
        a.send_ip(db.hit, "udp", datagram(5))
        a.send_ip(da.lsi_for_peer(db.hit), "udp", datagram(6))

    run_proc(sim, late_sender())
    sim.run(until=sim.now + 1.0)
    assert got == [0, 1, 2, 3, 4, 5, 6]
    assert da.data_packets_sent == db.data_packets_received == 7
    assert db.assocs[da.hit].sa_in.replay_drops == 0


def test_uncharged_lane_keeps_order(sim, session_identities):
    """On nodes whose every cost is 0 each CPU step runs inline; order
    still holds."""
    free = CostModel(**{f.name: 0.0 for f in dataclasses.fields(CostModel)})
    a, b, da, db = configured_pair(sim, session_identities, HipConfig(), cost_model=free)
    got = udp_sink(b)
    for tag in range(4):
        a.send_ip(db.hit, "udp", datagram(tag))
    sim.run(until=1.0)
    for tag in range(4, 8):
        a.send_ip(db.hit, "udp", datagram(tag))
    sim.run(until=2.0)
    assert got == list(range(8))


def test_pending_queue_overflow_is_counted(sim, session_identities):
    a, b = lan_pair(sim, "a", "b")
    da = HipDaemon(a, session_identities["a"], rng=random.Random(11),
                   config=HipConfig(queue_limit=4))
    peer = session_identities["b"].hit
    da.add_peer(peer, [NOBODY])  # nobody answers: the exchange stays pending
    before = counter("hip.drops_queue_full")
    with RECORDER.recording():
        for tag in range(10):
            a.send_ip(peer, "udp", datagram(tag))
        sim.run(until=0.1)
        drops = [ev.fields for ev in RECORDER.events("hip", "tx_drop")]
    RECORDER.clear()
    assoc = da.assocs[peer]
    assert assoc.state == HipState.I1_SENT
    assert [packet.payload[0] for _hit, packet, _kind, _size in assoc.queued] == [0, 1, 2, 3]
    assert da.drops_queue_full == 6
    assert counter("hip.drops_queue_full") - before == 6
    assert len(drops) == 6
    assert {d["reason"] for d in drops} == {"queue_full"} and drops[0]["peer"] == str(peer)


# ------------------------------------------------------------------- rx lane --


def _unknown_spi(da, db, good_wire) -> Packet:
    return Packet(
        headers=(ESPHeader(spi=0xDEAD, seq=1),),
        payload=EspCiphertext(inner=datagram(99), wire_len=1),
    )


def _malformed_payload(da, db, good_wire) -> Packet:
    spi = db.assocs[da.hit].sa_in.spi
    return Packet(headers=(ESPHeader(spi=spi, seq=50),), payload=b"not an ESP payload")


def _non_packet_inner(da, db, good_wire) -> Packet:
    # No ciphertext, so nothing authenticates the carried ``inner``.
    spi = db.assocs[da.hit].sa_in.spi
    return Packet(headers=(ESPHeader(spi=spi, seq=50),),
                  payload=EspCiphertext(inner=b"not a packet", wire_len=1))


def _replayed(da, db, good_wire) -> Packet:
    esp_header, body = good_wire.popped()[1].popped()
    return Packet(headers=(esp_header,), payload=body.payload)


@pytest.mark.parametrize(
    "forge, reason",
    [(_unknown_spi, "unknown_spi"), (_malformed_payload, "malformed_payload"),
     (_non_packet_inner, "malformed_payload"), (_replayed, "replayed sequence")],
    ids=["unknown_spi", "malformed_payload", "non_packet_inner", "esp_error"],
)
def test_rx_lane_survives_each_drop_path(hip_pair, forge, reason):
    """A bad ESP packet and a good one arrive back to back: the bad one is
    dropped with its reason, the good one behind it is still delivered (a
    lane that forgets to advance after a drop wedges silently)."""
    sim, a, b, da, db = hip_pair
    got = udp_sink(b)
    wire: list[Packet] = []
    endpoint = a.interface("eth0")._endpoint
    send = endpoint.send
    endpoint.send = lambda packet, size=0: (wire.append(packet), send(packet, size))[1]
    a.send_ip(db.hit, "udp", datagram(0))
    sim.run(until=1.0)
    assert got == [0] and db.drops_esp == 0
    good_wire = [p for p in wire if p.outer.proto == "esp"][-1]

    with RECORDER.recording():
        a.send_ip(B, "esp", forge(da, db, good_wire))
        a.send_ip(db.hit, "udp", datagram(1))
        sim.run(until=2.0)
        reasons = [ev.fields["reason"] for ev in RECORDER.events("hip", "esp_drop")]
    RECORDER.clear()
    assert db.drops_esp == 1 and len(reasons) == 1 and reason in reasons[0]
    assert got == [0, 1]
    assert db._rx_lane.idle and not db._rx_lane.items
    # ... and the lane keeps serving afterwards.
    a.send_ip(db.hit, "udp", datagram(2))
    sim.run(until=3.0)
    assert got == [0, 1, 2]


# ----------------------------------------------------- which runs really cipher --


def test_rubis_hip_deployment_is_cost_model_only():
    """``build_rubis_cloud(security="hip")`` asks for ``real_crypto=False``:
    HTTP bytes cross ESP (protected == verified) and no AES block runs."""
    METRICS.reset()
    dep = build_rubis_cloud(seed=11, security="hip", n_web=1, extra_tenants=0)
    clients = ClosedLoopClients(
        dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
        n_clients=2, rng=dep.rngs.stream("lane-test"), timeout=2.0, warmup=0.1,
    )
    result = dep.sim.run(until=dep.sim.process(clients.run(0.4)))
    dep.sim.run(until=dep.sim.now + 1.0)
    dep.sim.close()
    assert result.successes >= 4 and result.failures == 0
    sas = [(assoc.sa_out, assoc.sa_in)
           for daemon in dep.daemons.values() for assoc in daemon.assocs.values()]
    assert sas and not any(sa.real for pair in sas for sa in pair)
    protected = sum(out.packets_protected for out, _in in sas)
    assert protected == sum(in_.packets_verified for _out, in_ in sas) > 100
    assert counter("crypto.aes_blocks") == 0


@pytest.mark.parametrize("config", [None, HipConfig(real_crypto=True)],
                         ids=["default", "real_crypto=True"])
def test_ciphering_daemons_still_cipher(sim, session_identities, config):
    """The default, and ``hip_realcrypto``'s explicit ``real_crypto=True``:
    real bytes are encrypted and the receiver decrypts them."""
    a, b, da, db = configured_pair(sim, session_identities, config)
    ta, tb = TcpStack(a), TcpStack(b)
    blob = bytes(range(256)) * 8

    def server():
        conn = yield tb.listen(9000).accept()
        return (yield from conn.recv_bytes(len(blob)))

    def client():
        conn = yield sim.process(ta.open_connection(db.hit, 9000))
        conn.write(blob)

    before = counter("crypto.aes_blocks")
    srv = sim.process(server())
    sim.process(client())
    assert sim.run(until=srv) == blob
    assert da.assocs[db.hit].sa_out.real and db.assocs[da.hit].sa_in.real
    assert counter("crypto.aes_blocks") - before >= 2 * len(blob) // 16


# ------------------------------------------------------ one pass per packet --


def _tcp_transfer(sim, a, b, dst, n_bytes: int) -> None:
    """``n_bytes`` from ``a`` to ``b`` over one packet-mode TCP connection."""
    ta, tb = TcpStack(a), TcpStack(b)

    def server():
        conn = yield tb.listen(9000).accept()
        return (yield from conn.recv_bytes(n_bytes))

    def client():
        conn = yield sim.process(ta.open_connection(dst, 9000))
        conn.write(bytes(n_bytes))

    srv = sim.process(server())
    sim.process(client())
    assert len(sim.run(until=srv)) == n_bytes
    sim.run(until=sim.now + 1.0)


#: The callbacks of the ESP path's own timers: a lane hop, a CPU charge's
#: completion, and the grant that hands a queued charge its CPU slot.
_PATH_TIMERS = {"_Lane._serve_next", "Node._cpu_done", "Node._cpu_granted", "Resource._grant"}


def test_lanes_and_cpu_charges_rearm_their_timers(monkeypatch, session_identities):
    """A transfer builds a few lane and CPU timers whatever its length, not
    one per lane hop and one per CPU charge."""
    built: collections.Counter = collections.Counter()
    init = TimerHandle.__init__

    def counting_init(self, sim, fn, *arg):
        built[getattr(fn, "__qualname__", "")] += 1
        init(self, sim, fn, *arg)

    monkeypatch.setattr(TimerHandle, "__init__", counting_init)
    # Two lanes per daemon; per one-core node, one completion and one grant timer.
    most = {"_Lane._serve_next": 4, "Node._cpu_done": 2, "Resource._grant": 2}
    for n_bytes in (10_000, 200_000):
        built.clear()
        sim, a, b, da, db = build_hip_pair(Simulator(), session_identities)
        _tcp_transfer(sim, a, b, db.hit, n_bytes)
        assert da.assocs[db.hit].sa_out.packets_protected > n_bytes // 1500
        path_timers = {fn: n for fn, n in built.items() if fn in _PATH_TIMERS}
        assert all(n <= most.get(fn, 0) for fn, n in path_timers.items()), path_timers


@pytest.mark.parametrize("kind", ["hit", "lsi"])
def test_meter_seconds_are_the_cost_model_of_the_inner_sizes(hip_pair, kind):
    """Each side's ESP meter holds exactly ``translation + esp_*_cost(inner
    size)`` summed over its packets, in order, bit for bit, with the cost
    spelled as ``aes_cost`` + ``hmac_cost``."""
    sim, a, b, da, db = hip_pair
    dst = db.hit if kind == "hit" else da.lsi_for_peer(db.hit)
    with RECORDER.recording():
        _tcp_transfer(sim, a, b, dst, 20_000)
        events = RECORDER.events("hip")
    RECORDER.clear()
    for daemon in (da, db):
        cm = daemon.node.cost_model
        translate = cm.lsi_translation if kind == "lsi" else cm.hit_translation
        sizes = {
            op: [ev.fields["bytes"] for ev in events
                 if ev.event == op and ev.fields["node"] == daemon.node.name]
            for op in ("esp_seal", "esp_open")
        }
        assert len(sizes["esp_seal"]) > 5 and len(sizes["esp_open"]) > 5
        encrypt = decrypt = 0.0
        for n in sizes["esp_seal"]:
            encrypt += translate + (cm.esp_encap_fixed + cm.aes_cost(n) + cm.hmac_cost(n, "sha1"))
        for n in sizes["esp_open"]:
            decrypt += translate + (cm.esp_decap_fixed + cm.aes_cost(n) + cm.hmac_cost(n, "sha1"))
        assert daemon.meter.seconds[f"esp.encrypt.{kind}"] == encrypt
        assert daemon.meter.seconds[f"esp.decrypt.{kind}"] == decrypt
        assert daemon.meter.ops[f"esp.encrypt.{kind}"] == len(sizes["esp_seal"])
