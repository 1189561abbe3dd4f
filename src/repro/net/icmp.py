"""ICMP echo (ping) — the RTT measurement tool behind Figure 3's right axis.

The stack auto-replies to echo requests (charging a small CPU cost) and the
:func:`ping` helper sends N requests and collects per-request RTTs, exactly
like ``ping -c N`` in the paper's measurement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.net.addresses import IPAddress
from repro.net.packet import ICMPHeader, IPHeader, Packet, Payload

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Interface, Node

ECHO_PAYLOAD_BYTES = 56  # default ping payload, matching iputils


class IcmpStack:
    """Per-node ICMP engine; answers echo requests, matches replies to waiters."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self._waiters: dict[tuple[int, int], object] = {}  # (ident, seq) -> Event
        self._next_ident = 1
        node.register_protocol("icmp", self._on_packet, ICMPHeader)
        self.echo_replies_sent = 0

    def _on_packet(self, node: "Node", packet: Packet, iface: "Interface | None") -> None:
        ip, icmp = packet.headers[:2]  # Node dispatch checks icmp is an ICMPHeader
        if icmp.kind == "echo-request":
            self.node.sim.process(self._reply(ip, icmp, packet.payload), name="icmp-reply")
        elif icmp.kind == "echo-reply":
            evt = self._waiters.pop((icmp.ident, icmp.seq), None)
            if evt is not None and not evt.triggered:  # type: ignore[attr-defined]
                evt.succeed(self.node.sim.now)  # type: ignore[attr-defined]

    def _reply(self, ip: IPHeader, icmp: ICMPHeader, payload: Payload) -> Generator:
        # Tiny kernel cost for the reply path.
        yield from self.node.cpu_work(1e-6)
        reply = Packet(
            headers=(ICMPHeader(kind="echo-reply", ident=icmp.ident, seq=icmp.seq),),
            payload=payload,
        )
        self.node.send_ip(ip.src, "icmp", reply, src=ip.dst)
        self.echo_replies_sent += 1

    def echo(
        self, dst: IPAddress, timeout: float = 1.0, payload_bytes: int = ECHO_PAYLOAD_BYTES
    ) -> Generator:
        """Process-generator: one echo round trip; returns RTT seconds or None."""
        sim = self.node.sim
        ident = self._next_ident
        self._next_ident += 1
        evt = sim.event()
        key = (ident, 1)
        self._waiters[key] = evt
        sent_at = sim.now
        req = Packet(
            headers=(ICMPHeader(kind="echo-request", ident=ident, seq=1),),
            payload=b"\x00" * payload_bytes,
        )
        ok = self.node.send_ip(dst, "icmp", req)
        if not ok:
            self._waiters.pop(key, None)
            return None
        deadline = sim.timeout(timeout)
        from repro.sim.events import AnyOf

        winner, _ = yield AnyOf(sim, [evt, deadline])
        if winner is evt:
            return sim.now - sent_at
        self._waiters.pop(key, None)
        return None


def ping(
    icmp: IcmpStack,
    dst: IPAddress,
    count: int = 20,
    interval: float = 0.2,
    timeout: float = 1.0,
) -> Generator:
    """Process-generator: ``count`` echo requests; returns list of RTTs (s).

    Lost probes contribute ``None`` entries, as in real ping output.
    """
    rtts: list[float | None] = []
    for i in range(count):
        rtt = yield icmp.node.sim.process(icmp.echo(dst, timeout=timeout))
        rtts.append(rtt)
        if i != count - 1:
            yield icmp.node.sim.timeout(interval)
    return rtts
