"""HIT-based access control.

Two deployments from the paper's §IV-A:

* **End-host firewall** (scenario I): ``hosts.allow`` / ``hosts.deny``
  semantics keyed on cryptographic HITs instead of spoofable IP addresses.
  The daemon consults it before answering I1/I2 (inbound) and before
  starting a base exchange (outbound).
* **Middlebox firewall** (scenario II): installed on a hypervisor or other
  forwarding node, it inspects HIP control traffic flowing *through* the
  box and only forwards ESP flows whose HIT pair completed an observed,
  policy-permitted base exchange — the "HIP-aware firewall" of [30].
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.net.addresses import IPAddress
from repro.net.packet import ESPHeader, HIPHeader, IPHeader, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class Verdict(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"


class HipFirewall:
    """hosts.allow / hosts.deny policy over HITs.

    Matching follows the classic TCP-wrappers order: an entry in *allow*
    admits, else an entry in *deny* rejects, else the default applies.
    """

    def __init__(self, default: Verdict = Verdict.ALLOW) -> None:
        self.default = default
        self._allow: set[IPAddress] = set()
        self._deny: set[IPAddress] = set()
        self.denied_inbound = 0
        self.denied_outbound = 0

    def allow_hit(self, hit: IPAddress) -> None:
        self._allow.add(hit)
        self._deny.discard(hit)

    def deny_hit(self, hit: IPAddress) -> None:
        self._deny.add(hit)
        self._allow.discard(hit)

    def _verdict(self, hit: IPAddress) -> Verdict:
        if hit in self._allow:
            return Verdict.ALLOW
        if hit in self._deny:
            return Verdict.DENY
        return self.default

    def allow_inbound(self, peer_hit: IPAddress) -> bool:
        ok = self._verdict(peer_hit) is Verdict.ALLOW
        if not ok:
            self.denied_inbound += 1
        return ok

    def allow_outbound(self, peer_hit: IPAddress) -> bool:
        ok = self._verdict(peer_hit) is Verdict.ALLOW
        if not ok:
            self.denied_outbound += 1
        return ok


class MiddleboxFirewall:
    """HIP-aware firewall on a forwarding node (e.g. the hypervisor vswitch).

    Tracks base exchanges seen in transit: an I2 from HIT-I to HIT-R whose
    pair is policy-permitted opens a pinhole binding the ESP SPIs announced
    in I2/R2 (we bind locator pairs, since SPIs live inside the packets).
    ESP packets between locator pairs without an observed, permitted
    exchange are dropped.
    """

    def __init__(self, node: "Node", policy: HipFirewall | None = None) -> None:
        self.node = node
        self.policy = policy or HipFirewall()
        self._pinholes: set[frozenset] = set()
        self.dropped_esp = 0
        self.dropped_hip = 0
        self._install()

    def _install(self) -> None:
        original_forward = self.node._forward

        def forward(packet: Packet, size: int = 0) -> None:
            if not self._permit(packet):
                return
            original_forward(packet, size)

        self.node._forward = forward  # type: ignore[method-assign]

    def _permit(self, packet: Packet) -> bool:
        ip = packet.outer
        if not isinstance(ip, IPHeader):
            return True
        if ip.proto == "hip":
            return self._permit_hip(packet, ip)
        if ip.proto == "esp":
            key = frozenset((ip.src, ip.dst))
            if key in self._pinholes:
                return True
            self.dropped_esp += 1
            return False
        return True

    def _permit_hip(self, packet: Packet, ip: IPHeader) -> bool:
        raw = packet.meta.get("hip_raw")
        if raw is None:
            self.dropped_hip += 1
            return False
        from repro.hip import packets as hp

        try:
            hip_pkt = hp.HipPacket.parse(raw)
        except hp.HipParseError:
            self.dropped_hip += 1
            return False
        if not (
            self.policy.allow_inbound(hip_pkt.sender_hit)
            and self.policy.allow_inbound(hip_pkt.receiver_hit)
        ):
            self.dropped_hip += 1
            return False
        if hip_pkt.packet_type == hp.R2:
            # Exchange completed through us: open the data-plane pinhole.
            self._pinholes.add(frozenset((ip.src, ip.dst)))
        return True
