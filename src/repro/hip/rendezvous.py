"""HIP rendezvous server (RFC 5204) with RFC 5203-style registration.

Mobile responders register their current locator with an RVS over an
authenticated HIP association (REG_REQUEST carried in a signed UPDATE);
initiators send I1 to the RVS, which relays it to the responder's registered
locator with a FROM parameter carrying the initiator's address.  The
responder answers R1 *directly* to the initiator (the daemon honours FROM),
and the rest of the exchange — and all data — bypasses the RVS.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.hip import packets as hp
from repro.hip.daemon import HipDaemon
from repro.net.addresses import IPAddress
from repro.net.packet import IPHeader

if TYPE_CHECKING:  # pragma: no cover
    pass

REGTYPE_RENDEZVOUS = 1


class RendezvousServer:
    """An RVS: a HIP daemon extended with registration + I1 relaying."""

    def __init__(self, daemon: HipDaemon) -> None:
        self.daemon = daemon
        self.node = daemon.node
        self.registrations: dict[IPAddress, IPAddress] = {}  # HIT -> locator
        self.relayed_i1 = 0
        self._hook_daemon()

    def _hook_daemon(self) -> None:
        original_i1 = self.daemon._handle_i1
        original_update = self.daemon._handle_update

        def handle_i1(i1: hp.HipPacket, ip: IPHeader) -> Generator:
            if i1.receiver_hit != self.daemon.hit:
                locator = self.registrations.get(i1.receiver_hit)
                if locator is not None:
                    relayed = hp.HipPacket(
                        packet_type=hp.I1,
                        sender_hit=i1.sender_hit,
                        receiver_hit=i1.receiver_hit,
                    )
                    relayed.add(hp.FROM, hp.build_from(ip.src))
                    self.relayed_i1 += 1
                    yield from self.node.cpu_work(3e-6)
                    self.daemon._send_control(relayed, locator)
                return
            yield from original_i1(i1, ip)

        def handle_update(pkt: hp.HipPacket, ip: IPHeader) -> Generator:
            yield from original_update(pkt, ip)
            reg = pkt.get(hp.REG_REQUEST)
            if reg is None:
                return
            assoc = self.daemon.assocs.get(pkt.sender_hit)
            if assoc is None or not assoc.is_established:
                return
            # Registrations must be authenticated: re-check the packet HMAC.
            if not self.daemon._hmac_ok(pkt, assoc.hmac_in):
                return
            if REGTYPE_RENDEZVOUS in list(reg):
                self.registrations[pkt.sender_hit] = ip.src
                response = self.daemon._new_packet(hp.NOTIFY, pkt.sender_hit)
                response.add(hp.REG_RESPONSE, bytes([REGTYPE_RENDEZVOUS]))
                self.daemon._finalize_and_send(response, assoc, sign=False)

        self.daemon._handle_i1 = handle_i1  # type: ignore[method-assign]
        self.daemon._handle_update = handle_update  # type: ignore[method-assign]

    def registered_locator(self, hit: IPAddress) -> IPAddress | None:
        return self.registrations.get(hit)

    def deregister(self, hit: IPAddress) -> None:
        self.registrations.pop(hit, None)


def register_with_rvs(
    daemon: HipDaemon, rvs_hit: IPAddress, rvs_locator: IPAddress, timeout: float = 30.0
) -> Generator:
    """Process-generator: authenticate to the RVS and register our locator.

    Returns the association with the RVS once REG_REQUEST has been sent.
    Peers wanting to reach us can then use ``add_peer(our_hit,
    [rvs_locator])`` and their I1s will be relayed.
    """
    daemon.add_peer(rvs_hit, [rvs_locator])
    assoc = yield from daemon.associate(rvs_hit, timeout=timeout)
    assoc.update_id += 1
    update = daemon._new_packet(hp.UPDATE, rvs_hit)
    update.add(hp.REG_REQUEST, bytes([REGTYPE_RENDEZVOUS]))
    update.add(hp.SEQ, hp.build_seq(assoc.update_id))
    daemon._finalize_and_send(update, assoc, sign=True)
    return assoc
