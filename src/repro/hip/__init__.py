"""Host Identity Protocol (HIP) — the paper's primary contribution.

A complete RFC 5201-family HIP stack over the simulated network:

* :mod:`~repro.hip.identity` — Host Identifiers (public keys), HITs
  (ORCHID-prefixed 128-bit hashes) and Local-Scope Identifiers;
* :mod:`~repro.hip.packets` — byte-exact control packet wire format with
  TLV parameters, HMACs and signatures;
* :mod:`~repro.hip.esp` — BEET- and tunnel-mode ESP security associations
  (AES-CBC + HMAC-SHA1, anti-replay) for the data plane;
* :mod:`~repro.hip.daemon` — the per-host daemon: base exchange state
  machine, LSI/HIT flow interception, data-path translation,
  UPDATE-based locator handoff (RFC 5206) and CLOSE teardown;
* :mod:`~repro.hip.firewall` — HIT-based access control
  (hosts.allow/hosts.deny semantics, plus a middlebox variant).

Peers are found through each daemon's static host table (``hosts``);
puzzle difficulty is the fixed ``HipConfig.puzzle_k``, and SAs are keyed
once per base exchange.
"""

from repro.hip.daemon import HipConfig, HipDaemon
from repro.hip.esp import EspMode, SecurityAssociation
from repro.hip.firewall import HipFirewall, Verdict
from repro.hip.identity import HostIdentity, LsiAllocator, hit_from_public_key

__all__ = [
    "EspMode",
    "HipConfig",
    "HipDaemon",
    "HipFirewall",
    "HostIdentity",
    "LsiAllocator",
    "SecurityAssociation",
    "Verdict",
    "hit_from_public_key",
]
