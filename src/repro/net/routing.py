"""Static routing with longest-prefix match.

Routes map a destination prefix to an egress interface (links are
point-to-point, so no ARP/next-hop resolution is needed: whatever is on the
other end of the interface's link receives the packet and either consumes or
forwards it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.net.addresses import IPAddress, Prefix
from repro.net.packet import IPHeader

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Serializer
    from repro.net.node import Interface

#: Bound on each forwarding cache, in entries.  64 already catches most of
#: the flows a RUBiS forwarding hop sees; the bound exists for memory, since
#: a scale run has a cache on every router.
FORWARD_CACHE_SIZE = 64


class Route(NamedTuple):
    prefix: Prefix
    interface: "Interface"


class RouteTable:
    """Longest-prefix-match table, per address family."""

    def __init__(self) -> None:
        self._routes: dict[int, list[Route]] = {4: [], 6: []}
        # Memoized lookup results; lookup is deterministic for a fixed table,
        # so entries stay valid until add()/remove() clears them.
        self._cache: dict[IPAddress, "Interface | None"] = {}
        # Forwarding cache: header -> (TTL-decremented header, egress
        # serializer).  A flow's packets share one header object (the
        # sender's header cache), so after its first packet a transit hop
        # finds the answer by identity.  Node._on_receive reads it directly.
        self._hops: dict[IPHeader, tuple[IPHeader, "Serializer"]] = {}

    def invalidate(self) -> None:
        """Drop every memoized answer (the table or an address changed)."""
        self._cache.clear()
        self._hops.clear()

    def add(self, prefix: Prefix, interface: "Interface") -> None:
        family = prefix.network.family
        self._routes[family].append(Route(prefix, interface))
        # Keep sorted by descending length so lookup can stop at first hit.
        self._routes[family].sort(key=lambda r: -r.prefix.length)
        self.invalidate()

    def remove(self, prefix: Prefix, interface: "Interface | None" = None) -> int:
        """Remove routes matching ``prefix`` (and iface, if given); returns count."""
        family = prefix.network.family
        before = len(self._routes[family])
        self._routes[family] = [
            r for r in self._routes[family]
            if not (r.prefix == prefix and (interface is None or r.interface is interface))
        ]
        self.invalidate()
        return before - len(self._routes[family])

    def next_hop(self, ip: IPHeader) -> "tuple[IPHeader, Serializer] | None":
        """``(ip with TTL - 1, egress serializer)`` for forwarding a packet
        whose outer header is ``ip``; None without an attached route.

        Served from the forwarding cache (at most :data:`FORWARD_CACHE_SIZE`
        entries, oldest evicted first) when an equal header was seen before.
        """
        hops = self._hops
        hop = hops.get(ip)
        if hop is not None:
            return hop
        iface = self.lookup_cached(ip.dst)
        egress = None if iface is None else iface._endpoint
        if egress is None:
            return None
        if len(hops) >= FORWARD_CACHE_SIZE:
            del hops[next(iter(hops))]
        hop = hops[ip] = (ip._replace(ttl=ip.ttl - 1), egress)
        return hop

    def lookup(self, dst: IPAddress) -> "Interface | None":
        for route in self._routes[dst.family]:
            if route.prefix.contains(dst):
                return route.interface
        return None

    def lookup_cached(self, dst: IPAddress) -> "Interface | None":
        """Memoized longest-prefix match (the dataplane fast path).

        Same result as :meth:`lookup`; repeated queries for the same
        destination hit a dict that table mutations invalidate.
        """
        try:
            return self._cache[dst]
        except KeyError:
            iface = self._cache[dst] = self.lookup(dst)
            return iface
