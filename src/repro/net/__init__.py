"""Packet-level network substrate on the discrete-event engine.

Implements everything the experiments need below the HIP/TLS layers:
IPv4/IPv6 addressing, links with bandwidth/latency/queues, nodes with
interfaces and protocol dispatch, static routing, NAT, UDP, TCP, ICMP
echo and Teredo tunneling.
Peers find each other through static host tables.
"""

from repro.net.addresses import (
    IPAddress,
    Prefix,
    ipv4,
    ipv6,
    is_hit,
    is_lsi,
)
from repro.net.link import Link
from repro.net.node import Interface, Node
from repro.net.packet import Packet, VirtualPayload

__all__ = [
    "IPAddress",
    "Interface",
    "Link",
    "Node",
    "Packet",
    "Prefix",
    "VirtualPayload",
    "ipv4",
    "ipv6",
    "is_hit",
    "is_lsi",
]
