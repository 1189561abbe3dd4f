"""IP addresses and prefixes, including the HIP-specific ranges.

Addresses are immutable (family, int) pairs.  Two special ranges matter for
HIP (RFC 4843 / RFC 5338):

* **HITs** live in the ORCHID prefix ``2001:10::/28`` — IPv6-shaped
  identifiers that applications can use like addresses.
* **LSIs** live in ``1.0.0.0/8`` — locally-scoped IPv4 aliases for HITs so
  unmodified IPv4 applications can address HIP peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.net.wire import WireValue


class IPAddress(WireValue):
    """An IPv4 (family=4) or IPv6 (family=6) address."""

    __slots__ = ()
    family: int
    value: int

    def __new__(cls, family: int, value: int) -> "IPAddress":
        if family == 4:
            if not 0 <= value < (1 << 32):
                raise ValueError("IPv4 address out of range")
        elif family == 6:
            if not 0 <= value < (1 << 128):
                raise ValueError("IPv6 address out of range")
        else:
            raise ValueError(f"unknown address family {family}")
        return tuple.__new__(cls, (family, value))

    @property
    def bits(self) -> int:
        return 32 if self.family == 4 else 128

    def packed(self) -> bytes:
        return self.value.to_bytes(self.bits // 8, "big")

    def __str__(self) -> str:
        if self.family == 4:
            return ".".join(str((self.value >> s) & 0xFF) for s in (24, 16, 8, 0))
        groups = [(self.value >> s) & 0xFFFF for s in range(112, -16, -16)]
        return ":".join(f"{g:x}" for g in groups)

    def __repr__(self) -> str:
        return f"ip('{self}')"


@lru_cache(maxsize=4096)
def ipv4(text_or_int: str | int) -> IPAddress:
    """Parse dotted-quad text (or accept a raw int) into an IPv4 address."""
    if isinstance(text_or_int, int):
        return IPAddress(4, text_or_int)
    parts = text_or_int.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {text_or_int!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"IPv4 octet out of range in {text_or_int!r}")
        value = (value << 8) | octet
    return IPAddress(4, value)


@lru_cache(maxsize=4096)
def ipv6(text_or_int: str | int) -> IPAddress:
    """Parse (possibly ``::``-compressed) IPv6 text into an address."""
    if isinstance(text_or_int, int):
        return IPAddress(6, text_or_int)
    text = text_or_int
    if "::" in text:
        head, _, tail = text.partition("::")
        if "::" in tail:
            raise ValueError(f"multiple '::' in IPv6 address {text!r}")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise ValueError(f"malformed IPv6 address {text!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8 or any(g == "" for g in groups):
        raise ValueError(f"malformed IPv6 address {text!r}")
    value = 0
    for g in groups:
        part = int(g, 16)
        if not 0 <= part <= 0xFFFF:
            raise ValueError(f"IPv6 group out of range in {text!r}")
        value = (value << 16) | part
    return IPAddress(6, value)


@dataclass(frozen=True)
class Prefix:
    """A routing prefix: network address + length."""

    network: IPAddress
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= self.network.bits:
            raise ValueError(f"prefix length {self.length} out of range")
        shift = self.network.bits - self.length
        if self.network.value & ((1 << shift) - 1):
            raise ValueError(f"host bits set in prefix {self.network}/{self.length}")

    def contains(self, addr: IPAddress) -> bool:
        if addr.family != self.network.family:
            return False
        shift = addr.bits - self.length
        return (addr.value >> shift) == (self.network.value >> shift)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"


def prefix(text: str) -> Prefix:
    """Parse ``'10.0.0.0/8'`` or ``'2001:10::/28'`` style prefix text."""
    addr_text, _, len_text = text.partition("/")
    if not len_text:
        raise ValueError(f"prefix missing length: {text!r}")
    parse = ipv6 if ":" in addr_text else ipv4
    return Prefix(parse(addr_text), int(len_text))


# HIP-specific ranges.
ORCHID_PREFIX = prefix("2001:10::/28")  # HITs (RFC 4843)
LSI_PREFIX = prefix("1.0.0.0/8")  # Local-Scope Identifiers (HIPL convention)
TEREDO_PREFIX = prefix("2001:0::/32")  # Teredo (RFC 4380)


# Each membership test is one shift-compare on the address value; these
# equal ``PREFIX.contains(addr)`` for the prefixes above.
_ORCHID_SHIFT = 128 - ORCHID_PREFIX.length
_ORCHID_NET = ORCHID_PREFIX.network.value >> _ORCHID_SHIFT
_LSI_SHIFT = 32 - LSI_PREFIX.length
_LSI_NET = LSI_PREFIX.network.value >> _LSI_SHIFT
_TEREDO_SHIFT = 128 - TEREDO_PREFIX.length
_TEREDO_NET = TEREDO_PREFIX.network.value >> _TEREDO_SHIFT


def is_hit(addr: IPAddress) -> bool:
    """True if ``addr`` is a Host Identity Tag (ORCHID-prefixed IPv6)."""
    return addr.family == 6 and addr.value >> _ORCHID_SHIFT == _ORCHID_NET


def is_lsi(addr: IPAddress) -> bool:
    """True if ``addr`` is a Local-Scope Identifier (1.x.x.x IPv4)."""
    return addr.family == 4 and addr.value >> _LSI_SHIFT == _LSI_NET


def is_teredo(addr: IPAddress) -> bool:
    return addr.family == 6 and addr.value >> _TEREDO_SHIFT == _TEREDO_NET
