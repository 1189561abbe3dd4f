"""Bounds-checked cursor over received bytes.

Every byte a peer can put on the wire is attacker-controlled.  A parser
that reads it through :class:`WireReader` cannot forget a length check:
each read either returns exactly the bytes asked for or raises the
*caller's* domain error (``HipParseError``, ``DnsDecodeError``, …) naming
the field and the offset — never ``struct.error`` or ``IndexError``, and
never a silently short slice.  The analyzer's VAL001 keeps raw
``struct.unpack*`` out of every other product module, so this file is the
one place the bounds arithmetic lives.

Semantic checks stay with the parser: that a length field equals the
packet size, that parameters ascend, that padding is zero, that an address
family matches its record type.
"""

from __future__ import annotations

import struct

#: Big-endian scalars most wire formats here are made of.
U8 = struct.Struct(">B")
U16 = struct.Struct(">H")
U32 = struct.Struct(">I")


class WireReader:
    """Read ``data`` front to back; short or negative reads raise ``error``."""

    __slots__ = ("_data", "_pos", "_error")

    def __init__(self, data: bytes | bytearray | memoryview, error: type[Exception]) -> None:
        self._data = data
        self._pos = 0
        self._error = error

    @property
    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return len(self._data) - self._pos

    def _short(self, n: int, what: str) -> Exception:
        return self._error(
            f"truncated {what}: need {n} bytes at offset {self._pos}, "
            f"{self.remaining} remain"
        )

    # ``read`` and ``take`` each carry their own bounds check: they are the
    # per-field hot path of HipPacket.parse and the shard frame codec.
    def read(self, layout: struct.Struct, what: str) -> tuple:
        """The next ``layout.size`` bytes, unpacked as ``layout``."""
        pos = self._pos
        end = pos + layout.size
        if end > len(self._data):
            raise self._short(layout.size, what)
        self._pos = end
        return layout.unpack_from(self._data, pos)

    def take(self, n: int, what: str) -> bytes:
        """The next ``n`` bytes (``n`` is typically a wire-declared length)."""
        pos = self._pos
        end = pos + n
        if n < 0 or end > len(self._data):
            raise self._short(n, what)
        self._pos = end
        return bytes(self._data[pos:end])

    def expect_end(self, what: str) -> None:
        """Raise unless every byte was consumed."""
        if self._pos != len(self._data):
            raise self._error(
                f"{self.remaining} trailing bytes after {what} at offset {self._pos}"
            )
