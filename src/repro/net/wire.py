"""What crosses the wire: a bounds-checked cursor over received bytes, and
the immutable tuple base of the values a packet is made of.

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

:class:`WireValue` is the tuple base of every value built or hashed per
packet-hop, so construction, field access and hashing run in C.
"""

from __future__ import annotations

import struct
from collections import namedtuple

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


class WireValue(tuple):
    """An immutable record stored as the tuple of its fields.

    A subclass declares ``__slots__ = ()`` (so it has no ``__dict__``) and
    annotates its fields, with defaults, as a dataclass would.  It gets
    namedtuple's C field accessors and, unless it writes its own (to
    validate), namedtuple's positional-or-keyword ``__new__``.  The contract:

    * ``hash(v) == hash(tuple(v))``: what a frozen dataclass over the same
      fields computes, so set and dict order do not depend on the choice;
    * equality is class-strict: a value never equals a bare tuple, nor a
      value of another type with the same fields;
    * ``repr`` is the dataclass form ``Name(field=value, ...)``;
    * pickling re-runs ``__new__``, validation included;
    * ``_replace(**changes)`` is ``dataclasses.replace``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if not names:
            return
        defaults = [cls.__dict__[name] for name in names if name in cls.__dict__]
        # namedtuple writes the accessors and __new__ a hand-written type would.
        template = namedtuple(cls.__name__, names, defaults=defaults)
        cls._fields = names
        for name in names:
            setattr(cls, name, template.__dict__[name])
        if "__new__" not in cls.__dict__:
            cls.__new__ = staticmethod(template.__new__)

    def __eq__(self, other: object) -> bool:
        return self is other or (self.__class__ is other.__class__ and tuple.__eq__(self, other))

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __getnewargs__(self) -> tuple:
        return self[:]

    def _replace(self, **changes):
        values = [changes.pop(name, value) for name, value in zip(self._fields, self)]
        if changes:
            raise TypeError(f"{type(self).__name__} has no fields {sorted(changes)}")
        return type(self)(*values)
