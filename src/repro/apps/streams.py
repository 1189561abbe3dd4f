"""Byte-accurate reading over a TCP connection.

The application protocols (HTTP, the database wire protocol) read through
:class:`BufferedReader` and write with ``TcpConnection.write``.  The same
code runs in all three security scenarios of the paper: ``basic`` is plain
TCP, while ``hip`` and ``ssl`` address the peer by LSI/HIT or tunnel
address, and the node's HIP daemon or SSL-VPN daemon protects the packets
below TCP without the application knowing.
"""

from __future__ import annotations

from typing import Generator

from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpConnection


class StreamClosed(Exception):
    """EOF while reading (a reset raises ``TcpError``)."""


class BufferedReader:
    """Byte-accurate reading over a connection's chunked receive stream.

    ``read_until`` requires the delimited region to be real bytes (protocol
    heads always are); ``read_exactly`` spans real and virtual chunks and
    returns a VirtualPayload if any part was virtual.
    """

    def __init__(self, conn: TcpConnection) -> None:
        self.conn = conn
        self._chunks: list = []  # buffered, in arrival order

    @property
    def pending(self) -> bool:
        """True if bytes were received but not yet consumed by a read."""
        return bool(self._chunks)

    def _recv_chunk(self) -> Generator:
        chunk = yield self.conn.recv()
        if isinstance(chunk, (bytes, bytearray)) and len(chunk) == 0:
            raise StreamClosed("connection closed")
        self._chunks.append(chunk)

    def _buffered_real_prefix(self) -> bytes:
        parts = []
        for chunk in self._chunks:
            if isinstance(chunk, VirtualPayload):
                break
            parts.append(bytes(chunk))
        return b"".join(parts)

    def read_until(self, delim: bytes, max_bytes: int = 65536) -> Generator:
        """Process-generator: read through ``delim``; returns bytes incl. it."""
        while True:
            prefix = self._buffered_real_prefix()
            idx = prefix.find(delim)
            if idx >= 0:
                need = idx + len(delim)
                data = yield from self.read_exactly(need)
                assert isinstance(data, (bytes, bytearray))
                return bytes(data)
            if len(prefix) > max_bytes:
                raise ValueError(f"delimiter not found within {max_bytes} bytes")
            if self._chunks and isinstance(self._chunks[-1], VirtualPayload):
                raise ValueError("virtual payload encountered while scanning for delimiter")
            yield from self._recv_chunk()

    def read_exactly(self, n: int) -> Generator:
        """Process-generator: consume exactly ``n`` stream bytes."""
        got = 0
        parts: list = []
        all_real = True
        while got < n:
            if not self._chunks:
                yield from self._recv_chunk()
            chunk = self._chunks.pop(0)
            take = min(len(chunk), n - got)
            if take < len(chunk):
                if isinstance(chunk, VirtualPayload):
                    self._chunks.insert(0, VirtualPayload(len(chunk) - take, tag=chunk.tag))
                    chunk = VirtualPayload(take, tag=chunk.tag)
                else:
                    self._chunks.insert(0, bytes(chunk[take:]))
                    chunk = bytes(chunk[:take])
            got += take
            if isinstance(chunk, VirtualPayload):
                all_real = False
            else:
                parts.append(bytes(chunk))
        if all_real:
            return b"".join(parts)
        return VirtualPayload(n)
