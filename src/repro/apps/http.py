"""Minimal HTTP/1.1 with persistent connections.

Requests and responses serialize to real header bytes (request line, Host,
Content-Length, ...), so wire sizes are honest; bodies may be real bytes or
:class:`~repro.net.packet.VirtualPayload` for big pages.  Keep-alive is the
default, as in the paper's jmeter/HAProxy setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpConnection

CRLF = b"\r\n"


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes | VirtualPayload = b""

    def head_bytes(self) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.1"]
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        for key, value in headers.items():
            lines.append(f"{key}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


@dataclass
class HttpResponse:
    status: int
    reason: str = "OK"
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes | VirtualPayload = b""

    def head_bytes(self) -> bytes:
        lines = [f"HTTP/1.1 {self.status} {self.reason}"]
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        for key, value in headers.items():
            lines.append(f"{key}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


class HttpError(Exception):
    """Malformed HTTP message."""


def write_request(conn: TcpConnection, request: HttpRequest) -> None:
    conn.write(request.head_bytes())
    if len(request.body):
        conn.write(request.body)


def write_response(conn: TcpConnection, response: HttpResponse) -> None:
    conn.write(response.head_bytes())
    if len(response.body):
        conn.write(response.body)


def _parse_head(raw: bytes) -> tuple[list[str], dict[str, str]]:
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HttpError("non-ASCII bytes in HTTP head") from exc
    lines = text.split("\r\n")
    start = lines[0].split(" ")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise HttpError(f"malformed header line {line!r}")
        headers[key.strip()] = value.strip()
    return start, headers


def _content_length(headers: dict[str, str]) -> int:
    value = headers.get("Content-Length", "0")
    if not value.isdigit():
        raise HttpError(f"bad Content-Length {value!r}")
    return int(value)


def _read_message(conn: TcpConnection) -> Generator:
    """Process-generator: one head and its body; returns (start, headers, body).

    Every way the bytes can be malformed raises :class:`HttpError`.
    """
    try:
        raw = yield from conn.read_until(CRLF + CRLF)
    except ValueError as exc:  # past the 64 KiB head limit, or a virtual chunk in it
        raise HttpError(str(exc)) from exc
    start, headers = _parse_head(raw[:-4])
    length = _content_length(headers)
    body: bytes | VirtualPayload = b""
    if length:
        body = yield from conn.recv_bytes(length)
    return start, headers, body


def read_request(conn: TcpConnection) -> Generator:
    """Process-generator: parse one request; returns HttpRequest."""
    start, headers, body = yield from _read_message(conn)
    if len(start) != 3:
        raise HttpError(f"malformed request line {start!r}")
    method, path, _version = start
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def read_response(conn: TcpConnection) -> Generator:
    """Process-generator: parse one response; returns HttpResponse."""
    start, headers, body = yield from _read_message(conn)
    if len(start) < 2 or not start[1].isdigit():
        raise HttpError(f"malformed status line {start!r}")
    reason = " ".join(start[2:]) if len(start) > 2 else ""
    return HttpResponse(status=int(start[1]), reason=reason, headers=headers, body=body)
