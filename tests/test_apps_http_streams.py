"""Buffered reading and HTTP framing tests."""

import pytest

from repro.apps.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    read_request,
    read_response,
    write_request,
    write_response,
)
from repro.apps.streams import BufferedReader, StreamClosed
from repro.net.addresses import ipv4
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair

B = ipv4("10.0.0.2")


@pytest.fixture
def pipe(sim):
    """An established TCP connection pair: (sim, client, server)."""
    a, b = lan_pair(sim, "a", "b")
    ta, tb = TcpStack(a), TcpStack(b)
    conns = {}

    def server():
        listener = tb.listen(80)
        conns["server"] = yield listener.accept()

    def client():
        conns["client"] = yield sim.process(ta.open_connection(B, 80))

    sim.process(server())
    proc = sim.process(client())
    sim.run(until=proc)
    sim.run(until=sim.now + 0.1)
    return sim, conns["client"], conns["server"]


class TestBufferedReader:
    def test_read_until_across_chunks(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(srv)
        out = {}

        cli.write(b"GET / HT")
        cli.write(b"TP/1.1\r\n\r\nrest")

        def receiver():
            out["head"] = yield from reader.read_until(b"\r\n\r\n")
            out["rest"] = yield from reader.read_exactly(4)

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert out["head"] == b"GET / HTTP/1.1\r\n\r\n"
        assert out["rest"] == b"rest"

    def test_read_until_limit(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(srv)
        out = {}

        for _ in range(30):
            cli.write(b"x" * 1000)

        def receiver():
            try:
                yield from reader.read_until(b"\r\n\r\n", max_bytes=5000)
            except ValueError as exc:
                out["err"] = str(exc)

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert "delimiter" in out["err"]

    def test_read_exactly_mixed_virtual(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(srv)
        out = {}

        cli.write(b"abcd")
        cli.write(VirtualPayload(100))
        cli.write(b"wxyz")

        def receiver():
            out["first"] = yield from reader.read_exactly(4)
            out["mid"] = yield from reader.read_exactly(100)
            out["last"] = yield from reader.read_exactly(4)

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert out["first"] == b"abcd"
        assert isinstance(out["mid"], VirtualPayload)
        assert out["last"] == b"wxyz"

    def test_virtual_in_delimiter_scan_rejected(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(srv)
        out = {}

        cli.write(VirtualPayload(50))

        def receiver():
            try:
                yield from reader.read_until(b"\r\n")
            except ValueError as exc:
                out["err"] = str(exc)

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert "virtual" in out["err"]

    def test_stream_closed_raises(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(srv)
        out = {}

        cli.close()

        def receiver():
            try:
                yield from reader.read_exactly(10)
            except StreamClosed:
                out["closed"] = True

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert out.get("closed") is True


class TestHttpMessages:
    def test_request_head_bytes(self):
        req = HttpRequest(method="GET", path="/item?id=7",
                          headers={"Host": "shop"})
        raw = req.head_bytes()
        assert raw.startswith(b"GET /item?id=7 HTTP/1.1\r\n")
        assert b"Host: shop\r\n" in raw
        assert b"Content-Length: 0" in raw
        assert raw.endswith(b"\r\n\r\n")

    def test_response_head_includes_body_length(self):
        resp = HttpResponse(status=200, body=VirtualPayload(1234))
        assert b"Content-Length: 1234" in resp.head_bytes()

    def test_request_roundtrip_over_stream(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(srv)
        out = {}

        write_request(
            cli, HttpRequest(method="POST", path="/bid",
                             headers={"Host": "x"}, body=b"amount=10"),
        )

        def receiver():
            out["req"] = yield from read_request(reader)

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        req = out["req"]
        assert (req.method, req.path) == ("POST", "/bid")
        assert req.body == b"amount=10"

    def test_response_roundtrip_with_virtual_body(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(cli)
        out = {}

        write_response(
            srv, HttpResponse(status=200, headers={"Server": "sim"},
                              body=VirtualPayload(8192)),
        )

        def receiver():
            out["resp"] = yield from read_response(reader)

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        resp = out["resp"]
        assert resp.status == 200
        assert len(resp.body) == 8192

    def test_pipelined_requests_parse_in_order(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(srv)
        seen = []

        for i in range(3):
            write_request(cli, HttpRequest(method="GET", path=f"/page{i}"))

        def receiver():
            for _ in range(3):
                req = yield from read_request(reader)
                seen.append(req.path)

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert seen == ["/page0", "/page1", "/page2"]

    def test_malformed_head_raises(self, pipe):
        sim, cli, srv = pipe
        reader = BufferedReader(srv)
        out = {}

        cli.write(b"NOT HTTP AT ALL\r\n\r\n")

        def receiver():
            try:
                yield from read_request(reader)
            except HttpError as exc:
                out["err"] = str(exc)

        sim.process(receiver())
        sim.run(until=sim.now + 5)
        assert "malformed" in out["err"]
