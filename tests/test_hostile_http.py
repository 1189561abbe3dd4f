"""Malformed HTTP from a consumer or a backend ends in a counted drop.

A consumer's raw bytes reach the load balancer's parser (and a web VM's,
when it is addressed directly).  Every way such bytes can be malformed must
close that one connection and count it — ``client_errors`` at the proxy,
``errors`` at the web server — never crash the serving process and with it
the run.  A backend's malformed response becomes a 502 counted in
``upstream_errors``.  After each attack an honest consumer is still served.
"""

from __future__ import annotations

import pytest

from repro.apps.http import (
    HttpError,
    HttpRequest,
    read_request,
    read_response,
    write_request,
)
from repro.apps.proxy import Backend, ReverseProxy
from repro.apps.streams import BufferedReader
from repro.net.addresses import ipv4, prefix
from repro.net.node import Node
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair, wire
from repro.scenarios.rubis_cloud import FRONTEND_PORT, WEB_PORT, build_rubis_cloud
from tests.conftest import run_proc

HOSTILE_REQUESTS = {
    "garbage-request-line": b"GARBAGE\r\n\r\n",
    "non-numeric-content-length": b"GET /browse HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
    "negative-content-length": b"GET /browse HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "header-without-colon": b"GET /browse HTTP/1.1\r\nHost rubis\r\n\r\n",
    "non-ascii-head": b"GET /br\xf6wse HTTP/1.1\r\n\r\n",
    "head-past-64k": b"x" * 70_000,
}


def send_raw(sim, tcp, addr, port, raw: bytes):
    """Open a connection, write ``raw``, and leave it open."""

    def flow():
        conn = yield from tcp.open_connection(addr, port)
        conn.write(raw)
        return conn

    return run_proc(sim, flow())


def honest_get(sim, tcp, addr, port, path="/browse?id=1"):
    """One well-formed request on a fresh connection; returns the status."""

    def flow():
        conn = yield from tcp.open_connection(addr, port)
        write_request(conn, HttpRequest("GET", path, headers={"Host": "rubis"}))
        response = yield from read_response(BufferedReader(conn))
        conn.close()
        return response.status

    return run_proc(sim, flow())


@pytest.fixture
def deployment():
    return build_rubis_cloud(seed=7, hip_rsa_bits=512)


@pytest.mark.parametrize("raw", HOSTILE_REQUESTS.values(), ids=HOSTILE_REQUESTS.keys())
def test_malformed_request_to_the_load_balancer_is_a_client_error(deployment, raw):
    dep = deployment
    send_raw(dep.sim, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT, raw)
    dep.sim.run(until=dep.sim.now + 1.0)
    assert dep.lb.stats.client_errors == 1
    assert dep.lb.stats.requests == 0
    assert honest_get(dep.sim, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT) == 200
    assert dep.lb.stats.responses == 1


@pytest.mark.parametrize("raw", HOSTILE_REQUESTS.values(), ids=HOSTILE_REQUESTS.keys())
def test_malformed_request_to_a_web_vm_is_counted(deployment, raw):
    dep = deployment
    web_addr, web = dep.web_vms[0].primary_address, dep.web_servers[0]
    send_raw(dep.sim, dep.client_tcp, web_addr, WEB_PORT, raw)
    dep.sim.run(until=dep.sim.now + 1.0)
    assert web.stats.errors == 1
    assert web.stats.requests == 0
    assert honest_get(dep.sim, dep.client_tcp, web_addr, WEB_PORT) == 200


@pytest.mark.parametrize("raw", HOSTILE_REQUESTS.values(), ids=HOSTILE_REQUESTS.keys())
def test_every_rejection_is_an_http_error(sim, raw):
    client, server = lan_pair(sim)
    listener = TcpStack(server).listen(80)
    send_raw(sim, TcpStack(client), ipv4("10.0.0.2"), 80, raw)

    def parse():
        conn = yield listener.accept()
        with pytest.raises(HttpError):
            yield from read_request(BufferedReader(conn))
        return True

    assert run_proc(sim, parse()) is True


HOSTILE_RESPONSES = {
    "garbage-status-line": b"GARBAGE\r\n\r\n",
    "non-numeric-status": b"HTTP/1.1 OK fine\r\n\r\n",
    "non-numeric-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n",
}


@pytest.mark.parametrize("raw", HOSTILE_RESPONSES.values(), ids=HOSTILE_RESPONSES.keys())
@pytest.mark.parametrize("keepalive", [False, True], ids=["fresh", "pooled"])
def test_malformed_backend_response_is_a_502(sim, raw, keepalive):
    client, proxy_node, backend = Node(sim, "client"), Node(sim, "proxy"), Node(sim, "backend")
    ic, ipc, _ = wire(sim, client, proxy_node,
                      addr_a=ipv4("10.0.0.2"), addr_b=ipv4("10.0.0.1"))
    ipb, ib, _ = wire(sim, proxy_node, backend,
                      addr_a=ipv4("10.1.0.1"), addr_b=ipv4("10.1.0.2"))
    client.routes.add(prefix("0.0.0.0/0"), ic)
    backend.routes.add(prefix("0.0.0.0/0"), ib)
    proxy_node.routes.add(prefix("10.0.0.0/24"), ipc)
    proxy_node.routes.add(prefix("10.1.0.0/24"), ipb)
    client_tcp = TcpStack(client)
    listener = TcpStack(backend).listen(8080)

    def broken_backend():
        while True:
            conn = yield listener.accept()
            conn.write(raw)

    sim.process(broken_backend(), name="broken-backend")
    proxy = ReverseProxy(proxy_node, TcpStack(proxy_node), 80,
                         [Backend(addr=ipv4("10.1.0.2"), port=8080)],
                         backend_keepalive=keepalive)
    assert honest_get(sim, client_tcp, ipv4("10.0.0.1"), 80) == 502
    assert proxy.stats.upstream_errors == 1
    assert proxy.stats.client_errors == 0
