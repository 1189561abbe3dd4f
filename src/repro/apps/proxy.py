"""Reverse HTTP proxy / load balancer (HAProxy's role in Figure 1).

Consumers speak plain HTTP to the proxy; the proxy forwards each request to
a backend web server over plain TCP, addressed per the scenario's secure
transport:

* **basic** — the backend's routable address;
* **ssl** — the backend's VPN tunnel address, which the SSL-VPN daemon on
  the proxy node protects (the paper's OpenVPN deployment);
* **hip** — the backend's LSI/HIT, which the HIP daemon on the proxy node
  transparently protects (this is exactly the paper's "reverse proxy
  terminates HIP" deployment — end users never see HIP).

A consumer's malformed request closes its connection and counts in
``client_errors``; a backend's malformed response becomes a 502 counted in
``upstream_errors``.

Balancing is round-robin across backends (the paper's HAProxy config), with
least-connections available for the ablation.  Upstream connections are
pooled and persistent, so handshakes amortize as they did in the testbed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.apps.http import (
    HttpError,
    HttpResponse,
    read_request,
    read_response,
    write_request,
    write_response,
)
from repro.metrics import METRICS, RECORDER
from repro.net.tcp import TcpConnection, TcpError, TcpStack
from repro.sim.resources import Queue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.addresses import IPAddress
    from repro.net.node import Node

PROXY_CPU_PER_REQUEST = 2.0e-4  # header parse + rewrite + scheduling
PROXY_CPU_PER_BYTE = 4.0e-9  # copy cost

_REQUESTS = METRICS.counter("proxy.requests")
_RESPONSES = METRICS.counter("proxy.responses")
_UPSTREAM_ERRORS = METRICS.counter("proxy.upstream_errors")
_CLIENT_ERRORS = METRICS.counter("proxy.client_errors")
_UPSTREAM_DIALS = METRICS.counter("proxy.upstream_dials")
_POOL_REUSES = METRICS.counter("proxy.pool_reuses")
_POOL_WAITS = METRICS.counter("proxy.pool_waits")
_REQUEST_T = METRICS.histogram("proxy.request_s")


@dataclass
class Backend:
    """One upstream web server."""

    addr: "IPAddress"
    port: int
    active: int = 0  # in-flight requests (for least-connections)
    served: int = 0


@dataclass
class _Upstream:
    conn: TcpConnection
    backend: Backend


@dataclass
class ProxyStats:
    requests: int = 0
    responses: int = 0
    upstream_errors: int = 0
    client_errors: int = 0


class ReverseProxy:
    """HTTP reverse proxy with round-robin / least-connections balancing."""

    def __init__(
        self,
        node: "Node",
        tcp: TcpStack,
        port: int,
        backends: list[Backend],
        algorithm: str = "round-robin",
        max_pool_per_backend: int = 16,
        backend_keepalive: bool = False,
    ) -> None:
        if not backends:
            raise ValueError("proxy needs at least one backend")
        if algorithm not in ("round-robin", "least-connections"):
            raise ValueError(f"unknown balancing algorithm {algorithm!r}")
        self.node = node
        self.sim = node.sim
        self.tcp = tcp
        self.backends = backends
        self.algorithm = algorithm
        # HAProxy 1.3 (the paper's version) cannot keep backend connections
        # alive across requests: every forwarded request opens a fresh
        # upstream TCP connection.
        self.backend_keepalive = backend_keepalive
        self.stats = ProxyStats()
        self._rr = itertools.cycle(range(len(backends)))
        self._pools: dict[int, Queue] = {id(b): Queue(self.sim) for b in backends}
        self._pool_sizes: dict[int, int] = {id(b): 0 for b in backends}
        self._max_pool = max_pool_per_backend
        self.listener = tcp.listen(port)
        self.sim.process(self._accept_loop(), name=f"proxy-accept-{node.name}")

    # -- balancing -----------------------------------------------------------------
    def _pick_backend(self) -> Backend:
        if self.algorithm == "least-connections":
            return min(self.backends, key=lambda b: (b.active, b.served))
        return self.backends[next(self._rr)]

    # -- upstream pool ---------------------------------------------------------------
    def _acquire_upstream(self, backend: Backend) -> Generator:
        pool = self._pools[id(backend)]
        ok, upstream = pool.try_get()
        if ok:
            _POOL_REUSES.inc()
            if RECORDER.enabled:
                RECORDER.record(
                    self.sim.now, "proxy", "pool_acquire",
                    node=self.node.name, port=upstream.backend.port, source="pool",
                )
            return upstream
        if self._pool_sizes[id(backend)] < self._max_pool:
            # Claim the slot before the (yielding) dial so concurrent acquirers
            # cannot over-open; the slot must be returned if the dial fails or
            # the backend's capacity leaks away one failed connect at a time.
            self._pool_sizes[id(backend)] += 1
            try:
                upstream = yield from self._open_upstream(backend)
            except BaseException:
                self._pool_sizes[id(backend)] -= 1
                raise
            if RECORDER.enabled:
                RECORDER.record(
                    self.sim.now, "proxy", "pool_acquire",
                    node=self.node.name, port=backend.port, source="dial",
                )
            return upstream
        _POOL_WAITS.inc()
        upstream = yield pool.get()
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "proxy", "pool_acquire",
                node=self.node.name, port=upstream.backend.port, source="wait",
            )
        return upstream

    def _open_upstream(self, backend: Backend) -> Generator:
        _UPSTREAM_DIALS.inc()
        conn = yield self.sim.process(
            self.tcp.open_connection(backend.addr, backend.port)
        )
        return _Upstream(conn=conn, backend=backend)

    def _release_upstream(self, upstream: _Upstream, broken: bool) -> None:
        if RECORDER.enabled:
            RECORDER.record(
                self.sim.now, "proxy", "pool_release",
                node=self.node.name, port=upstream.backend.port, broken=broken,
            )
        if broken:
            upstream.conn.close()
            self._pool_sizes[id(upstream.backend)] -= 1
            return
        self._pools[id(upstream.backend)].try_put(upstream)

    # -- client side -------------------------------------------------------------------
    def _accept_loop(self) -> Generator:
        while True:
            conn = yield self.listener.accept()
            self.sim.process(self._serve_client(conn), name=f"proxy-conn-{self.node.name}")

    def _serve_client(self, conn) -> Generator:
        try:
            while True:
                try:
                    request = yield from read_request(conn)
                except HttpError:
                    self.stats.client_errors += 1
                    _CLIENT_ERRORS.inc()
                    return
                except TcpError:
                    # A close between requests is the normal end of a
                    # keep-alive session, not a client error.  A failed read
                    # leaves the bytes it took buffered, so bytes in ``rx``
                    # mean the peer died mid-request.
                    if len(conn.rx):
                        self.stats.client_errors += 1
                        _CLIENT_ERRORS.inc()
                    return
                self.stats.requests += 1
                _REQUESTS.inc()
                started = self.sim.now
                if RECORDER.enabled:
                    RECORDER.record(
                        self.sim.now, "proxy", "request",
                        node=self.node.name, path=request.path,
                    )
                try:
                    yield from self.node.cpu_work(PROXY_CPU_PER_REQUEST)
                    response = yield from self._forward(request)
                    if response is None:
                        self.stats.upstream_errors += 1
                        _UPSTREAM_ERRORS.inc()
                        write_response(conn, HttpResponse(status=502, reason="Bad Gateway"))
                        continue
                    yield from self.node.cpu_work(PROXY_CPU_PER_BYTE * len(response.body))
                    write_response(conn, response)
                except TcpError:
                    self.stats.client_errors += 1
                    _CLIENT_ERRORS.inc()
                    return
                self.stats.responses += 1
                _RESPONSES.inc()
                _REQUEST_T.observe(self.sim.now - started)
        finally:
            conn.close()

    def _forward(self, request) -> Generator:
        backend = self._pick_backend()
        backend.active += 1
        try:
            if not self.backend_keepalive:
                upstream = None
                try:
                    upstream = yield from self._open_upstream(backend)
                    write_request(upstream.conn, request)
                    response = yield from read_response(upstream.conn)
                except (TcpError, HttpError):
                    return None
                finally:
                    # Close on every exit, not just success: an upstream that
                    # dies mid-exchange must not leak its TCP connection.
                    if upstream is not None:
                        upstream.conn.close()
                backend.served += 1
                return response
            for attempt in range(2):  # one retry on a stale pooled connection
                try:
                    upstream = yield from self._acquire_upstream(backend)
                except TcpError:
                    return None
                try:
                    write_request(upstream.conn, request)
                    response = yield from read_response(upstream.conn)
                except (TcpError, HttpError):
                    self._release_upstream(upstream, broken=True)
                    continue
                self._release_upstream(upstream, broken=False)
                backend.served += 1
                return response
            return None
        finally:
            backend.active -= 1
