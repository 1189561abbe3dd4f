"""Reverse proxy / load balancer and RUBiS web-tier tests."""

import random

import pytest

from repro.apps.database import DbServer, rubis_tables
from repro.apps.http import HttpRequest, read_response, write_request
from repro.apps.proxy import Backend, ReverseProxy
from repro.apps.rubis import (
    REQUEST_MIX,
    RubisWebServer,
    pick_request,
    request_path,
)
from repro.net.addresses import ipv4, prefix
from repro.net.node import Node
from repro.net.tcp import TcpStack
from repro.net.topology import wire
from repro.sim import Simulator


@pytest.fixture
def mini_site(sim):
    """client -- proxy -- {web0, web1} -- db, all plain TCP."""
    client = Node(sim, "client", cpu_cores=2)
    proxy_node = Node(sim, "proxy", cpu_cores=2)
    webs = [Node(sim, f"web{i}") for i in range(2)]
    db_node = Node(sim, "db", cpu_cores=2)

    addr = {
        "client": ipv4("10.0.0.2"), "proxy": ipv4("10.0.0.1"),
        "web0": ipv4("10.1.0.1"), "web1": ipv4("10.1.0.2"),
        "db": ipv4("10.2.0.1"),
    }
    core = Node(sim, "core", forwarding=True)
    for name, node in [("client", client), ("proxy", proxy_node),
                       ("web0", webs[0]), ("web1", webs[1]), ("db", db_node)]:
        iface, core_if, _ = wire(sim, node, core, addr_a=addr[name], delay_s=5e-4)
        node.routes.add(prefix("0.0.0.0/0"), iface)
        core.routes.add(prefix(str(addr[name]) + "/32"), core_if)

    tcp = {n.name: TcpStack(n) for n in [client, proxy_node, *webs, db_node]}
    db = DbServer(db_node, tcp["db"], 3306, rubis_tables(),
                  rng=random.Random(1), stochastic=False)
    servers = [
        RubisWebServer(web, tcp[web.name], 8080, addr["db"], 3306,
                       rng=random.Random(10 + i))
        for i, web in enumerate(webs)
    ]
    backends = [Backend(addr=addr["web0"], port=8080),
                Backend(addr=addr["web1"], port=8080)]
    proxy = ReverseProxy(proxy_node, tcp["proxy"], 80, backends)
    return sim, client, tcp["client"], addr, proxy, servers, db


def http_get(sim, tcp, frontend, path, out, key="resp"):
    def flow():
        conn = yield sim.process(tcp.open_connection(frontend, 80))
        write_request(conn, HttpRequest(method="GET", path=path))
        out[key] = yield from read_response(conn)
        conn.close()

    return sim.process(flow())


@pytest.fixture
def small_proxy_net(sim):
    """client -- proxy -- backend chain, plain TCP, no servers installed."""
    client = Node(sim, "client")
    proxy_node = Node(sim, "proxy")
    backend_node = Node(sim, "backend")
    ic, ipc, _ = wire(sim, client, proxy_node,
                      addr_a=ipv4("10.0.0.2"), addr_b=ipv4("10.0.0.1"))
    ipb, ib, _ = wire(sim, proxy_node, backend_node,
                      addr_a=ipv4("10.1.0.1"), addr_b=ipv4("10.1.0.2"))
    client.routes.add(prefix("0.0.0.0/0"), ic)
    backend_node.routes.add(prefix("0.0.0.0/0"), ib)
    proxy_node.routes.add(prefix("10.0.0.0/24"), ipc)
    proxy_node.routes.add(prefix("10.1.0.0/24"), ipb)
    tcp = {"client": TcpStack(client), "proxy": TcpStack(proxy_node),
           "backend": TcpStack(backend_node)}
    return sim, tcp, proxy_node, backend_node


class TestProxyRegressions:
    def test_failed_dial_does_not_leak_pool_slots(self, small_proxy_net):
        """Regression: a failed upstream dial kept its pool-capacity slot.

        With keep-alive pooling and a dead backend, two failed dials used to
        exhaust a 2-slot pool permanently; the third request then blocked on
        ``pool.get()`` forever and the simulation starved.
        """
        sim, tcp, proxy_node, backend_node = small_proxy_net
        proxy = ReverseProxy(proxy_node, tcp["proxy"], 80,
                             [Backend(addr=ipv4("10.1.0.2"), port=9999)],
                             backend_keepalive=True, max_pool_per_backend=2)
        out = {}
        for i in range(4):  # strictly more requests than pool slots
            proc = http_get(sim, tcp["client"], ipv4("10.0.0.1"), "/a", out, key=i)
            sim.run(until=proc)
        assert [out[i].status for i in range(4)] == [502] * 4
        assert all(size == 0 for size in proxy._pool_sizes.values())

    def test_upstream_close_mid_request_does_not_leak_connections(self, small_proxy_net):
        """Regression: non-keepalive forwards leaked the upstream TCP
        connection when the backend died between connect and response."""
        sim, tcp, proxy_node, backend_node = small_proxy_net
        listener = tcp["backend"].listen(8080)

        def rude_backend():
            while True:
                conn = yield listener.accept()
                conn.close()  # accept, then hang up before any response

        sim.process(rude_backend(), name="rude-backend")
        ReverseProxy(proxy_node, tcp["proxy"], 80,
                     [Backend(addr=ipv4("10.1.0.2"), port=8080)])
        out = {}
        proc = http_get(sim, tcp["client"], ipv4("10.0.0.1"), "/a", out)
        sim.run(until=proc)
        sim.run(until=sim.now + 10)  # let FIN handshakes complete
        assert out["resp"].status == 502
        assert tcp["proxy"]._connections == {}

    def test_graceful_keepalive_close_is_not_a_client_error(self, mini_site):
        """Regression: a client ending its keep-alive session by closing the
        connection was counted as a client error."""
        sim, client, tcp, addr, proxy, servers, db = mini_site
        out = {}
        proc = http_get(sim, tcp, addr["proxy"], "/browse?id=1", out)
        sim.run(until=proc)
        sim.run(until=sim.now + 5)  # proxy observes the close
        assert out["resp"].status == 200
        assert proxy.stats.responses == 1
        assert proxy.stats.client_errors == 0

    def test_abort_mid_request_head_is_a_client_error(self, mini_site):
        sim, client, tcp, addr, proxy, servers, db = mini_site

        def flow():
            conn = yield sim.process(tcp.open_connection(addr["proxy"], 80))
            conn.write(b"GET /brow")  # partial request head
            yield sim.timeout(0.5)
            conn.close()

        sim.process(flow())
        sim.run(until=10)
        assert proxy.stats.requests == 0
        assert proxy.stats.client_errors == 1


class TestRubisWebTier:
    def test_request_mix_weights_normalized_sampling(self, rng):
        counts = {}
        for _ in range(2000):
            rt = pick_request(rng)
            counts[rt.name] = counts.get(rt.name, 0) + 1
        # Heaviest type sampled most.
        assert counts["SearchItemsByCategory"] == max(counts.values())
        assert set(counts) == {rt.name for rt in REQUEST_MIX}

    def test_request_path_randomizes_keys(self, rng):
        rt = REQUEST_MIX[0]
        paths = {request_path(rt, rng) for _ in range(50)}
        assert len(paths) > 10

    def test_end_to_end_page_fetch(self, mini_site):
        sim, client, tcp, addr, proxy, servers, db = mini_site
        out = {}
        http_get(sim, tcp, addr["proxy"], "/item?id=3", out)
        sim.run(until=20)
        resp = out["resp"]
        assert resp.status == 200
        assert len(resp.body) == 30720  # ViewItem page size
        assert db.stats.queries == 2  # items pk + bids scan

    def test_unknown_path_404(self, mini_site):
        sim, client, tcp, addr, proxy, servers, db = mini_site
        out = {}
        http_get(sim, tcp, addr["proxy"], "/nonexistent", out)
        sim.run(until=20)
        assert out["resp"].status == 404

    def test_round_robin_balances(self, mini_site):
        sim, client, tcp, addr, proxy, servers, db = mini_site
        out = {}
        for i in range(6):
            http_get(sim, tcp, addr["proxy"], "/browse?id=1", out, key=i)
        sim.run(until=30)
        assert all(out[i].status == 200 for i in range(6))
        served = [b.served for b in proxy.backends]
        assert served == [3, 3]

    def test_least_connections_mode(self, sim):
        backends = [Backend(addr=ipv4("10.0.0.1"), port=1),
                    Backend(addr=ipv4("10.0.0.2"), port=1)]
        node = Node(sim, "p")
        node.add_interface("eth0", ipv4("10.0.0.9"))
        proxy = ReverseProxy(node, TcpStack(node), 80, backends,
                             algorithm="least-connections")
        backends[0].active = 5
        assert proxy._pick_backend() is backends[1]
        backends[1].active = 9
        assert proxy._pick_backend() is backends[0]

    def test_invalid_algorithm_rejected(self, sim):
        node = Node(sim, "p")
        node.add_interface("eth0", ipv4("10.0.0.9"))
        with pytest.raises(ValueError):
            ReverseProxy(node, TcpStack(node), 80,
                         [Backend(addr=ipv4("10.0.0.1"), port=1)],
                         algorithm="random")

    def test_no_backends_rejected(self, sim):
        node = Node(sim, "p")
        with pytest.raises(ValueError):
            ReverseProxy(node, TcpStack(node), 80, [])

    def test_dead_backend_returns_502(self, sim):
        client = Node(sim, "client")
        proxy_node = Node(sim, "proxy")
        ic, ip_, _ = wire(sim, client, proxy_node,
                          addr_a=ipv4("10.0.0.2"), addr_b=ipv4("10.0.0.1"))
        client.routes.add(prefix("0.0.0.0/0"), ic)
        proxy_node.routes.add(prefix("0.0.0.0/0"), ip_)
        tcp_c, tcp_p = TcpStack(client), TcpStack(proxy_node)
        # Backend address exists but nothing listens there.
        ReverseProxy(proxy_node, tcp_p, 80,
                     [Backend(addr=ipv4("10.0.0.2"), port=9999)])
        out = {}
        http_get(sim, tcp_c, ipv4("10.0.0.1"), "/browse", out)
        sim.run(until=30)
        assert out["resp"].status == 502

    def test_keepalive_pool_reuses_connections(self, mini_site):
        sim, client, tcp, addr, proxy, servers, db = mini_site
        proxy.backend_keepalive = True
        out = {}
        for i in range(4):  # sequential, so pooled connections get reused
            proc = http_get(sim, tcp, addr["proxy"], "/browse?id=1", out, key=i)
            sim.run(until=proc)
        # Two backends round-robined -> one pooled connection each.
        assert sum(proxy._pool_sizes.values()) <= 2

    def test_client_keepalive_multiple_requests_one_connection(self, mini_site):
        sim, client, tcp, addr, proxy, servers, db = mini_site
        out = {}

        def flow():
            conn = yield sim.process(tcp.open_connection(addr["proxy"], 80))
            statuses = []
            for path in ("/browse?id=1", "/user?id=2", "/bids?id=3"):
                write_request(conn, HttpRequest(method="GET", path=path))
                resp = yield from read_response(conn)
                statuses.append(resp.status)
            out["statuses"] = statuses

        sim.process(flow())
        sim.run(until=30)
        assert out["statuses"] == [200, 200, 200]
        assert proxy.stats.responses == 3

    def test_db_failure_yields_503(self, sim):
        # Web server with a DB address that refuses connections.
        web = Node(sim, "web")
        client = Node(sim, "client")
        iw, ic0, _ = wire(sim, web, client,
                          addr_a=ipv4("10.0.0.1"), addr_b=ipv4("10.0.0.2"))
        web.routes.add(prefix("0.0.0.0/0"), iw)
        client.routes.add(prefix("0.0.0.0/0"), ic0)
        tcp_w, tcp_c = TcpStack(web), TcpStack(client)
        RubisWebServer(web, tcp_w, 8080, ipv4("10.0.0.2"), 3306,
                       rng=random.Random(1))
        out = {}

        def flow():
            conn = yield sim.process(tcp_c.open_connection(ipv4("10.0.0.1"), 8080))
            write_request(conn, HttpRequest(method="GET", path="/browse"))
            out["resp"] = yield from read_response(conn)

        sim.process(flow())
        sim.run(until=60)
        assert out["resp"].status == 503
