"""Database server and client tests: query model, cache, invalidation."""

import random

import pytest

from repro.apps.database import (
    DbClient,
    DbServer,
    Query,
    QueryError,
    TableSpec,
    rubis_tables,
)
from repro.net.addresses import ipv4
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair

B = ipv4("10.0.0.2")
DB_PORT = 3306


@pytest.fixture
def db_net(sim, rng):
    a, b = lan_pair(sim, "web", "db")
    ta, tb = TcpStack(a), TcpStack(b)
    server = DbServer(
        b, tb, DB_PORT, rubis_tables(), cache_enabled=True,
        rng=random.Random(3), stochastic=False,
    )
    client = DbClient(a, ta, B, DB_PORT)
    return sim, server, client


class TestQueryModel:
    def test_wire_roundtrip(self):
        q = Query(kind="scan", table="items", key="42", rows=25)
        assert Query.from_wire(q.to_wire()) == q

    def test_malformed_wire_rejected(self):
        for bad in (b"", b"pk items", b"drop items 1 1", b"pk items x notanint"):
            with pytest.raises(QueryError):
                Query.from_wire(bad)

    def test_rubis_tables_complete(self):
        names = {t.name for t in rubis_tables()}
        assert names == {"users", "items", "bids", "comments", "categories"}


class TestDbService:
    def test_pk_lookup_roundtrip(self, db_net, drive):
        sim, server, client = db_net

        def flow():
            rows, nbytes = yield from client.query(
                Query(kind="pk", table="items", key="7")
            )
            return rows, nbytes

        rows, nbytes = drive(sim, flow())
        assert rows == 1
        assert nbytes == 420  # items row_bytes

    def test_scan_returns_requested_rows(self, db_net, drive):
        sim, server, client = db_net

        def flow():
            return (yield from client.query(
                Query(kind="scan", table="bids", key="9", rows=20)
            ))

        rows, nbytes = drive(sim, flow())
        assert rows == 20 and nbytes == 20 * 120

    def test_unknown_table_rejected(self, db_net, drive):
        sim, server, client = db_net

        def flow():
            with pytest.raises(QueryError):
                yield from client.query(Query(kind="pk", table="ghosts", key="1"))
            return True

        assert drive(sim, flow()) is True
        assert server.stats.errors == 1

    def test_cache_hit_counted_and_faster(self, db_net):
        sim, server, client = db_net
        times = []

        def flow():
            for _ in range(2):
                t0 = sim.now
                yield from client.query(Query(kind="scan", table="items",
                                              key="55", rows=25))
                times.append(sim.now - t0)

        proc = sim.process(flow())
        sim.run(until=proc)
        assert server.stats.cache_hits == 1
        assert server.stats.cache_misses == 1
        assert times[1] < times[0] * 0.75  # hit clearly cheaper

    def test_write_invalidates_table_cache(self, db_net):
        sim, server, client = db_net

        def flow():
            q = Query(kind="scan", table="items", key="55", rows=25)
            yield from client.query(q)  # miss, cached
            yield from client.query(Query(kind="write", table="items", key="55"))
            yield from client.query(q)  # must miss again

        proc = sim.process(flow())
        sim.run(until=proc)
        assert server.stats.cache_hits == 0
        assert server.stats.cache_misses == 2
        assert server.stats.writes == 1

    def test_write_does_not_invalidate_other_tables(self, db_net):
        sim, server, client = db_net

        def flow():
            q = Query(kind="scan", table="users", key="1", rows=5)
            yield from client.query(q)
            yield from client.query(Query(kind="write", table="items", key="9"))
            yield from client.query(q)

        proc = sim.process(flow())
        sim.run(until=proc)
        assert server.stats.cache_hits == 1

    def test_cache_disabled_never_hits(self, sim):
        a, b = lan_pair(sim, "web", "db")
        ta, tb = TcpStack(a), TcpStack(b)
        server = DbServer(b, tb, DB_PORT, rubis_tables(), cache_enabled=False,
                          rng=random.Random(3), stochastic=False)
        client = DbClient(a, ta, B, DB_PORT)

        def flow():
            q = Query(kind="scan", table="items", key="5", rows=10)
            yield from client.query(q)
            yield from client.query(q)

        proc = sim.process(flow())
        sim.run(until=proc)
        assert server.stats.cache_hits == 0
        assert server.stats.cache_misses == 2

    def test_full_scan_costs_more_than_pk(self, db_net):
        sim, server, client = db_net
        times = {}

        def flow():
            t0 = sim.now
            yield from client.query(Query(kind="pk", table="bids", key="1"))
            times["pk"] = sim.now - t0
            t0 = sim.now
            yield from client.query(Query(kind="full", table="bids", key="*"))
            times["full"] = sim.now - t0

        proc = sim.process(flow())
        sim.run(until=proc)
        assert times["full"] > times["pk"] * 10

    def test_stochastic_requires_rng(self, sim):
        a, b = lan_pair(sim, "web", "db")
        tb = TcpStack(b)
        with pytest.raises(ValueError):
            DbServer(b, tb, DB_PORT, rubis_tables(), stochastic=True, rng=None)

    def test_concurrent_clients_served(self, sim):
        a, b = lan_pair(sim, "web", "db")
        ta, tb = TcpStack(a), TcpStack(b)
        server = DbServer(b, tb, DB_PORT, rubis_tables(), rng=random.Random(3))
        results = []

        def one(i):
            client = DbClient(a, ta, B, DB_PORT)
            rows, _ = yield from client.query(
                Query(kind="pk", table="users", key=str(i))
            )
            results.append(rows)
            client.close()

        for i in range(8):
            sim.process(one(i))
        sim.run(until=30)
        assert results == [1] * 8
        assert server.stats.queries == 8
