"""A MySQL-stand-in database server with an optional query cache.

The paper's RUBiS deployment backs three web VMs with one MySQL 5.1 "large"
instance; its §V-B experiments toggle the MySQL *query cache* (off for the
Figure-2 throughput runs, on for the 120 req/s httperf run).  This module
reproduces the relevant behaviour:

* a typed query model (primary-key lookup / index scan / full scan / write)
  whose service costs scale with the table spec;
* stochastic service times (exponential around the class mean) so queueing
  tails emerge near saturation — the mechanism behind the throughput
  decline of the secured scenarios at 50 clients;
* a query cache keyed on the literal query string, invalidated by writes to
  the same table, serving hits at ~1/20 the cost;
* a wire protocol over TCP (plain, or addressed through a HIP or SSL-VPN
  tunnel), so the same server runs in all three security scenarios.

Wire format: requests are length-prefixed query strings; responses carry a
status byte, row count, and a result payload sized ``rows * row_bytes``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpConnection, TcpError, TcpStack
from repro.net.wire import U32, WireReader
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.addresses import IPAddress
    from repro.net.node import Node

CACHE_HIT_FACTOR = 0.05  # cache hits cost this fraction of the class mean


@dataclass(frozen=True)
class TableSpec:
    """Size/cost description of one table."""

    name: str
    rows: int
    row_bytes: int = 256
    pk_lookup_cost: float = 1.2e-3  # CPU seconds on the reference core
    index_scan_cost: float = 3.0e-3  # for a typical bounded scan
    full_scan_cost_per_krow: float = 2.0e-3
    write_cost: float = 2.0e-3


class QueryError(Exception):
    """Malformed query or unknown table."""


@dataclass(frozen=True)
class Query:
    """Parsed query: ``<kind> <table> <key> [rows]``."""

    kind: str  # "pk" | "scan" | "full" | "write"
    table: str
    key: str
    rows: int = 1

    def to_wire(self) -> bytes:
        text = f"{self.kind} {self.table} {self.key} {self.rows}"
        return text.encode("ascii")

    @classmethod
    def from_wire(cls, data: bytes) -> "Query":
        parts = data.decode("ascii", errors="replace").split(" ")
        if len(parts) != 4:
            raise QueryError(f"malformed query {data!r}")
        kind, table, key, rows = parts
        if kind not in ("pk", "scan", "full", "write"):
            raise QueryError(f"unknown query kind {kind!r}")
        try:
            return cls(kind=kind, table=table, key=key, rows=int(rows))
        except ValueError as exc:
            raise QueryError(f"bad row count in {data!r}") from exc


@dataclass
class DbStats:
    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    writes: int = 0
    errors: int = 0
    busy_seconds: float = 0.0


class DbServer:
    """The database node process: accept loop + per-connection workers."""

    def __init__(
        self,
        node: "Node",
        tcp: TcpStack,
        port: int,
        tables: list[TableSpec],
        cache_enabled: bool = False,
        rng=None,
        stochastic: bool = True,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.tcp = tcp
        self.port = port
        self.tables = {t.name: t for t in tables}
        self.cache_enabled = cache_enabled
        self.rng = rng
        self.stochastic = stochastic
        if stochastic and rng is None:
            raise ValueError("stochastic service times require an rng stream")
        self._cache: dict[str, int] = {}  # query text -> result rows
        self._cache_tables: dict[str, set[str]] = {}  # table -> cached keys
        self.stats = DbStats()
        self.listener = tcp.listen(port)
        self.sim.process(self._accept_loop(), name=f"db-accept-{node.name}")

    def _accept_loop(self) -> Generator:
        while True:
            conn = yield self.listener.accept()
            self.sim.process(self._serve_conn(conn), name=f"db-conn-{self.node.name}")

    def _serve_conn(self, conn: TcpConnection) -> Generator:
        try:
            while True:
                head = yield from conn.recv_bytes(4)
                if isinstance(head, VirtualPayload):
                    break
                raw = yield from conn.recv_bytes(parse_request_head(head))
                if isinstance(raw, VirtualPayload):
                    break
                yield from self._execute(conn, bytes(raw))
        except TcpError:
            return

    def _execute(self, conn: TcpConnection, raw: bytes) -> Generator:
        try:
            query = Query.from_wire(raw)
            table = self.tables.get(query.table)
            if table is None:
                raise QueryError(f"no such table {query.table!r}")
        except QueryError:
            self.stats.errors += 1
            conn.write(_RESPONSE_HEAD.pack(1, 0, 0))
            return
        self.stats.queries += 1
        text = raw.decode("ascii", errors="replace")

        if query.kind == "write":
            self.stats.writes += 1
            self._invalidate(query.table)
            cost = self._service_time(table.write_cost)
            yield from self.node.cpu_work(cost)
            self.stats.busy_seconds += cost
            conn.write(_RESPONSE_HEAD.pack(0, 1, 0))
            return

        cached_rows = self._cache.get(text) if self.cache_enabled else None
        if cached_rows is not None:
            self.stats.cache_hits += 1
            base = self._class_cost(query, table)
            cost = self._service_time(base * CACHE_HIT_FACTOR)
            rows = cached_rows
        else:
            self.stats.cache_misses += 1
            cost = self._service_time(self._class_cost(query, table))
            rows = min(query.rows, table.rows)
            if self.cache_enabled:
                self._cache[text] = rows
                self._cache_tables.setdefault(query.table, set()).add(text)
        yield from self.node.cpu_work(cost)
        self.stats.busy_seconds += cost
        result_bytes = rows * table.row_bytes
        conn.write(_RESPONSE_HEAD.pack(0, rows, result_bytes))
        if result_bytes:
            conn.write(VirtualPayload(result_bytes, tag="db-rows"))

    def _class_cost(self, query: Query, table: TableSpec) -> float:
        if query.kind == "pk":
            return table.pk_lookup_cost
        if query.kind == "scan":
            return table.index_scan_cost
        return table.full_scan_cost_per_krow * max(1.0, table.rows / 1000.0)

    def _service_time(self, mean: float) -> float:
        if not self.stochastic:
            return mean
        # Exponential service times: the M/M/1-ish tail behaviour near
        # saturation is what bends the Figure-2 curves down.
        return self.rng.expovariate(1.0 / mean)

    def _invalidate(self, table: str) -> None:
        for text in self._cache_tables.pop(table, ()):
            self._cache.pop(text, None)


class DbClient:
    """Client-side connection (used by web servers), one per upstream slot."""

    def __init__(self, node: "Node", tcp: TcpStack, addr: "IPAddress", port: int) -> None:
        self.node = node
        self.sim = node.sim
        self.tcp = tcp
        self.addr = addr
        self.port = port
        self._conn: TcpConnection | None = None

    def connect(self) -> Generator:
        self._conn = yield self.sim.process(self.tcp.open_connection(self.addr, self.port))

    def query(self, query: Query) -> Generator:
        """Process-generator: one round trip; returns (rows, result_bytes)."""
        if self._conn is None:
            yield from self.connect()
        raw = query.to_wire()
        self._conn.write(U32.pack(len(raw)) + raw)
        head = yield from self._conn.recv_bytes(9)
        status, rows, result_bytes = parse_response_head(head)
        if status != 0:
            raise QueryError(f"server rejected query {query}")
        if result_bytes:
            yield from self._conn.recv_bytes(result_bytes)
        return rows, result_bytes

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


_RESPONSE_HEAD = struct.Struct(">BII")


def parse_request_head(head: bytes) -> int:
    """Request head -> length of the query string that follows."""
    return WireReader(head, QueryError).read(U32, "request head")[0]


def parse_response_head(head: bytes) -> tuple[int, int, int]:
    """Response head -> (status, rows, result_bytes)."""
    return WireReader(head, QueryError).read(_RESPONSE_HEAD, "response head")


def rubis_tables() -> list[TableSpec]:
    """Table sizes loosely after the RUBiS dataset."""
    return [
        TableSpec(name="users", rows=100_000, row_bytes=180),
        TableSpec(name="items", rows=33_000, row_bytes=420),
        TableSpec(name="bids", rows=600_000, row_bytes=120),
        TableSpec(name="comments", rows=60_000, row_bytes=300),
        TableSpec(name="categories", rows=20, row_bytes=64,
                  pk_lookup_cost=4e-4, index_scan_cost=8e-4),
    ]
