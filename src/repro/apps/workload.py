"""Load generators: closed-loop concurrent clients and open-loop fixed rate.

* :class:`ClosedLoopClients` plays jmeter's role in the Figure-2 runs: N
  concurrent clients, each looping "send random GET → wait for response",
  counting *successful* requests per second.  Requests that exceed the
  client timeout are failures (and the connection is torn down and
  reopened), which is how overload turns into the measured throughput
  decline.
* :class:`OpenLoopGenerator` plays httperf's role in the §V-B response-time
  run: requests arrive at a fixed rate on fresh connections regardless of
  completions, and the response-time distribution is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.apps.http import HttpError, HttpRequest, read_response, write_request
from repro.apps.rubis import pick_request, request_path
from repro.net.tcp import TcpConnection, TcpError, TcpStack
from repro.sim.events import AnyOf, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.addresses import IPAddress
    from repro.net.node import Node


@dataclass
class Sample:
    """One request's outcome."""

    start: float
    latency: float
    ok: bool
    kind: str


@dataclass
class WorkloadResult:
    samples: list[Sample] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return max(self.finished_at - self.started_at, 1e-12)

    @property
    def successes(self) -> int:
        return sum(1 for s in self.samples if s.ok)

    @property
    def failures(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    @property
    def throughput(self) -> float:
        """Successful requests per second (the paper's Figure-2 metric)."""
        return self.successes / self.duration

    def latencies(self, only_ok: bool = True) -> list[float]:
        return [s.latency for s in self.samples if s.ok or not only_ok]

    def mean_latency(self) -> float:
        xs = self.latencies()
        return sum(xs) / len(xs) if xs else float("nan")


class ClosedLoopClients:
    """N concurrent keep-alive HTTP clients against one frontend."""

    def __init__(
        self,
        node: "Node",
        tcp: TcpStack,
        frontend: "IPAddress",
        port: int,
        n_clients: int,
        rng,
        timeout: float = 5.0,
        think_time: float = 0.0,
        warmup: float = 0.0,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.tcp = tcp
        self.frontend = frontend
        self.port = port
        self.n_clients = n_clients
        self.rng = rng
        self.timeout = timeout
        self.think_time = think_time
        self.warmup = warmup
        self.result = WorkloadResult()

    def run(self, duration: float) -> Generator:
        """Process-generator: run all clients for ``duration`` seconds."""
        self.result.started_at = self.sim.now + self.warmup
        stop_at = self.sim.now + self.warmup + duration
        clients = [
            self.sim.process(self._client(i, stop_at), name=f"client-{i}")
            for i in range(self.n_clients)
        ]
        for proc in clients:
            yield proc
        self.result.finished_at = stop_at
        return self.result

    def _client(self, index: int, stop_at: float) -> Generator:
        conn: TcpConnection | None = None
        while self.sim.now < stop_at:
            if conn is None:
                connect_started = self.sim.now
                try:
                    conn = yield self.sim.process(
                        self.tcp.open_connection(self.frontend, self.port)
                    )
                except TcpError:
                    # jmeter counts refused connections as failed samples.
                    if connect_started >= self.result.started_at:
                        self.result.samples.append(Sample(
                            start=connect_started,
                            latency=self.sim.now - connect_started,
                            ok=False, kind="connect",
                        ))
                    yield self.sim.timeout(0.1)
                    continue
            rt = pick_request(self.rng)
            request = HttpRequest(
                method="GET", path=request_path(rt, self.rng),
                headers={"Host": "rubis.example"},
            )
            start = self.sim.now
            exchange = self.sim.process(
                self._one_exchange(conn, request), name=f"xchg-{index}"
            )
            deadline = self.sim.timeout(self.timeout)
            winner, value = yield AnyOf(self.sim, [exchange, deadline])
            latency = self.sim.now - start
            ok = winner is exchange and value is True
            if start >= self.result.started_at and start < stop_at:
                self.result.samples.append(
                    Sample(start=start, latency=latency, ok=ok, kind=rt.name)
                )
            if not ok:
                # jmeter-style: timeout abandons the connection.
                if exchange.is_alive:
                    exchange.interrupt("timeout")
                conn.abort()
                conn = None
            if self.think_time:
                yield self.sim.timeout(self.rng.expovariate(1.0 / self.think_time))
        if conn is not None:
            conn.close()

    def _one_exchange(self, conn: TcpConnection, request) -> Generator:
        try:
            write_request(conn, request)
            response = yield from read_response(conn)
            return response.status == 200
        except (TcpError, HttpError):
            return False
        except Interrupt:
            return False


class OpenLoopGenerator:
    """httperf-style fixed-rate generator: one fresh connection per request."""

    def __init__(
        self,
        node: "Node",
        tcp: TcpStack,
        frontend: "IPAddress",
        port: int,
        rate: float,
        rng,
        timeout: float = 10.0,
        fixed_path: str | None = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.node = node
        self.sim = node.sim
        self.tcp = tcp
        self.frontend = frontend
        self.port = port
        self.rate = rate
        self.rng = rng
        self.timeout = timeout
        # httperf hits one URI; None samples the full RUBiS mix instead.
        self.fixed_path = fixed_path
        self.result = WorkloadResult()
        self._outstanding = 0

    def run(self, duration: float) -> Generator:
        """Process-generator: generate for ``duration``; returns the result."""
        self.result.started_at = self.sim.now
        interval = 1.0 / self.rate
        n = int(duration * self.rate)
        for _ in range(n):
            self.sim.process(self._one_call(), name="httperf-call")
            yield self.sim.timeout(interval)
        # Drain stragglers up to the timeout horizon.
        yield self.sim.timeout(self.timeout)
        self.result.finished_at = self.result.started_at + duration
        return self.result

    def _pick(self):
        if self.fixed_path is not None:
            from repro.apps.rubis import _BY_PATH

            rt = _BY_PATH.get(self.fixed_path.partition("?")[0])
            if rt is None:
                raise ValueError(f"unknown RUBiS path {self.fixed_path!r}")
            return rt
        return pick_request(self.rng)

    def _one_call(self) -> Generator:
        rt = self._pick()
        start = self.sim.now
        self._outstanding += 1
        try:
            body = self.sim.process(self._exchange(rt), name="httperf-xchg")
            deadline = self.sim.timeout(self.timeout)
            winner, value = yield AnyOf(self.sim, [body, deadline])
            ok = winner is body and value is True
            if not ok and body.is_alive:
                body.interrupt("timeout")
        finally:
            self._outstanding -= 1
        self.result.samples.append(
            Sample(start=start, latency=self.sim.now - start, ok=ok, kind=rt.name)
        )

    def _exchange(self, rt) -> Generator:
        try:
            conn = yield self.sim.process(
                self.tcp.open_connection(self.frontend, self.port)
            )
        except (TcpError, Interrupt):
            return False
        request = HttpRequest(
            method="GET", path=request_path(rt, self.rng),
            headers={"Host": "rubis.example", "Connection": "close"},
        )
        try:
            write_request(conn, request)
            response = yield from read_response(conn)
            conn.close()
            return response.status == 200
        except (TcpError, HttpError):
            return False
        except Interrupt:
            conn.abort()
            return False
