"""iperf-style bulk TCP throughput measurement (Figure 3, left axis).

One sender streams a virtual payload to a receiver for a fixed byte count;
throughput is goodput measured at the receiver, exactly as ``iperf -c``
reports.  TCP windows are configurable to match the paper's 85.3 KB server
/ 16 KB client setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpError, TcpStack

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.addresses import IPAddress

IPERF_PORT = 5001
SERVER_WINDOW = 87373  # 85.3 KB, the paper's iperf server window
CLIENT_WINDOW = 16384  # 16 KB


@dataclass
class IperfResult:
    bytes_received: int
    duration: float
    first_byte_at: float

    @property
    def throughput_mbps(self) -> float:
        return self.bytes_received * 8.0 / self.duration / 1e6


class IperfServer:
    """Accepts one connection per measurement and counts received bytes."""

    def __init__(self, tcp: TcpStack, port: int = IPERF_PORT,
                 window: int = SERVER_WINDOW) -> None:
        self.tcp = tcp
        self.sim = tcp.node.sim
        self.listener = tcp.listen(port, recv_window=window)

    def measure_once(self) -> Generator:
        """Process-generator: serve one sender; returns IperfResult."""
        conn = yield self.listener.accept()
        sim = self.sim
        eof = sim.event()
        first_at = None
        total = 0

        # Counted at delivery: no process wake per chunk, one at EOF.
        def count(chunk) -> None:
            nonlocal first_at, total
            n = len(chunk)
            if n:
                if first_at is None:
                    first_at = sim.now
                total += n
            elif not eof.triggered:
                eof.succeed()

        conn.consume(count)
        yield eof
        end = sim.now
        start = first_at if first_at is not None else end
        return IperfResult(
            bytes_received=total, duration=max(end - start, 1e-9), first_byte_at=start,
        )


def iperf_client(
    tcp: TcpStack,
    server_addr: "IPAddress",
    n_bytes: int,
    port: int = IPERF_PORT,
    window: int = CLIENT_WINDOW,
) -> Generator:
    """Process-generator: connect and stream ``n_bytes``; returns on close."""
    conn = yield tcp.node.sim.process(
        tcp.open_connection(server_addr, port, recv_window=window)
    )
    conn.write(VirtualPayload(n_bytes, tag="iperf"))
    conn.close()
    yield conn.closed
    return conn


def run_iperf(
    server_tcp: TcpStack,
    client_tcp: TcpStack,
    server_addr: "IPAddress",
    n_bytes: int = 20_000_000,
    port: int = IPERF_PORT,
) -> Generator:
    """Process-generator: one complete measurement; returns IperfResult."""
    sim = server_tcp.node.sim
    server = IperfServer(server_tcp, port=port)
    measurement = sim.process(server.measure_once(), name="iperf-server")
    sim.process(
        iperf_client(client_tcp, server_addr, n_bytes, port=port), name="iperf-client"
    )
    result = yield measurement
    server.listener.close()
    return result
