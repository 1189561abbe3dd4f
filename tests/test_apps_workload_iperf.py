"""Workload generators and iperf measurement tests."""

import random

import pytest

from repro.apps.iperf import IperfResult, IperfServer, iperf_client, run_iperf
from repro.apps.workload import ClosedLoopClients, OpenLoopGenerator, Sample, WorkloadResult
from repro.metrics import METRICS
from repro.metrics.stats import describe, mean, percentile, stdev
from repro.net.addresses import ipv4
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair

B = ipv4("10.0.0.2")


class TestWorkloadResult:
    def _result(self):
        r = WorkloadResult(started_at=0.0, finished_at=10.0)
        for i in range(8):
            r.samples.append(Sample(start=i, latency=0.1 * (i + 1), ok=i % 4 != 3,
                                    kind="ViewItem"))
        return r

    def test_throughput_counts_only_successes(self):
        r = self._result()
        assert r.successes == 6
        assert r.failures == 2
        assert r.throughput == pytest.approx(0.6)

    def test_latencies_filter(self):
        r = self._result()
        assert len(r.latencies(only_ok=True)) == 6
        assert len(r.latencies(only_ok=False)) == 8

    def test_mean_latency(self):
        r = self._result()
        assert r.mean_latency() == pytest.approx(mean(r.latencies()))


class TestStats:
    def test_mean_stdev(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert mean(xs) == 2.5
        assert stdev(xs) == pytest.approx(1.2909944)

    def test_percentile_interpolates(self):
        xs = [0.0, 10.0]
        assert percentile(xs, 50) == 5.0
        assert percentile(xs, 0) == 0.0
        assert percentile(xs, 100) == 10.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_describe_empty(self):
        summary = describe([])
        assert summary.n == 0

    def test_describe(self):
        summary = describe(range(101))
        assert summary.n == 101
        assert summary.p50 == 50
        assert summary.minimum == 0 and summary.maximum == 100


def _trivial_web(sim, tcp_server):
    """A minimal HTTP responder answering every RUBiS path with 200."""
    from repro.apps.http import HttpResponse, read_request, write_response
    from repro.net.packet import VirtualPayload
    from repro.net.tcp import TcpError

    def serve_conn(conn):
        try:
            while True:
                yield from read_request(conn)
                write_response(conn, HttpResponse(status=200, body=VirtualPayload(2048)))
        except TcpError:
            return

    def acceptor():
        listener = tcp_server.listen(80)
        while True:
            conn = yield listener.accept()
            sim.process(serve_conn(conn))

    sim.process(acceptor())


class TestClosedLoop:
    def test_generates_and_measures(self, sim):
        a, b = lan_pair(sim, "clients", "web")
        ta, tb = TcpStack(a), TcpStack(b)
        _trivial_web(sim, tb)
        workload = ClosedLoopClients(a, ta, B, 80, n_clients=5,
                                     rng=random.Random(1), warmup=0.1)
        done = sim.process(workload.run(0.3))
        result = sim.run(until=done)
        assert result.failures == 0
        assert result.successes > 100  # fast LAN, 5 clients: ~6.8k in 0.3 s
        assert 0 < result.mean_latency() < 0.05
        # Samples only from the measured window.
        assert all(s.start >= result.started_at for s in result.samples)

    def test_timeout_counts_failure(self, sim):
        a, b = lan_pair(sim, "clients", "web")
        ta, tb = TcpStack(a), TcpStack(b)
        # No web server at all: requests cannot complete.
        workload = ClosedLoopClients(a, ta, B, 80, n_clients=2,
                                     rng=random.Random(1), timeout=0.3)
        done = sim.process(workload.run(2.0))
        result = sim.run(until=done)
        assert result.successes == 0
        assert result.failures > 0

    def test_think_time_reduces_rate(self, sim):
        a, b = lan_pair(sim, "clients", "web")
        ta, tb = TcpStack(a), TcpStack(b)
        _trivial_web(sim, tb)
        workload = ClosedLoopClients(a, ta, B, 80, n_clients=3,
                                     rng=random.Random(1), think_time=0.1)
        done = sim.process(workload.run(3.0))
        result = sim.run(until=done)
        # ~3 clients / 0.1 s think -> ~30/s ceiling (plus service time).
        assert result.throughput < 35


class TestOpenLoop:
    def test_fixed_rate_generation(self, sim):
        a, b = lan_pair(sim, "clients", "web")
        ta, tb = TcpStack(a), TcpStack(b)
        _trivial_web(sim, tb)
        generator = OpenLoopGenerator(a, ta, B, 80, rate=100.0,
                                      rng=random.Random(1))
        done = sim.process(generator.run(2.0))
        result = sim.run(until=done)
        assert result.successes == 200  # 100/s x 2 s, all served
        assert result.mean_latency() < 0.05

    def test_rate_validation(self, sim):
        a, b = lan_pair(sim, "clients", "web")
        ta = TcpStack(a)
        with pytest.raises(ValueError):
            OpenLoopGenerator(a, ta, B, 80, rate=0, rng=random.Random(1))

    def test_unreachable_counts_failures(self, sim):
        a, b = lan_pair(sim, "clients", "web")
        ta = TcpStack(a)
        generator = OpenLoopGenerator(a, ta, B, 80, rate=50.0,
                                      rng=random.Random(1), timeout=0.5)
        done = sim.process(generator.run(1.0))
        result = sim.run(until=done)
        assert result.successes == 0
        assert result.failures == 50


class TestIperf:
    def test_throughput_close_to_link_rate(self, sim):
        a, b = lan_pair(sim, "sender", "receiver", bandwidth_bps=100e6,
                        delay_s=5e-4)
        ta, tb = TcpStack(a), TcpStack(b)
        proc = sim.process(run_iperf(tb, ta, B, n_bytes=8_000_000))
        result = sim.run(until=proc)
        assert isinstance(result, IperfResult)
        assert result.bytes_received == 8_000_000
        assert 80 < result.throughput_mbps <= 101

    def test_result_uses_receiver_timing(self, sim):
        a, b = lan_pair(sim, "sender", "receiver", bandwidth_bps=50e6)
        ta, tb = TcpStack(a), TcpStack(b)
        proc = sim.process(run_iperf(tb, ta, B, n_bytes=1_000_000))
        result = sim.run(until=proc)
        assert result.duration > 0
        assert result.first_byte_at > 0

    def test_small_window_limits_throughput(self, sim):
        a, b = lan_pair(sim, "sender", "receiver", bandwidth_bps=1e9,
                        delay_s=5e-3)
        ta, tb = TcpStack(a), TcpStack(b)
        out = {}

        def flow():
            server = IperfServer(tb, port=5001, window=8_000)
            measurement = sim.process(server.measure_once())
            sim.process(iperf_client(ta, B, 2_000_000, port=5001))
            out["result"] = yield measurement

        proc = sim.process(flow())
        sim.run(until=proc)
        # 8 KB window over ~10.2 ms RTT: ~6.3 Mbit/s ceiling.
        assert out["result"].throughput_mbps < 8

    def test_bulk_path_pops_one_event_per_link_transmission(self, sim):
        """The smoke-size iperf job: besides one delivery per link
        transmission the engine pops almost nothing.  A process wake per
        segment or a heap push per ACK would add thousands of steps."""
        a, b = lan_pair(sim, "sender", "receiver")
        ta, tb = TcpStack(a), TcpStack(b)
        METRICS.reset()
        try:
            result = sim.run(until=sim.process(run_iperf(tb, ta, B, n_bytes=2_000_000)))
            steps = METRICS.counter("sim.steps").value
            tx_packets = METRICS.counter("link.tx_packets").value
        finally:
            METRICS.reset()
        assert result.bytes_received == 2_000_000
        assert steps <= tx_packets + 16, (steps, tx_packets)
