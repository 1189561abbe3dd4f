"""End-to-end integration and failure-injection tests on the full deployment."""

import pytest

from repro.apps.workload import ClosedLoopClients
from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud


class TestFullDeploymentIntegration:
    def test_all_tiers_see_traffic(self):
        dep = build_rubis_cloud(seed=4, security="hip", hip_rsa_bits=512)
        sim = dep.sim
        workload = ClosedLoopClients(
            dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
            n_clients=4, rng=dep.rngs.stream("w"), warmup=0.5,
        )
        done = sim.process(workload.run(2.0))
        result = sim.run(until=done)
        assert result.successes > 5
        # Every web VM served something (round-robin) and the DB saw queries.
        assert all(ws.stats.responses > 0 for ws in dep.web_servers)
        assert dep.db_server.stats.queries > 0
        # HIP associations exist on every secured hop.
        lb_daemon = dep.daemons["loadbalancer"]
        assert sum(1 for a in lb_daemon.assocs.values() if a.is_established) == 3
        db_daemon = dep.daemons["db0"]
        assert sum(1 for a in db_daemon.assocs.values() if a.is_established) == 3

    def test_no_plaintext_inside_cloud_in_hip_mode(self):
        """All traffic crossing the cloud gateway is HIP or ESP."""
        dep = build_rubis_cloud(seed=4, security="hip", hip_rsa_bits=512)
        sim = dep.sim
        protocols = set()
        # Spy on the LB's WAN link (LB <-> internet); web/db traffic crosses it.
        endpoint = dep.lb_node.interfaces[0]._endpoint
        original = endpoint.send

        def spy(packet, size=0):
            from repro.net.packet import IPHeader

            ip = packet.outer
            if isinstance(ip, IPHeader) and str(ip.dst).startswith("10."):
                protocols.add(ip.proto)
            return original(packet, size)

        endpoint.send = spy
        workload = ClosedLoopClients(
            dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
            n_clients=3, rng=dep.rngs.stream("w"), warmup=0.5,
        )
        done = sim.process(workload.run(1.5))
        sim.run(until=done)
        assert protocols  # something crossed
        assert protocols <= {"hip", "esp"}, protocols

    def test_no_plaintext_inside_cloud_in_ssl_mode(self):
        """``ssl`` is the tunnel: every LB -> web/db packet on the LB's WAN
        link is an SSL-VPN record, and every VPN daemon carried data."""
        dep = build_rubis_cloud(seed=4, security="ssl", hip_rsa_bits=512)
        sim = dep.sim
        cloud = {vm.primary_address for vm in dep.web_vms} | {dep.db_vm.primary_address}
        protocols = set()
        endpoint = dep.lb_node.interfaces[0]._endpoint
        original = endpoint.send

        def spy(packet, size=0):
            from repro.net.packet import IPHeader

            ip = packet.outer
            if isinstance(ip, IPHeader) and ip.dst in cloud:
                protocols.add(ip.proto)
            return original(packet, size)

        endpoint.send = spy
        workload = ClosedLoopClients(
            dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
            n_clients=3, rng=dep.rngs.stream("w"), warmup=0.2,
        )
        result = sim.run(until=sim.process(workload.run(0.5)))
        assert result.successes > 0
        assert protocols == {"sslvpn"}
        assert all(vpn.packets_sent > 0 for vpn in dep.vpn_daemons.values())

    def test_web_vm_failure_and_service_continuity(self):
        """Killing one web VM degrades but does not stop the service."""
        dep = build_rubis_cloud(seed=4, security="basic", hip_rsa_bits=512)
        sim = dep.sim
        workload = ClosedLoopClients(
            dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
            n_clients=6, rng=dep.rngs.stream("w"), warmup=0.5, timeout=1.0,
        )

        def saboteur():
            yield sim.timeout(2.0)
            # Sever the victim's virtio link: packets to it fall into the void.
            victim = dep.web_vms[0]
            for iface in victim.interfaces:
                if iface._endpoint is not None:
                    iface._endpoint.peer = None
            victim.state = "terminated"

        sim.process(saboteur())
        done = sim.process(workload.run(5.0))
        result = sim.run(until=done)
        # Some requests to the dead backend fail, but the service survives
        # and the two remaining web servers keep answering.
        assert result.failures > 0
        assert result.successes > 50
        live = [ws for ws, vm in zip(dep.web_servers, dep.web_vms)
                if vm.state == "running"]
        assert all(ws.stats.responses > 0 for ws in live)

    def test_deterministic_replay_full_stack(self):
        """Two identical runs of the full HIP deployment match exactly."""
        def run_once():
            dep = build_rubis_cloud(seed=99, security="hip", hip_rsa_bits=512)
            sim = dep.sim
            workload = ClosedLoopClients(
                dep.client_node, dep.client_tcp, dep.frontend_addr,
                FRONTEND_PORT, n_clients=3, rng=dep.rngs.stream("w"),
                warmup=0.5,
            )
            done = sim.process(workload.run(1.5))
            result = sim.run(until=done)
            return (result.successes,
                    tuple(round(s.latency, 12) for s in result.samples))

        assert run_once() == run_once()

    def test_client_side_hip_end_to_end(self):
        """§VII: clients themselves speak HIP to the LB (Chromium/Silk case)."""
        import random

        from repro.hip.daemon import HipConfig, HipDaemon
        from repro.hip.identity import HostIdentity

        dep = build_rubis_cloud(seed=4, security="hip", hip_rsa_bits=512)
        sim = dep.sim
        gen = random.Random(77)
        client_daemon = HipDaemon(
            dep.client_node, HostIdentity.generate(gen, "rsa", rsa_bits=512),
            rng=random.Random(1), config=HipConfig(real_crypto=False),
        )
        lb_daemon = dep.daemons["loadbalancer"]
        client_daemon.add_peer(lb_daemon.hit, [dep.frontend_addr])
        lb_daemon.add_peer(client_daemon.hit, [dep.client_node.addresses(4)[0]])

        workload = ClosedLoopClients(
            dep.client_node, dep.client_tcp, lb_daemon.hit, FRONTEND_PORT,
            n_clients=2, rng=dep.rngs.stream("w"), warmup=0.5, timeout=10.0,
        )
        done = sim.process(workload.run(2.0))
        result = sim.run(until=done)
        assert result.successes > 3
        # The consumer hop really ran over ESP.
        assert client_daemon.data_packets_sent > 0
