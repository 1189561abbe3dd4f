"""Builder for the Figure-1 deployment.

::

    clients ──(WAN)── load balancer ──(WAN)── [ IaaS cloud ]
                                               web VM x N ── db VM

* The load balancer (HAProxy's role) sits *outside* the cloud, as in the
  paper, and terminates consumer HTTP.
* ``security="basic"`` runs everything in the clear; ``"ssl"`` gives the
  LB, web and db nodes OpenVPN-style SSL-VPN daemons and addresses the
  LB→web and web→db hops by tunnel address, so the VPN record layer carries
  them (the paper's §V-A baseline); ``"hip"`` gives the same nodes HIP
  daemons and addresses the same hops by LSI, so ESP protects them
  transparently (end users still speak plain HTTP — HIP's end-to-middle
  deployment).
* Web VMs are EC2 micros, the database a large instance, per §V-A.

For the grown-sideways, multi-zone version of this deployment (one
availability zone per simulation shard, a fluid-fast-forwarded media tier,
million-session runs) see :mod:`repro.scenarios.rubis_scale`.

The builder is deterministic in ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.database import DbServer, rubis_tables
from repro.apps.proxy import Backend, ReverseProxy
from repro.apps.rubis import RubisWebServer
from repro.cloud.iaas import PrivateCloud, PublicCloud
from repro.cloud.datacenter import Internet
from repro.cloud.tenant import Tenant
from repro.cloud.vm import VirtualMachine
from repro.crypto.rsa import RsaKeyPair
from repro.hip.daemon import HipConfig, HipDaemon
from repro.hip.identity import HostIdentity
from repro.net.addresses import IPAddress, ipv4
from repro.net.node import Node
from repro.net.tcp import TcpStack
from repro.sim import RngStreams, Simulator

SECURITY_MODES = ("basic", "hip", "ssl")

WEB_PORT = 8080
DB_PORT = 3306
FRONTEND_PORT = 80

# WAN latencies (one-way).  Tuned so the httperf baseline lands near the
# paper's ~116 ms mean response time; see EXPERIMENTS.md.
CLIENT_WAN_DELAY = 4e-3
LB_WAN_DELAY = 1e-3
CLOUD_WAN_DELAY = 7e-3


@dataclass
class RubisDeployment:
    """Everything an experiment needs to drive the deployment."""

    sim: Simulator
    rngs: RngStreams
    security: str
    provider: object
    internet: Internet
    lb_node: Node
    lb: ReverseProxy
    frontend_addr: IPAddress
    client_node: Node
    client_tcp: TcpStack
    web_vms: list[VirtualMachine]
    web_servers: list[RubisWebServer]
    db_vm: VirtualMachine
    db_server: DbServer
    daemons: dict[str, HipDaemon] = field(default_factory=dict)
    vpn_daemons: dict[str, object] = field(default_factory=dict)

    def hip_meters(self):
        """Merged crypto meter across every HIP daemon (for ablations)."""
        from repro.crypto.costmodel import CryptoMeter

        merged = CryptoMeter()
        for daemon in self.daemons.values():
            merged = merged.merged(daemon.meter)
        return merged


def build_rubis_cloud(
    seed: int,
    security: str = "basic",
    provider_kind: str = "public",
    n_web: int = 3,
    cache_enabled: bool = False,
    hip_rsa_bits: int = 1024,
    extra_tenants: int = 1,
    web_cpu_scale_override: float | None = None,
) -> RubisDeployment:
    """Construct the full deployment; the simulation is ready to run.

    ``web_cpu_scale_override`` replaces the web micros' sustained CPU scale;
    the httperf experiment passes the t1.micro *burst* scale (2 EC2 compute
    units) because its run is short enough to stay within the burst budget,
    whereas the long closed-loop Figure-2 runs see the throttled sustained
    rate.
    """
    if security not in SECURITY_MODES:
        raise ValueError(f"security must be one of {SECURITY_MODES}")
    sim = Simulator()
    rngs = RngStreams(seed)
    internet = Internet(sim)

    if provider_kind == "public":
        provider = PublicCloud(sim)
        gw_core = ipv4("203.0.113.1")
        gw_inet = ipv4("203.0.113.2")
    elif provider_kind == "private":
        provider = PrivateCloud(sim)
        gw_core = ipv4("203.0.113.5")
        gw_inet = ipv4("203.0.113.6")
    else:
        raise ValueError(f"unknown provider kind {provider_kind!r}")
    provider.datacenter.attach_gateway(
        internet.router, gateway_addr=gw_inet, core_addr=gw_core,
        delay_s=CLOUD_WAN_DELAY,
    )

    # --- tenants and instances -------------------------------------------------
    tenant = Tenant("webshop-inc")
    web_vms = [
        provider.launch(tenant, "t1.micro", name=f"web{i}") for i in range(n_web)
    ]
    if web_cpu_scale_override is not None:
        for vm in web_vms:
            vm.cpu_scale = web_cpu_scale_override
    db_vm = provider.launch(tenant, "m1.large", name="db0")
    # Competing tenants co-located on the same plant (multi-tenancy realism).
    for t in range(extra_tenants):
        other = Tenant(f"rival-{t}")
        provider.launch(other, "t1.micro", name=f"rival{t}-vm")

    # --- the load balancer, outside the cloud -----------------------------------
    lb_node = Node(sim, "loadbalancer", cpu_cores=4)
    frontend_addr = ipv4("198.51.100.10")
    internet.attach(lb_node, frontend_addr, delay_s=LB_WAN_DELAY)

    # --- consumers ----------------------------------------------------------------
    client_node = Node(sim, "clients", cpu_cores=8)
    client_addr = ipv4("192.0.2.10")
    internet.attach(client_node, client_addr, delay_s=CLIENT_WAN_DELAY)

    # --- stacks --------------------------------------------------------------------
    tcp = {vm.name: TcpStack(vm) for vm in web_vms}
    tcp["db"] = TcpStack(db_vm)
    tcp["lb"] = TcpStack(lb_node)
    client_tcp = TcpStack(client_node)

    daemons: dict[str, HipDaemon] = {}
    vpn_daemons: dict[str, object] = {}
    # "ssl" models the paper's OpenVPN-style deployment: persistent TLS
    # tunnels between the LB, web and db nodes, with per-packet record
    # protection — the structural twin of HIP's ESP data path.
    if security == "ssl":
        from repro.net.addresses import IPAddress as _IP
        from repro.tls.vpn import SslVpnDaemon, VPN_SUBNET

        key_rng = rngs.stream("vpn-keys")
        vpn_base = VPN_SUBNET.network.value
        nodes = [("loadbalancer", lb_node), ("db0", db_vm)] + [
            (vm.name, vm) for vm in web_vms
        ]
        vpn_addrs = {}
        keypairs = {}
        for i, (name, node) in enumerate(nodes):
            vpn_addrs[name] = _IP(4, vpn_base + 10 + i)
            keypairs[name] = RsaKeyPair.generate(hip_rsa_bits, key_rng)
        for name, node in nodes:
            vpn_daemons[name] = SslVpnDaemon(
                node, vpn_addrs[name], keypairs[name],
                rng=rngs.stream(f"vpn-{name}"),
            )
        locators = {"loadbalancer": frontend_addr, "db0": db_vm.primary_address}
        for vm in web_vms:
            locators[vm.name] = vm.primary_address
        for vm in web_vms:
            for a, b in (("loadbalancer", vm.name), (vm.name, "db0")):
                vpn_daemons[a].add_peer(vpn_addrs[b], locators[b], keypairs[b].public)
                vpn_daemons[b].add_peer(vpn_addrs[a], locators[a], keypairs[a].public)

    if security == "hip":
        hip_cfg = HipConfig(real_crypto=False)  # bulk path: cost-model crypto
        id_rng = rngs.stream("hip-ident")
        identities = {
            node.name: HostIdentity.generate(id_rng, "rsa", rsa_bits=hip_rsa_bits)
            for node in [lb_node, db_vm, *web_vms]
        }
        for node in [lb_node, db_vm, *web_vms]:
            daemons[node.name] = HipDaemon(
                node, identities[node.name],
                rng=rngs.stream(f"hipd-{node.name}"), config=hip_cfg,
            )
        # hosts-file style peer wiring: LB <-> webs, webs <-> db.
        for vm in web_vms:
            daemons["loadbalancer"].add_peer(
                identities[vm.name].hit, [vm.primary_address]
            )
            daemons[vm.name].add_peer(
                identities["loadbalancer"].hit, [frontend_addr]
            )
            daemons[vm.name].add_peer(identities["db0"].hit, [db_vm.primary_address])
            daemons["db0"].add_peer(identities[vm.name].hit, [vm.primary_address])

    # --- database ---------------------------------------------------------------------
    db_server = DbServer(
        db_vm, tcp["db"], DB_PORT, rubis_tables(),
        cache_enabled=cache_enabled, rng=rngs.stream("db-service"),
    )

    # --- web tier -------------------------------------------------------------------
    web_servers = []
    for vm in web_vms:
        if security == "hip":
            db_addr = daemons[vm.name].lsi_for_peer(daemons["db0"].hit)
        elif security == "ssl":
            db_addr = vpn_daemons["db0"].vpn_addr
        else:
            db_addr = db_vm.primary_address
        web_servers.append(
            RubisWebServer(
                vm, tcp[vm.name], WEB_PORT, db_addr, DB_PORT,
                rng=rngs.stream(f"web-{vm.name}"),
            )
        )

    # --- the reverse proxy ---------------------------------------------------------------
    backends = []
    for vm in web_vms:
        if security == "hip":
            addr = daemons["loadbalancer"].lsi_for_peer(daemons[vm.name].hit)
        elif security == "ssl":
            addr = vpn_daemons[vm.name].vpn_addr
        else:
            addr = vm.primary_address
        backends.append(Backend(addr=addr, port=WEB_PORT))
    lb = ReverseProxy(
        lb_node, tcp["lb"], FRONTEND_PORT, backends, algorithm="round-robin"
    )

    return RubisDeployment(
        sim=sim, rngs=rngs, security=security, provider=provider,
        internet=internet, lb_node=lb_node, lb=lb, frontend_addr=frontend_addr,
        client_node=client_node, client_tcp=client_tcp,
        web_vms=web_vms, web_servers=web_servers,
        db_vm=db_vm, db_server=db_server, daemons=daemons,
        vpn_daemons=vpn_daemons,
    )
