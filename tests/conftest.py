"""Shared fixtures: deterministic RNGs, simulators, wired topologies."""

from __future__ import annotations

import random

import pytest

from repro.crypto.rsa import RsaKeyPair
from repro.hip.daemon import HipConfig, HipDaemon
from repro.hip.identity import HostIdentity
from repro.net.addresses import IPAddress, ipv4
from repro.net.icmp import IcmpStack
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.sim import Simulator
from repro.tls.vpn import VPN_SUBNET, SslVpnDaemon


@pytest.fixture(autouse=True)
def _wire_sanitizer_for_smoke(request):
    """Smoke-marked tests run with the runtime wire sanitizer installed:
    every HIP control packet crossing a link is checked for TLV
    well-formedness and a byte-exact parse/serialize round-trip."""
    if request.node.get_closest_marker("smoke") is None:
        yield
        return
    from repro.analysis.wire import wire_sanitizer

    with wire_sanitizer():
        yield


@pytest.fixture(autouse=True)
def _close_simulators(monkeypatch):
    """Close every ``Simulator`` the test built, when the test ends.

    A simulation left open holds suspended processes; the garbage collector
    would finalize them during some later test, whose counters their
    ``finally`` blocks (a proxy's ``conn.close()`` sending a FIN) would then
    bump.  ``Simulator.close()`` runs them here instead, in creation order.
    """
    built: list[Simulator] = []
    init = Simulator.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Simulator, "__init__", tracked_init)
    yield
    for sim in built:
        sim.close()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xDECAF)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def lan(sim):
    """Two hosts on one subnet: (sim, node_a, node_b)."""
    a, b = lan_pair(sim, "a", "b")
    return sim, a, b


@pytest.fixture(scope="session")
def session_identities():
    """RSA-512 host identities, generated once per test session (keygen is slow)."""
    gen = random.Random(0x1D54)
    return {
        "a": HostIdentity.generate(gen, "rsa", rsa_bits=512),
        "b": HostIdentity.generate(gen, "rsa", rsa_bits=512),
        "c": HostIdentity.generate(gen, "rsa", rsa_bits=512),
        "ecdsa": HostIdentity.generate(gen, "ecdsa"),
    }


def build_hip_pair(
    sim: Simulator, identities, config: HipConfig | None = None, **link_kw
):
    """Two HIP-enabled hosts with peer mappings installed, both daemons on
    ``config`` (default: ``HipConfig()``); ``link_kw`` goes to ``lan_pair``.

    Returns (sim, node_a, node_b, daemon_a, daemon_b).
    """
    a, b = lan_pair(sim, "a", "b", **link_kw)
    da = HipDaemon(a, identities["a"], rng=random.Random(11), config=config)
    db = HipDaemon(b, identities["b"], rng=random.Random(22), config=config)
    da.add_peer(db.hit, [ipv4("10.0.0.2")])
    db.add_peer(da.hit, [ipv4("10.0.0.1")])
    return sim, a, b, da, db


@pytest.fixture
def hip_pair(sim, session_identities):
    return build_hip_pair(sim, session_identities)


@pytest.fixture(scope="session")
def vpn_keys():
    """Two RSA-512 VPN key pairs, generated once per test session."""
    gen = random.Random(31)
    return RsaKeyPair.generate(512, gen), RsaKeyPair.generate(512, gen)


def vpn_addr(n: int) -> IPAddress:
    return IPAddress(4, VPN_SUBNET.network.value + n)


def build_vpn_pair(
    sim: Simulator, keys, server_knows_client: bool = True, **link_kw
):
    """Two SSL-VPN hosts, ``a`` keyed to reach ``b`` at ``vpn_addr(11)``;
    ``link_kw`` goes to ``lan_pair``.

    Returns (sim, node_a, node_b, daemon_a, daemon_b).
    """
    key_a, key_b = keys
    a, b = lan_pair(sim, "a", "b", **link_kw)
    va = SslVpnDaemon(a, vpn_addr(10), key_a, rng=random.Random(1))
    vb = SslVpnDaemon(b, vpn_addr(11), key_b, rng=random.Random(2))
    va.add_peer(vpn_addr(11), ipv4("10.0.0.2"), key_b.public)
    if server_knows_client:
        vb.add_peer(vpn_addr(10), ipv4("10.0.0.1"), key_a.public)
    return sim, a, b, va, vb


def run_proc(sim: Simulator, generator, until: float = 60.0):
    """Drive one process to completion; returns its value."""
    proc = sim.process(generator)
    return sim.run(until=proc)


@pytest.fixture
def drive():
    return run_proc
