"""Reproduction of "Secure Networking for Virtual Machines in the Cloud"
(Komu et al., IEEE CLUSTER 2012).

Subpackages
-----------
``repro.sim``
    Deterministic discrete-event engine everything runs on.
``repro.crypto``
    From-scratch cryptographic primitives + the calibrated CPU cost model.
``repro.net``
    Packet network: addressing, links, routing, NAT, UDP/TCP/ICMP, Teredo.
``repro.hip``
    The paper's contribution: the Host Identity Protocol stack.
``repro.tls``
    The SSL comparison point: OpenVPN-style tunnels.
``repro.apps``
    HTTP, reverse proxy/load balancer, database, RUBiS, load generators,
    iperf.
``repro.cloud``
    IaaS substrate: VMs, hypervisors, datacenters, providers, migration.
``repro.scenarios``
    Builders and runners for every experiment in the paper's evaluation.

See DESIGN.md for the system inventory and EXPERIMENTS.md for results.
"""

__version__ = "1.0.0"
