"""VM migration with HIP-protected state transfer and mobility survival.

§IV-C: "moving a VM image over the network incurs a security risk which can
be mitigated with HIP", and HIP's locator agility lets the migrated VM keep
its associations alive by sending UPDATE packets (RFC 5206) — no layer-2
adjacency required between source and destination host.

``migrate_vm`` performs: pre-copy of the memory image between the two
*hypervisors* over TCP (optionally through a HIP association between the
hypervisor HITs — deployment scenario II), a brief stop-and-copy pause,
re-attachment of the VM on the destination host with a new address, and a
``move_to`` on the VM's own HIP daemon so every peer learns the new locator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpStack

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.hypervisor import PhysicalHost
    from repro.cloud.vm import VirtualMachine
    from repro.hip.daemon import HipDaemon

MIGRATION_PORT = 49152
DIRTY_FRACTION = 0.12  # stop-and-copy residue after one pre-copy round
# Hypervisor-to-hypervisor transfers ride jumbo frames / GSO on the
# datacenter fabric: large segments keep the event count sane for
# multi-hundred-MB images without changing aggregate byte accounting.
MIGRATION_MSS = 61440
MIGRATION_WINDOW = 4 * MIGRATION_MSS


@dataclass
class MigrationReport:
    vm_name: str
    bytes_transferred: int
    precopy_seconds: float
    downtime_seconds: float
    new_address: object
    secured: bool


def migrate_vm(
    vm: "VirtualMachine",
    dst_host: "PhysicalHost",
    src_tcp: TcpStack,
    dst_tcp: TcpStack,
    vm_daemon: "HipDaemon | None" = None,
    dst_addr_override=None,
    secured: bool = True,
) -> Generator:
    """Process-generator: migrate ``vm`` to ``dst_host``; returns a report.

    ``src_tcp`` / ``dst_tcp`` are the hypervisors' TCP stacks.  When
    ``secured`` and both hypervisors run HIP daemons, the state transfer is
    addressed to the destination hypervisor's HIT, so it flows through ESP.
    ``vm_daemon`` is the guest's HIP daemon (if it runs HIP); after the
    switch-over it announces the new locator to its peers.
    """
    sim = vm.sim
    src_host = vm.host
    if src_host is None:
        raise RuntimeError(f"{vm.name} is not attached to a host")
    if src_host is dst_host:
        raise ValueError("source and destination host are the same")
    image_bytes = vm.instance_type.memory_mb * 1024 * 1024

    # Destination address for the transfer: the dst hypervisor's HIT when
    # secured (HIP scenario II), else its routable address.
    if secured:
        from repro.hip.daemon import HipDaemon  # local import to avoid cycles

        dst_daemon = _find_daemon(dst_tcp.node)
        if dst_daemon is None:
            raise RuntimeError("secured migration needs HIP daemons on both hypervisors")
        transfer_dst = dst_daemon.hit
    else:
        transfer_dst = dst_tcp.node.addresses(4)[0]

    vm.state = "migrating"
    listener = dst_tcp.listen(
        MIGRATION_PORT, recv_window=MIGRATION_WINDOW, mss=MIGRATION_MSS,
    )

    received = {}

    def receiver() -> Generator:
        conn = yield listener.accept()
        eof = sim.event()
        total = 0

        def count(chunk) -> None:  # at delivery, no wake per chunk
            nonlocal total
            if len(chunk):
                total += len(chunk)
            elif not eof.triggered:
                eof.succeed()

        conn.consume(count)
        yield eof
        received["bytes"] = total

    recv_proc = sim.process(receiver(), name=f"migrate-recv-{vm.name}")

    t0 = sim.now
    conn = yield sim.process(src_tcp.open_connection(
        transfer_dst, MIGRATION_PORT,
        recv_window=MIGRATION_WINDOW, mss=MIGRATION_MSS,
    ))
    # Pre-copy round: full image while the guest keeps running.
    conn.write(VirtualPayload(image_bytes, tag=f"migrate-{vm.name}"))
    precopy_done = sim.event()

    def watch_precopy() -> Generator:
        while conn.snd_una < conn.snd_buf_end:
            yield sim.timeout(0.02)
        precopy_done.succeed()

    sim.process(watch_precopy(), name="migrate-precopy-watch")
    yield precopy_done
    precopy_seconds = sim.now - t0

    # Stop-and-copy: guest paused while dirty pages drain.
    pause_start = sim.now
    dirty = int(image_bytes * DIRTY_FRACTION)
    conn.write(VirtualPayload(dirty, tag=f"migrate-dirty-{vm.name}"))
    conn.close()
    yield recv_proc
    listener.close()

    # Re-attach on the destination host with a new address.
    src_host.detach_vm(vm)
    new_addr = dst_host.attach_vm(vm, address=dst_addr_override)
    downtime = sim.now - pause_start
    vm.state = "running"

    # HIP mobility: tell every peer about the new locator.
    if vm_daemon is not None:
        vm_daemon.move_to(new_addr)

    return MigrationReport(
        vm_name=vm.name,
        bytes_transferred=received.get("bytes", 0),
        precopy_seconds=precopy_seconds,
        downtime_seconds=downtime,
        new_address=new_addr,
        secured=secured,
    )


def _find_daemon(node) -> "HipDaemon | None":
    """Locate a HipDaemon bound to the node (via its output shims)."""
    for shim in getattr(node, "_output_shims", ()):
        owner = getattr(shim, "__self__", None)
        if owner is not None and type(owner).__name__ == "HipDaemon":
            return owner
    return None
