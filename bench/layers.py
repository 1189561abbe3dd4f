"""The layer table: which ``repro`` module belongs to which layer.

Layers are the repo's own modules, grouped the way the ROADMAP names them
(engine dispatch → link → TCP → ESP cost charging → real-byte crypto → apps →
shard sync).  The traced pass maps every profiled code object's filename to
one of these names; ``bench/README.md`` prints the same table for readers.
"""

from __future__ import annotations

import os

#: Report order.  ``apps.workload`` is the *simulated* load generator: if
#: its share grows past ~5 % the benchmark is measuring its own load.
LAYERS = (
    "sim.engine", "sim.shard",
    "net.link", "net.node", "net.tcp", "net.other",
    "hip.daemon", "hip.esp", "tls", "crypto",
    "apps.proxy", "apps.rubis", "apps.workload",
    "cloud", "scenarios", "metrics",
)

#: Pseudo-layer for the benchmark's own frames (the root of every call chain).
DRIVER = "driver"

#: Module (dotted, below ``repro.``) → layer.  A module not listed falls back
#: to its package's entry in ``_PACKAGE_LAYER``.
_MODULE_LAYER = {
    "sim.shard": "sim.shard",
    "net.link": "net.link",
    "net.tcp": "net.tcp",
    "net.udp": "net.other", "net.icmp": "net.other", "net.dns": "net.other",
    "net.dnssec": "net.other", "net.nat": "net.other", "net.teredo": "net.other",
    "hip.esp": "hip.esp",
    "apps.proxy": "apps.proxy",
    "apps.workload": "apps.workload", "apps.iperf": "apps.workload",
}

#: Package → layer for everything ``_MODULE_LAYER`` does not single out:
#: ``sim`` (engine, events, resources, rng), ``net`` (node, routing, packet,
#: addresses, topology), ``hip`` (daemon, packets, identity, firewall, dos,
#: rendezvous, dnsproxy), ``apps`` (rubis, database, http, streams).
_PACKAGE_LAYER = {
    "sim": "sim.engine", "net": "net.node", "hip": "hip.daemon",
    "apps": "apps.rubis", "tls": "tls", "crypto": "crypto", "cloud": "cloud",
    "scenarios": "scenarios", "metrics": "metrics",
}

_REPRO_MARK = "/repro/"
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + "/"


def layer_of_file(filename: str) -> str | None:
    """Layer of a source file; ``DRIVER`` for the benchmark's own files.

    ``None`` means *transparent*: C functions, the standard library and
    anything else outside the program, whose time the traced pass charges to
    whichever layer called it.
    """
    path = filename
    at = path.rfind(_REPRO_MARK)
    if at < 0 or not path.endswith(".py"):
        # ``python3 bench/run.py`` gives the entry script a relative filename.
        return DRIVER if os.path.abspath(path).startswith(_BENCH_DIR) else None
    module = path[at + len(_REPRO_MARK):-len(".py")].replace("/", ".")
    if module.endswith(".__init__"):
        module = module[:-len(".__init__")]
    layer = _MODULE_LAYER.get(module)
    if layer is None:
        layer = _PACKAGE_LAYER.get(module.partition(".")[0])
    return layer
