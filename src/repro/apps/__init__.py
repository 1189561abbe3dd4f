"""Application substrates for the paper's experiments.

Everything the evaluation runs: HTTP (:mod:`~repro.apps.http`) over TCP,
plain or through a HIP or SSL-VPN tunnel; the reverse HTTP proxy / load
balancer (:mod:`~repro.apps.proxy`, HAProxy's role); a SQL-ish database
server with query cache (:mod:`~repro.apps.database`, MySQL's role); the
RUBiS-like auction workload (:mod:`~repro.apps.rubis`); closed- and
open-loop load generators (:mod:`~repro.apps.workload`, jmeter/httperf's
roles); and bulk TCP measurement (:mod:`~repro.apps.iperf`).

Each reads its connections with the primitives of
:class:`~repro.net.tcp.TcpConnection` (``recv_bytes``, ``read_until``,
``recv``, ``consume``) and writes with ``TcpConnection.write``.  The same
code runs in all three security scenarios of the paper: ``basic`` is plain
TCP, while ``hip`` and ``ssl`` address the peer by LSI/HIT or tunnel
address, and the node's HIP daemon or SSL-VPN daemon protects the packets
below TCP without the application knowing.
"""
