"""Application substrates for the paper's experiments.

Everything the evaluation runs: HTTP (:mod:`~repro.apps.http`) over TCP,
plain or through a HIP or SSL-VPN tunnel; the reverse HTTP proxy / load
balancer (:mod:`~repro.apps.proxy`, HAProxy's role); a SQL-ish database
server with query cache (:mod:`~repro.apps.database`, MySQL's role); the
RUBiS-like auction workload (:mod:`~repro.apps.rubis`); closed- and
open-loop load generators (:mod:`~repro.apps.workload`, jmeter/httperf's
roles); and bulk TCP measurement (:mod:`~repro.apps.iperf`).
"""

from repro.apps.streams import BufferedReader, StreamClosed

__all__ = ["BufferedReader", "StreamClosed"]
