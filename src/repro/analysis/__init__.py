"""Static determinism & protocol-invariant linter for the repro stack.

Every experiment in EXPERIMENTS.md is only trustworthy because the simulator
is deterministic: all stochastic draws flow through named
:class:`~repro.sim.rng.RngStreams` and no component reads the wall clock.
This package *enforces* that discipline mechanically:

* :mod:`repro.analysis.rules` — repo-specific AST checkers (rule ids
  ``DET001``..., see ``--list-rules``), among them ``SEC002``: MACs are
  compared with ``ct_equal``, never ``==`` (key material needs no rule: it is
  a :class:`repro.crypto.secret.Secret`, which refuses ``==`` and printing);
* :mod:`repro.analysis.statemachine` — the HIP and VPN machines move only
  through ``_transition`` (which enforces the edge table kept beside each
  ``StrEnum``) and spell states as enum members (``CONF001``, ``CONF003``);
* :mod:`repro.analysis.validation` — received bytes are read through
  :class:`repro.net.wire.WireReader`, never raw ``struct.unpack``
  (``VAL001``);
* :mod:`repro.analysis.isolation` — shard-isolation rules: no shared
  mutable state across shard simulators (``ISO001``-``ISO004``);
* :mod:`repro.analysis.lifecycle` — leak lints: timers, registries and
  taps must have a release path (``LIF001``-``LIF003``);
* :mod:`repro.analysis.wire` — the runtime wire sanitizer: a link-layer
  tap asserting HIP TLV well-formedness and byte-exact parse/serialize
  round-trips on every sent control packet (the shard lookahead contract
  needs no tap: :mod:`repro.sim.shard` raises where it can break);
* :mod:`repro.analysis.runner` — file discovery, suppression handling and
  the ``python -m repro.analysis`` CLI;
* :mod:`repro.analysis.report` — text and strict-JSON reporters (schema
  ``repro-analysis/2``, sibling of ``repro-metrics/2``);
* :mod:`repro.analysis.replay` — the *dynamic* complement: run a scenario
  twice under one seed and compare flight-recorder digests.
* :mod:`repro.analysis.census` — which functions the product runs call.

Findings are suppressed inline with a justified comment::

    something_flagged()  # repro: ignore[DET001] -- why this one is fine

An unjustified or unused suppression is itself a finding in ``--strict``
mode, so the suppression inventory stays honest.
"""

from repro.analysis.findings import Finding, Suppression
from repro.analysis.report import ANALYSIS_SCHEMA, analysis_json, render_text
from repro.analysis.runner import AnalysisResult, analyze_paths, analyze_source, main

__all__ = [
    "ANALYSIS_SCHEMA",
    "AnalysisResult",
    "Finding",
    "Suppression",
    "analysis_json",
    "analyze_paths",
    "analyze_source",
    "main",
    "render_text",
]
