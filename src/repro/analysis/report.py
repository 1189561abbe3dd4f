"""Text and strict-JSON reporters for analysis results.

The JSON schema (version ``repro-analysis/2``) is the linter sibling of the
``repro-metrics/2`` run report::

    {
      "schema": "repro-analysis/2",
      "rules":     {"<RULE>": "<description>", ...},   # every registered rule
      "files":     int,                                 # files analyzed
      "findings":  [{"path": str, "line": int, "col": int, "rule": str,
                     "message": str, "suppressed": false,
                     "justification": null}, ...],      # active, sorted
      "suppressed":[{... "suppressed": true,
                     "justification": str|null}, ...],  # inventory
      "counts":    {"<RULE>": int, ...},                # active findings only
      "timings":   {"<RULE>": float, ...},              # wall seconds per pass
      "clean":     bool                                 # no active findings
    }

Strict JSON throughout — no NaN, stable key order, findings sorted by
(path, line, col, rule).
"""

from __future__ import annotations

from repro.analysis.base import registered_rules

ANALYSIS_SCHEMA = "repro-analysis/2"

# Findings about the analysis itself (not produced by registered checkers).
META_RULES = {
    "ANA000": "file failed to parse",
    "ANA001": "suppression comment lacks a `-- justification`",
    "ANA002": "suppression comment matched no finding",
}


def analysis_json(result) -> dict:
    """JSON-ready report for one :class:`~repro.analysis.runner.AnalysisResult`."""
    active = sorted(result.active)
    suppressed = sorted(result.suppressed)
    counts: dict[str, int] = {}
    for finding in active:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "schema": ANALYSIS_SCHEMA,
        "rules": {**registered_rules(), **META_RULES},
        "files": result.files_checked,
        "findings": [f.as_json() for f in active],
        "suppressed": [f.as_json() for f in suppressed],
        "counts": dict(sorted(counts.items())),
        "timings": {
            rule: round(seconds, 6)
            for rule, seconds in sorted(getattr(result, "timings", {}).items())
        },
        "clean": not active,
    }


def render_text(result) -> list[str]:
    """Human-readable report, one ``path:line:col RULE message`` per finding."""
    lines = []
    for finding in sorted(result.active):
        lines.append(f"{finding.location()}: {finding.rule} {finding.message}")
    for finding in sorted(result.suppressed):
        why = finding.justification or "(no justification)"
        lines.append(
            f"{finding.location()}: {finding.rule} suppressed -- {why}"
        )
    n_active = len(result.active)
    n_sup = len(result.suppressed)
    verdict = "clean" if not n_active else f"{n_active} finding(s)"
    lines.append(
        f"repro.analysis: {result.files_checked} file(s), {verdict}, "
        f"{n_sup} suppressed"
    )
    return lines
