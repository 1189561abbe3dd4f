"""File discovery, suppression application and the CLI.

``python -m repro.analysis src tests --strict`` is the canonical invocation
(CI runs exactly that).  Exit status: 0 when clean, 1 when any active
finding survives, 2 on usage errors.  Without ``--strict`` the suppression
hygiene meta-rules (ANA001/ANA002) are reported but do not gate.

Each file is parsed exactly once and every rule is handed the same
:class:`~repro.analysis.base.ProgramContext` — the call graph is built
once per run, not per rule.  Per-rule wall time lands
in the JSON report's ``timings`` map.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
import time
from dataclasses import dataclass, field

from repro.analysis.base import (
    REGISTRY,
    ModuleContext,
    ProgramContext,
    registered_rules,
    rule_doc,
)
from repro.analysis.findings import Finding, Suppression, parse_suppressions
from repro.analysis.report import META_RULES, analysis_json, render_text

# Ensure the rule registry is populated before any analysis runs.
import repro.analysis.isolation  # noqa: F401  (registration side effect)
import repro.analysis.lifecycle  # noqa: F401  (registration side effect)
import repro.analysis.rules  # noqa: F401  (registration side effect)
import repro.analysis.statemachine  # noqa: F401  (registration side effect)
import repro.analysis.validation  # noqa: F401  (registration side effect)
import repro.analysis.perf  # noqa: F401  (registration side effect)

_HYGIENE_RULES = ("ANA001", "ANA002")

_FAMILY_TITLES = {
    "ANA": "analysis hygiene",
    "CONF": "configuration consistency",
    "DET": "determinism",
    "ISO": "shard isolation",
    "LIF": "handle lifecycle",
    "PERF": "hot-path discipline",
    "SEC": "MAC comparison",
    "VAL": "wire-input validation",
}


@dataclass
class AnalysisResult:
    """Everything one run produced, pre-partitioned for the reporters."""

    files_checked: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: rule id -> wall seconds its run took (a family's shared pass is
    #: booked to whichever of its rules ran first)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def gating(self, strict: bool) -> list[Finding]:
        """Findings that should fail the build."""
        return [
            f
            for f in self.active
            if strict or f.rule not in _HYGIENE_RULES
        ]

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    def add_timing(self, rule: str, seconds: float) -> None:
        self.timings[rule] = self.timings.get(rule, 0.0) + seconds


def _apply_suppressions(
    findings: list[Finding],
    suppressions: list[Suppression],
    rules: set[str] | None = None,
) -> list[Finding]:
    """Match findings against suppression comments; emit hygiene findings.

    A suppression on the finding's own line, or standalone on the line just
    above, covers it.  Meta-findings (ANA*) are never suppressible — the
    inventory must stay inspectable.
    """
    by_line: dict[int, list[Suppression]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.target_line, []).append(sup)

    out: list[Finding] = []
    for finding in findings:
        sup = None
        if finding.rule not in META_RULES:
            for candidate in by_line.get(finding.line, []):
                if candidate.covers(finding.rule):
                    sup = candidate
                    break
        if sup is None:
            out.append(finding)
        else:
            sup.used = True
            out.append(finding.suppress(sup.justification))

    for sup in suppressions:
        if not sup.justification:
            out.append(
                Finding(
                    path=sup.path,
                    line=sup.line,
                    col=0,
                    rule="ANA001",
                    message=(
                        "suppression without justification; write "
                        "`# repro: ignore[RULE] -- why this is fine`"
                    ),
                )
            )
        if not sup.used:
            # Under a --rules subset a suppression for an unselected rule
            # is trivially unused; only gate the ones whose rules ran.
            if (
                rules is not None
                and "*" not in sup.rules
                and not (sup.rules & rules)
            ):
                continue
            out.append(
                Finding(
                    path=sup.path,
                    line=sup.line,
                    col=0,
                    rule="ANA002",
                    message=(
                        f"suppression for {', '.join(sorted(sup.rules))} "
                        "matched no finding; remove it"
                    ),
                )
            )
    return out


# -- shared analysis core ------------------------------------------------------

def _clock() -> float:
    """Wall time for the per-rule timing report (tooling, not simulation)."""
    # repro: ignore[DET001] -- times the linter's own passes for the JSON report; analysis tooling never runs inside the simulation
    return time.perf_counter()


def _parse_module(source: str, path: str) -> ModuleContext | Finding:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 0,
            col=exc.offset or 0,
            rule="ANA000",
            message=f"syntax error: {exc.msg}",
        )
    return ModuleContext(path=path, source=source, tree=tree)


def _run_rules(
    contexts: list[ModuleContext],
    rules: set[str] | None,
    result: AnalysisResult | None = None,
) -> None:
    """Run every selected rule; findings land in each owning context."""
    pctx = ProgramContext(contexts=contexts)
    for rule_cls in REGISTRY:
        if rules is not None and rule_cls.rule not in rules:
            continue
        start = _clock()
        rule_cls.run(pctx)
        if result is not None:
            result.add_timing(rule_cls.rule, _clock() - start)


def analyze_source(
    source: str, path: str, rules: set[str] | None = None
) -> list[Finding]:
    """Analyze one module's text; ``path`` drives rule scoping.

    ``rules`` restricts which rules run (None = all registered).  The
    whole-program rules see a single-module program — exactly what the
    fixture suites need.
    """
    parsed = _parse_module(source, path)
    if isinstance(parsed, Finding):
        return [parsed]
    _run_rules([parsed], rules)
    return _apply_suppressions(
        parsed.findings, parse_suppressions(source, path), rules
    )


def _iter_python_files(paths: list[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    # Stable discovery order: the report must not depend on filesystem order.
    return sorted(set(files))


def analyze_paths(
    paths: list[str], rules: set[str] | None = None
) -> AnalysisResult:
    """Analyze every ``.py`` file under ``paths`` (files or directories).

    Each file is parsed once; every rule shares the ASTs.
    """
    result = AnalysisResult()
    contexts: list[ModuleContext] = []
    for file_path in _iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            result.extend(
                [
                    Finding(
                        path=str(file_path),
                        line=0,
                        col=0,
                        rule="ANA000",
                        message=f"unreadable: {exc}",
                    )
                ]
            )
            continue
        result.files_checked += 1
        parsed = _parse_module(source, str(file_path))
        if isinstance(parsed, Finding):
            result.extend([parsed])
        else:
            contexts.append(parsed)

    _run_rules(contexts, rules, result)
    for ctx in contexts:
        result.extend(
            _apply_suppressions(
                ctx.findings, parse_suppressions(ctx.source, ctx.path), rules
            )
        )
    return result


def _print_rules() -> None:
    """Grouped ``--list-rules``: family heading, then ``RULE  one-liner``."""
    all_rules = {**registered_rules(), **META_RULES}
    families: dict[str, list[str]] = {}
    for rule in sorted(all_rules):
        families.setdefault(rule.rstrip("0123456789"), []).append(rule)
    for family in sorted(families):
        title = _FAMILY_TITLES.get(family, "")
        print(f"{family} — {title}" if title else family)
        for rule in families[family]:
            doc = META_RULES.get(rule) or rule_doc(rule) or all_rules[rule]
            print(f"  {rule}  {doc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based determinism & protocol-invariant linter",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to analyze (default: src tests)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail on suppression-hygiene findings (ANA001/ANA002)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the strict-JSON report instead of text",
    )
    parser.add_argument(
        "--rules", default=None,
        help=(
            "comma-separated rule ids or case-insensitive prefixes to run "
            "(e.g. --rules conf,sec selects CONF* and SEC*; default: all)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print registered rules and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0

    selected = None
    if args.rules:
        known = set(registered_rules())
        selected = set()
        unknown = []
        for token in (t.strip() for t in args.rules.split(",")):
            if not token:
                continue
            matches = {r for r in known if r.upper().startswith(token.upper())}
            if matches:
                selected |= matches
            else:
                unknown.append(token)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    result = analyze_paths(args.paths, rules=selected)
    if args.json:
        print(json.dumps(analysis_json(result), indent=2, sort_keys=True))
    else:
        for line in render_text(result):
            print(line)
    return 1 if result.gating(args.strict) else 0
