"""Shared provenance stamping for BENCH_*.json reports.

Every benchmark report carries the same header — generation time, Python
version, core count, and the git revision it was produced from — so a series of
BENCH_*.json files checked in over time forms a comparable trajectory.
Benchmarks are measurement scripts, not simulation code, so reading the
wall clock here is fine (the determinism linter does not cover this
directory).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def git_revision() -> str:
    """Short SHA of HEAD, with a ``-dirty`` suffix for uncommitted changes;
    ``"unknown"`` outside a git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return "unknown"
        rev = sha.stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if dirty.returncode == 0 and dirty.stdout.strip():
            rev += "-dirty"
        return rev
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance() -> dict:
    """The common report header: splice into the top of each report dict."""
    return {
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
    }
