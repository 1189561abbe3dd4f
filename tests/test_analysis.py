"""Analyzer tests: per-rule positive/negative fixtures, suppression
handling, reporter schema, CLI exit codes, and self-checks that the repo's
own tree is clean under ``--strict`` and that its full finding inventory
matches the pinned golden.

The fixture table is keyed by rule id and cross-checked against the
registry, so deleting (or unregistering) any rule implementation fails the
corresponding positive case here.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

import repro
from repro.analysis import ANALYSIS_SCHEMA, analysis_json, analyze_paths, analyze_source
from repro.analysis.base import registered_rules
from repro.analysis.runner import main as analysis_main

PRODUCT = "src/repro/fake/module.py"  # scoped like simulator code
STACKS = "src/repro/tls/fake.py"  # scoped like the HIP/TLS protocol stacks
TESTCODE = "tests/test_fake.py"  # scoped like test code

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


def active(source: str, path: str = PRODUCT) -> list:
    return [f for f in analyze_source(textwrap.dedent(source), path) if not f.suppressed]


def rule_ids(source: str, path: str = PRODUCT) -> set[str]:
    return {f.rule for f in active(source, path)}


# Per-rule fixtures: each entry is (snippets that must fire, snippets that
# must stay silent) under product scope (SEC002: under the protocol stacks).
FIXTURES: dict[str, tuple[list[str], list[str]]] = {
    "DET001": (
        [
            "import time\nx = time.time()\n",
            "import time\nx = time.monotonic()\n",
            "from time import perf_counter\nx = perf_counter()\n",
            "from datetime import datetime\nd = datetime.now()\n",
            "import datetime\nd = datetime.datetime.utcnow()\n",
            "import os\nb = os.urandom(16)\n",
            "import uuid\nu = uuid.uuid4()\n",
            "import secrets\nt = secrets.token_bytes(8)\n",
        ],
        [
            "x = sim.now\n",
            "import time\ntime.sleep(1)\n",  # blocking, but not a clock read
            "t = obj.time()\n",  # method on an object, not the module
        ],
    ),
    "DET002": (
        [
            "import random\nx = random.random()\n",
            "import random as _r\nrng = _r.Random(3)\n",
            "from random import randint\nx = randint(1, 6)\n",
            "import random\nrandom.shuffle(items)\n",
            # The module itself standing in for an injected generator.
            "import random\ndef f(rng=None):\n    rng = rng or random\n",
            "import random as _r\nkey = make_key(_r)\n",
        ],
        [
            # Injected-RNG idiom: annotation plus draws on the parameter.
            "import random\ndef f(rng: random.Random) -> float:\n    return rng.random()\n",
            "import random\ndef f(rng: random.Random | None) -> random.Random:\n    return rng\n",
            "x = self.rng.randint(0, 9)\n",
        ],
    ),
    "DET003": (
        [
            "for x in {1, 2, 3}:\n    pass\n",
            "for x in set(xs):\n    pass\n",
            "ys = [y for y in set(xs)]\n",
            "order = sorted(xs, key=id)\n",
            "xs.sort(key=lambda o: id(o))\n",
        ],
        [
            "for x in sorted(set(xs)):\n    pass\n",
            "for k in mapping:\n    pass\n",
            "best = min(xs, key=len)\n",
            "present = x in {1, 2, 3}\n",  # membership, not iteration
        ],
    ),
    "MET001": (
        [
            "RECORDER.record(1.0, 'tcp', 'tx')\n",
            "def f():\n    RECORDER.record(0.0, 'link', 'rx', n=1)\n",
            # An enabled-check somewhere else does not guard the else arm.
            "if RECORDER.enabled:\n    pass\nelse:\n    RECORDER.record(0.0, 'a', 'b')\n",
        ],
        [
            "if RECORDER.enabled:\n    RECORDER.record(1.0, 'tcp', 'tx')\n",
            "if RECORDER.enabled and verbose:\n    RECORDER.record(1.0, 'a', 'b')\n",
            "rec.record(1.0, 'a', 'b')\n",  # not the global singleton
        ],
    ),
    "EXC001": (
        [
            "try:\n    f()\nexcept:\n    handle()\n",
            "try:\n    f()\nexcept Exception:\n    pass\n",
            "try:\n    f()\nexcept (ValueError, Exception):\n    ...\n",
        ],
        [
            "try:\n    f()\nexcept ValueError:\n    pass\n",
            "try:\n    f()\nexcept Exception:\n    raise\n",
            "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n",
        ],
    ),
    "ARG001": (
        [
            "def f(a=[]):\n    pass\n",
            "def f(*, b={}):\n    pass\n",
            "def f(c=set()):\n    pass\n",
            "def f(d=dict()):\n    pass\n",
            "from collections import deque\ndef f(q=deque()):\n    pass\n",
            "g = lambda acc=[]: acc\n",
        ],
        [
            "def f(a=None):\n    pass\n",
            "def f(a=frozenset()):\n    pass\n",
            "def f(a=()):\n    pass\n",
            "def f(a=0, b='x'):\n    pass\n",
        ],
    ),
    "SEC002": (
        [
            "def f(key, data, got):\n    expect = key.digest(data)\n"
            "    if expect != got:\n        return False\n",
            "def f(key, data, mac):\n    return hmac_digest(key, data) == mac\n",
            "def f(hk, seq, icv):\n    return hk.digest(seq)[:12] == icv\n",
            "def f(master, digest, got):\n"
            "    return got == tls_verify_data(master, b'server finished', digest)\n",
            "class C:\n    def f(self, pkt, got):\n"
            "        tag = self.hmac_in.digest(pkt)\n        return tag == got\n",
        ],
        [
            "def f(key, data, got):\n    return ct_equal(key.digest(data), got)\n",
            "def f(got, n):\n    return len(got) == n or got == b'public'\n",
            "def f(key, data, seen):\n    expect = key.digest(data)\n"
            "    return expect is None or expect in seen\n",
        ],
    ),
}
_FIXTURE_PATH = {"SEC002": STACKS}


# Rules with richer fixture suites in their own test modules.
_COVERED_ELSEWHERE = {
    "CONF001": "tests/test_analysis_conformance.py",
    "CONF003": "tests/test_analysis_conformance.py",
    "VAL001": "tests/test_analysis_validation.py",
    "PERF001": "tests/test_analysis_perf.py",
    "PERF002": "tests/test_analysis_perf.py",
    "ISO001": "tests/test_analysis_isolation.py",
    "ISO002": "tests/test_analysis_isolation.py",
    "ISO003": "tests/test_analysis_isolation.py",
    "ISO004": "tests/test_analysis_isolation.py",
    "LIF001": "tests/test_analysis_lifecycle.py",
    "LIF002": "tests/test_analysis_lifecycle.py",
    "LIF003": "tests/test_analysis_lifecycle.py",
}


def test_fixture_table_covers_every_registered_rule():
    assert set(FIXTURES) | set(_COVERED_ELSEWHERE) == set(registered_rules())
    for module in set(_COVERED_ELSEWHERE.values()):
        assert (REPO_ROOT / module).is_file(), f"missing fixture module {module}"


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_fires_on_positive_fixtures(rule):
    for snippet in FIXTURES[rule][0]:
        path = _FIXTURE_PATH.get(rule, PRODUCT)
        assert rule in rule_ids(snippet, path), f"{rule} silent on: {snippet!r}"


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_silent_on_negative_fixtures(rule):
    for snippet in FIXTURES[rule][1]:
        path = _FIXTURE_PATH.get(rule, PRODUCT)
        assert rule not in rule_ids(snippet, path), f"{rule} fired on: {snippet!r}"


# ---------------------------------------------------------------- scoping --


def test_determinism_rules_do_not_bind_in_test_code():
    clocky = "import time\nx = time.time()\nimport random\ny = random.random()\n"
    assert rule_ids(clocky, path=TESTCODE) == set()


def test_arg001_binds_in_test_code_too():
    assert "ARG001" in rule_ids("def f(a=[]):\n    pass\n", path=TESTCODE)


def test_sec002_binds_only_in_the_protocol_stacks():
    snippet = FIXTURES["SEC002"][0][0]
    assert "SEC002" in rule_ids(snippet, path="src/repro/hip/daemon.py")
    assert "SEC002" not in rule_ids(snippet, path="src/repro/crypto/hmac_kdf.py")
    assert "SEC002" not in rule_ids(snippet, path="tests/test_tls.py")


def test_rng_module_is_exempt_from_det002():
    src = "import random\nrng = random.Random(7)\n"
    assert "DET002" not in rule_ids(src, path="src/repro/sim/rng.py")
    assert "DET002" in rule_ids(src, path="src/repro/sim/engine.py")


# ------------------------------------------------------------ suppression --


def test_same_line_suppression_with_justification():
    src = "import time\nx = time.time()  # repro: ignore[DET001] -- calibration only\n"
    findings = analyze_source(src, PRODUCT)
    det = [f for f in findings if f.rule == "DET001"]
    assert len(det) == 1 and det[0].suppressed
    assert det[0].justification == "calibration only"
    assert not [f for f in findings if f.rule.startswith("ANA")]


def test_standalone_suppression_covers_next_line():
    src = (
        "import time\n"
        "# repro: ignore[DET001] -- measuring the host on purpose\n"
        "x = time.time()\n"
    )
    findings = analyze_source(src, PRODUCT)
    assert [f.rule for f in findings if not f.suppressed] == []


def test_wildcard_suppression():
    src = "import time, random\nx = time.time() + random.random()  # repro: ignore[*] -- fixture\n"
    findings = analyze_source(src, PRODUCT)
    assert all(f.suppressed for f in findings if f.rule.startswith("DET"))


def test_suppression_without_justification_is_ana001():
    src = "import time\nx = time.time()  # repro: ignore[DET001]\n"
    assert "ANA001" in {f.rule for f in analyze_source(src, PRODUCT)}


def test_unused_suppression_is_ana002():
    src = "x = 1  # repro: ignore[DET001] -- nothing here\n"
    assert "ANA002" in {f.rule for f in analyze_source(src, PRODUCT)}


def test_rule_subset_skips_foreign_unused_suppressions():
    # A justified DET001 suppression must not read as "unused" (ANA002)
    # when a --rules subset excludes DET001 from the run entirely.
    src = "import time\nx = time.time()  # repro: ignore[DET001] -- fixture\n"
    rules = {f.rule for f in analyze_source(src, PRODUCT, rules={"ARG001"})}
    assert "ANA002" not in rules
    # A wildcard suppression is in scope for whatever ran, so if nothing
    # matched it, it is genuinely unused.
    src = "x = 1  # repro: ignore[*] -- nothing here\n"
    rules = {f.rule for f in analyze_source(src, PRODUCT, rules={"ARG001"})}
    assert "ANA002" in rules


def test_suppression_for_other_rule_does_not_apply():
    src = "import time\nx = time.time()  # repro: ignore[DET002] -- wrong rule\n"
    rules = {f.rule for f in analyze_source(src, PRODUCT) if not f.suppressed}
    assert "DET001" in rules and "ANA002" in rules


def test_directive_inside_string_is_not_a_suppression():
    src = 'import time\nmsg = "# repro: ignore[DET001] -- not a comment"\nx = time.time()\n'
    assert "DET001" in rule_ids(src)


def test_syntax_error_reports_ana000():
    assert {f.rule for f in analyze_source("def f(:\n", PRODUCT)} == {"ANA000"}


# -------------------------------------------------------------- reporters --


def _write_tree(root: pathlib.Path) -> None:
    product = root / "src" / "repro" / "mod.py"
    product.parent.mkdir(parents=True)
    product.write_text(
        "import time\n"
        "x = time.time()\n"
        "y = time.monotonic()  # repro: ignore[DET001] -- fixture exercises suppression\n"
    )
    testfile = root / "tests" / "test_mod.py"
    testfile.parent.mkdir(parents=True)
    testfile.write_text("def f(a=[]):\n    pass\n")


def test_json_report_schema_round_trip(tmp_path):
    _write_tree(tmp_path)
    result = analyze_paths([str(tmp_path / "src"), str(tmp_path / "tests")])
    payload = analysis_json(result)
    # Strict JSON: no NaN, round-trips losslessly.
    parsed = json.loads(json.dumps(payload, allow_nan=False, sort_keys=True))
    assert parsed == payload
    assert parsed["schema"] == ANALYSIS_SCHEMA
    assert parsed["files"] == 2
    assert parsed["clean"] is False
    assert parsed["counts"] == {"ARG001": 1, "DET001": 1}
    assert {f["rule"] for f in parsed["findings"]} == {"ARG001", "DET001"}
    [suppressed] = parsed["suppressed"]
    assert suppressed["rule"] == "DET001" and suppressed["suppressed"] is True
    assert suppressed["justification"] == "fixture exercises suppression"
    assert set(parsed["rules"]) >= set(registered_rules())


def test_findings_sorted_deterministically(tmp_path):
    _write_tree(tmp_path)
    result = analyze_paths([str(tmp_path)])
    locs = [(f["path"], f["line"], f["col"]) for f in analysis_json(result)["findings"]]
    assert locs == sorted(locs)


# -------------------------------------------------------------------- CLI --


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert analysis_main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_findings_exit_one_and_render_locations(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nx = time.time()\n")
    assert analysis_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2:4: DET001" in out


def test_cli_strict_gates_on_suppression_hygiene(tmp_path, capsys):
    src = tmp_path / "src" / "repro" / "mod.py"
    src.parent.mkdir(parents=True)
    src.write_text("import time\nx = time.time()  # repro: ignore[DET001]\n")
    # Non-strict: the DET001 is suppressed; the missing justification is
    # reported but does not gate.
    assert analysis_main([str(src)]) == 0
    assert analysis_main([str(src), "--strict"]) == 1
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(a={}):\n    pass\n")
    assert analysis_main([str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == ANALYSIS_SCHEMA and payload["counts"] == {"ARG001": 1}


def test_cli_rule_selection(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nx = time.time()\ndef f(a=[]):\n    pass\n")
    assert analysis_main([str(bad), "--rules", "ARG001", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"ARG001": 1}
    assert analysis_main([str(bad), "--rules", "NOPE01"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert analysis_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in registered_rules():
        assert rule in out


def test_registered_rule_ids(capsys):
    """The exact id set: 19 registered rules plus the three hygiene
    meta-rules.  A rule that silently fails to register (or a new one
    nobody documented) changes this list."""
    assert sorted(registered_rules()) == [
        "ARG001",
        "CONF001", "CONF003",
        "DET001", "DET002", "DET003",
        "EXC001",
        "ISO001", "ISO002", "ISO003", "ISO004",
        "LIF001", "LIF002", "LIF003",
        "MET001",
        "PERF001", "PERF002",
        "SEC002",
        "VAL001",
    ]
    assert analysis_main(["--list-rules"]) == 0
    listed = [
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("  ")
    ]
    assert listed == sorted([*registered_rules(), "ANA000", "ANA001", "ANA002"])


# -------------------------------------------------------------- self-check --


@pytest.fixture(scope="module")
def repo_result():
    return analyze_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])


def test_repo_tree_is_clean_under_strict(repo_result):
    """The shipped tree must pass its own linter, and every suppression in
    it must carry a justification."""
    gating = repo_result.gating(strict=True)
    assert not gating, "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in gating)
    for finding in repo_result.suppressed:
        assert finding.justification, f"unjustified suppression at {finding.location()}"


def test_repo_inventory_matches_golden(repo_result):
    """Every finding the linter makes on this tree, suppressed ones
    included, row for row against the inventory pinned before the SEC
    passes were merged (line numbers left out so unrelated edits do not
    move it).  A refactor of the analysis package must not regenerate the
    golden; a change to the *tree* that adds or retires a suppression edits
    the one row it owns."""
    golden = json.loads(
        (REPO_ROOT / "tests" / "golden" / "analysis_inventory.json").read_text()
    )
    rows = sorted(
        [
            pathlib.Path(f.path).relative_to(REPO_ROOT).as_posix(),
            f.rule,
            f.message,
            "suppressed" if f.suppressed else "active",
            f.justification,
        ]
        for f in repo_result.findings
    )
    assert rows == golden["rows"]


def test_interprocedural_suppression_budget():
    """The SEC/VAL/PERF families are allowed at most 10 justified
    suppressions across the product tree — past that, fix the code or
    narrow the rule, don't paper over it."""
    families = {r for r in registered_rules() if r.startswith(("SEC", "VAL", "PERF"))}
    result = analyze_paths([str(REPO_ROOT / "src")], rules=families)
    suppressed = [
        f for f in result.suppressed
        if f.rule.startswith(("SEC", "VAL", "PERF"))
    ]
    assert len(suppressed) <= 10, "\n".join(
        f"{f.location()}: {f.rule}" for f in suppressed
    )
    for finding in suppressed:
        assert finding.justification, f"unjustified suppression at {finding.location()}"
