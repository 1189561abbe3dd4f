"""VAL001: received bytes are read through ``WireReader``.

One syntactic rule: a raw struct unpack anywhere in product code (outside
``repro/crypto`` and the reader's own module) is a finding, and so is a
subscript of a buffer after a reader was built over it.  That malformed
input ends in a domain error is not this rule's job — the
``tests/wire_fuzz.py`` sweeps check it at runtime.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_source

RAW_PARSE = """
    import struct

    _HEAD = struct.Struct(">HB")

    def decode(data):
        (n,) = struct.unpack_from(">H", data, 0)
        return data[2 : 2 + n]
"""

READER_PARSE = """
    import struct

    from repro.net.wire import WireReader

    _U16 = struct.Struct(">H")

    def decode(data):
        r = WireReader(data, ValueError)
        (n,) = r.read(_U16, "length")
        return r.take(n, "value")
"""


def findings(source: str, path: str = "src/repro/net/dns.py") -> list:
    return [
        f
        for f in analyze_source(textwrap.dedent(source), path, rules={"VAL001"})
        if not f.suppressed and f.rule == "VAL001"
    ]


def test_raw_unpack_in_product_code_is_a_finding():
    [finding] = findings(RAW_PARSE)
    assert "unpack_from" in finding.message and "WireReader" in finding.message


@pytest.mark.parametrize(
    "call",
    [
        'struct.unpack(">H", data)',
        'struct.unpack_from(">H", data, 2)',
        'list(struct.iter_unpack(">H", data))',
        "_HEAD.unpack(data)",
        "_HEAD.unpack_from(data, 0)",
        'struct.Struct(">H").unpack(data)',
        "unpack(data)",  # ``from struct import unpack``
    ],
)
def test_every_spelling_of_a_raw_unpack_is_flagged(call):
    assert findings(f"def decode(data):\n    return {call}\n")


def test_the_same_parse_through_a_reader_is_clean():
    assert not findings(READER_PARSE)


def test_rule_binds_in_every_product_module_not_a_scope_list():
    for path in (
        "src/repro/net/dnssec.py",
        "src/repro/tls/vpn.py",
        "src/repro/sim/shard.py",
        "src/repro/sim/engine.py",
        "src/repro/analysis/wire.py",
    ):
        assert findings(RAW_PARSE, path), path


def test_crypto_reader_module_and_tests_are_exempt():
    for path in (
        "src/repro/crypto/sha.py",
        "src/repro/net/wire.py",
        "tests/test_tls.py",
        "benchmarks/bench_tcp.py",
    ):
        assert not findings(RAW_PARSE, path), path


def test_buffer_subscripted_after_reader_built_is_a_finding():
    src = """
        from repro.net.wire import WireReader

        def decode(data):
            r = WireReader(data, ValueError)
            tag = r.take(1, "tag")
            return tag, data[1:5]
    """
    [finding] = findings(src)
    assert "'data'" in finding.message and finding.line == 7


def test_subscript_before_the_reader_or_of_another_name_is_clean():
    src = """
        from repro.net.wire import WireReader

        def decode(msg, table):
            op = msg[:1]
            r = WireReader(msg, ValueError)
            return op, table[r.take(1, "index")[0]]

        def unrelated(msg):
            return msg[0]
    """
    assert not findings(src)
