"""``WireReader``: every read is exact or raises the caller's error."""

from __future__ import annotations

import struct

import pytest

from repro.net.wire import WireReader

_HEAD = struct.Struct(">HB")


class ParseError(Exception):
    """Stands in for a parser's domain error."""


def test_reads_advance_and_reach_the_exact_end():
    r = WireReader(b"\x00\x07\x01abcXY", ParseError)
    assert r.remaining == 8
    assert r.read(_HEAD, "head") == (7, 1)
    assert r.take(3, "name") == b"abc"
    assert r.remaining == 2
    assert r.take(2, "tail") == b"XY"
    assert r.remaining == 0
    r.expect_end("message")
    assert r.take(0, "nothing") == b""


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview], ids=lambda w: w.__name__)
def test_accepts_any_bytes_like_and_returns_bytes(wrap):
    r = WireReader(wrap(b"\x00\x07\x01abc"), ParseError)
    assert r.read(_HEAD, "head") == (7, 1)
    taken = r.take(3, "name")
    assert taken == b"abc" and type(taken) is bytes


def test_short_struct_read_raises_the_callers_error_with_what_and_offset():
    r = WireReader(b"\xaa\x00\x07", ParseError)
    r.take(1, "tag")
    with pytest.raises(ParseError, match=r"query header.*need 3 bytes at offset 1, 2 remain"):
        r.read(_HEAD, "query header")
    assert r.remaining == 2  # a failed read consumes nothing


def test_short_take_never_returns_a_short_slice():
    r = WireReader(b"abc", ParseError)
    with pytest.raises(ParseError, match="signature"):
        r.take(4, "signature")
    assert r.take(3, "signature") == b"abc"


def test_negative_length_is_rejected():
    r = WireReader(b"abcdef", ParseError)
    with pytest.raises(ParseError, match="need -1 bytes"):
        r.take(-1, "declared length")


def test_expect_end_rejects_trailing_bytes():
    r = WireReader(b"\x00\x07\x01zz", ParseError)
    r.read(_HEAD, "head")
    with pytest.raises(ParseError, match="2 trailing bytes after LOCATOR at offset 3"):
        r.expect_end("LOCATOR")


def test_error_class_is_the_callers_not_struct_error():
    for error in (ParseError, ValueError):
        with pytest.raises(error) as info:
            WireReader(b"", error).read(_HEAD, "head")
        assert not isinstance(info.value, struct.error)
