"""Untrusted wire input is read through ``WireReader`` (VAL001).

Every byte a peer can put on the wire is attacker-controlled.  Product
parsers consume it through :class:`repro.net.wire.WireReader`, whose reads
either return exactly the bytes asked for or raise the parser's domain
error — so there is nothing left to *prove* about guards, only two things
to keep out of the tree:

* a raw ``struct.unpack`` / ``unpack_from`` / ``iter_unpack`` (module
  function or ``Struct`` method) anywhere in product code outside
  ``repro/crypto`` (fixed-size internal state, not peer input) and
  ``repro/net/wire.py`` (the reader itself);
* inside a function that builds a ``WireReader`` over a name, a later
  subscript or slice of that name — going around the reader brings back the
  unchecked index and the silently short slice.

The rule scopes itself by where unpacks and readers appear; there is no
module list and no table of buffer names.  That malformed input ends in a
domain error is checked where it is exact: at runtime, by the
``tests/wire_fuzz.py`` sweeps over every parser.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Rule, Scope, call_name, register

_UNPACKS = frozenset({"unpack", "unpack_from", "iter_unpack"})


@register
class RawWireReadChecker(Rule):
    """raw struct unpack, or a buffer subscripted after a WireReader was built over it"""

    rule = "VAL001"
    description = (
        "received bytes are read through repro.net.wire.WireReader: no raw "
        "struct unpack in product code, and no subscript of a buffer once a "
        "reader wraps it"
    )
    scope = Scope(product=True, outside=("crypto", "net/wire.py"))

    def check(self) -> None:
        # Most modules mention neither word; skip their walk altogether.
        source, tree = self.ctx.source, self.ctx.tree
        if "unpack" in source:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and call_name(node.func) in _UNPACKS:
                    self.report(
                        node,
                        f"raw {call_name(node.func)}() on bytes; read them through "
                        "repro.net.wire.WireReader so a short buffer raises the "
                        "parser's domain error",
                    )
        if "WireReader" in source:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._check_wrapped_buffers(node)

    def _check_wrapped_buffers(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        built: dict[str, tuple[int, int]] = {}  # buffer name -> where first wrapped
        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Call)
                and call_name(sub.func) == "WireReader"
                and sub.args
                and isinstance(sub.args[0], ast.Name)
            ):
                name, pos = sub.args[0].id, (sub.lineno, sub.col_offset)
                built[name] = min(pos, built.get(name, pos))
        if not built:
            return
        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in built
                and (sub.lineno, sub.col_offset) > built[sub.value.id]
            ):
                self.report(
                    sub,
                    f"'{sub.value.id}' is subscripted after a WireReader was "
                    "built over it; take the bytes from the reader",
                )
