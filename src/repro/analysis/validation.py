"""Untrusted wire-input validation rules (VAL001-003).

Every byte a peer can put on the wire — HIP control packets, DNS
responses, Teredo bubbles, TLS records — is attacker-controlled, and the
parsers in this tree consume it with ``struct.unpack``, slicing and
indexing.  These rules prove, per parse function, that no wire-derived
length/count/offset reaches an allocation, loop bound, slice bound or
index without a dominating length check, and that malformed input
surfaces as a *domain* error (``HipParseError``-style), never a raw
``struct.error`` / ``IndexError``.

The pass is deliberately scoped to the modules that touch raw wire
bytes (:data:`SCOPED_SUFFIXES`); elsewhere byte-level parsing is a
design smell the architecture already avoids (headers are dataclasses).

Per-function symbolic scan, in the same bargain as the rest of the
package (name-driven, flow-sensitive down straight-line code and guard
branches, no joins):

* *wire buffers* — parameters with wire-ish names (``data``, ``buf``,
  ``body``…), ``recvfrom``/``recv_bytes`` results, and slices/copies of
  either;
* *wire ints* — ``struct.unpack`` targets, byte indexing and
  ``int.from_bytes`` of wire buffers, plus arithmetic over them;
* *facts* — dominating guards establish per-name facts: numeric
  ``len()`` lower bounds / exact lengths, coarse "some length check
  mentions this buffer" blessing, truthiness non-emptiness, numeric
  lower bounds on ints, and a *validated* mark for any name a dominating
  comparison constrains.  ``and``/``or`` short-circuit semantics are
  honoured, so ``if not data or data[0] != TAG`` does not trip the
  index check.

VAL001 flags unvalidated wire ints reaching ``range()``, ``bytes(n)`` /
``bytearray(n)`` / ``b"x" * n`` allocation, or an index; VAL002 flags
slices whose bounds are not proven inside the buffer (silent
truncation); VAL003 lifts each function's unguarded ``struct.error`` /
``IndexError`` sites through the call graph
(:func:`repro.analysis.dataflow.propagate_raises`) and flags scoped
functions the raw exception can escape from.
"""

from __future__ import annotations

import ast
import struct as _struct

from repro.analysis.base import (
    ProgramContext,
    Rule,
    Scope,
    call_name,
    in_scope,
    register,
)
from repro.analysis.callgraph import CallGraph
from repro.analysis.dataflow import propagate_raises

#: Modules whose functions are scanned (path suffixes).
SCOPED_SUFFIXES = (
    "hip/packets.py",
    "net/teredo.py",
    "net/nat.py",
    "net/dns.py",
    "net/icmp.py",
    "tls/connection.py",
)
_WIRE_SCOPE = Scope(within=SCOPED_SUFFIXES)

#: Parameter names presumed to hold attacker-controlled wire bytes.
WIRE_PARAMS = frozenset(
    {"data", "buf", "body", "payload", "wire", "raw", "cert", "header", "encrypted"}
)

#: Call names whose result is wire bytes (receive-side primitives).
_RECV_CALLS = frozenset({"recvfrom", "recv_bytes", "_recv_message", "recv"})

STRUCT_ERROR = "struct.error"
INDEX_ERROR = "IndexError"
_RAW_KINDS = frozenset({STRUCT_ERROR, INDEX_ERROR})

#: For-loop bodies containing a ``len()``-guarded raise re-validate the
#: wire-derived trip count every iteration (the ``parse_locator`` idiom).


def module_consts(tree: ast.Module) -> dict[str, int]:
    """Module-level integer constants (``RECORD_HEADER_LEN = 5``)."""
    consts: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                value = _const_int(stmt.value, consts)
                if value is not None:
                    consts[target.id] = value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None:
                value = _const_int(stmt.value, consts)
                if value is not None:
                    consts[stmt.target.id] = value
    return consts


def _const_int(node: ast.expr | None, consts: dict[str, int]) -> int | None:
    """Evaluate a compile-time integer expression, or None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value if not isinstance(node.value, bool) else None
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand, consts)
        return -inner if inner is not None else None
    if isinstance(node, ast.BinOp):
        left = _const_int(node.left, consts)
        right = _const_int(node.right, consts)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.FloorDiv) and right:
            return left // right
        if isinstance(node.op, ast.Mod) and right:
            return left % right
    return None


def _names_in(node: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _len_arg(node: ast.expr) -> str | None:
    """``len(name)`` -> ``name``, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
    ):
        return node.args[0].id
    return None


def _unwrap_bytes(node: ast.expr) -> ast.expr:
    """Strip ``bytes(...)`` / ``bytearray(...)`` single-argument wrappers."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("bytes", "bytearray", "memoryview")
        and len(node.args) == 1
        and not node.keywords
    ):
        node = node.args[0]
    return node


def _terminates(body: list[ast.stmt]) -> bool:
    """Does this block unconditionally leave the enclosing scope/loop?"""
    return bool(body) and isinstance(
        body[-1], (ast.Raise, ast.Return, ast.Continue, ast.Break)
    )


def _handler_kinds(type_node: ast.expr | None) -> frozenset[str]:
    """Which of the raw exception kinds an ``except`` clause catches."""
    if type_node is None:  # bare except
        return _RAW_KINDS
    if isinstance(type_node, ast.Tuple):
        out: frozenset[str] = frozenset()
        for elt in type_node.elts:
            out |= _handler_kinds(elt)
        return out
    name = None
    if isinstance(type_node, ast.Attribute):
        if isinstance(type_node.value, ast.Name) and type_node.value.id == "struct":
            name = f"struct.{type_node.attr}"
    elif isinstance(type_node, ast.Name):
        name = type_node.id
    if name in ("struct.error", "error"):
        return frozenset({STRUCT_ERROR})
    if name in ("IndexError", "LookupError"):
        return frozenset({INDEX_ERROR})
    if name in ("Exception", "BaseException"):
        return _RAW_KINDS
    return frozenset()


class _State:
    """Per-path facts about names (copied at branch points, never joined)."""

    __slots__ = (
        "bufs", "ints", "validated", "blessed", "nonempty",
        "minlen", "exact", "minint", "symlen",
    )

    def __init__(self) -> None:
        self.bufs: set[str] = set()
        self.ints: set[str] = set()
        self.validated: set[str] = set()
        self.blessed: set[str] = set()
        self.nonempty: set[str] = set()
        self.minlen: dict[str, int] = {}
        self.exact: dict[str, int] = {}
        self.minint: dict[str, int] = {}
        self.symlen: dict[str, str] = {}  # buf -> int var with len(buf) == var

    def copy(self) -> "_State":
        st = _State()
        for slot in self.__slots__:
            value = getattr(self, slot)
            setattr(st, slot, value.copy())
        return st

    def forget(self, name: str) -> None:
        """A name was rebound: drop every fact about it."""
        for slot in self.__slots__:
            container = getattr(self, slot)
            if isinstance(container, set):
                container.discard(name)
            else:
                container.pop(name, None)

    def effective_minlen(self, buf: str) -> int:
        """Best proven lower bound on ``len(buf)``."""
        best = max(self.minlen.get(buf, 0), self.exact.get(buf, 0))
        if buf in self.nonempty:
            best = max(best, 1)
        sym = self.symlen.get(buf)
        if sym is not None:
            best = max(best, self.minint.get(sym, 0))
        return best


class _FunctionScan:
    """Scan one function: VAL001/002 findings plus raw-exception escapes."""

    def __init__(self, fn_node, params, consts, call_targets) -> None:
        self.fn_node = fn_node
        self.params = params
        self.consts = consts
        self.call_targets = call_targets  # id(ast.Call) -> callee qualnames
        self.findings: list[tuple[str, ast.AST, str]] = []
        self.escapes: set[str] = set()
        self.caught: dict[str, frozenset[str]] = {}  # callee -> kinds caught
        self._catch_stack: list[frozenset[str]] = []
        #: slice assigned to a name, pending a later ``len(name)`` check
        #: (the ``value = data[o:o+n]; if len(value) != n: raise`` idiom)
        self.pending: dict[str, tuple[str, ast.AST, str]] = {}
        self._seen: set[tuple[str, int]] = set()

    # -- driver ---------------------------------------------------------------
    def run(self) -> None:
        st = _State()
        for name in self.params:
            if name in WIRE_PARAMS:
                st.bufs.add(name)
        self._block(self.fn_node.body, st)
        for finding in self.pending.values():
            self._add(*finding)

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        key = (rule, getattr(node, "lineno", 0) * 1000 + getattr(node, "col_offset", 0))
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append((rule, node, message))

    def _escape(self, kind: str, node: ast.AST) -> None:
        for caught in self._catch_stack:
            if kind in caught:
                return
        self.escapes.add(kind)

    # -- statements -----------------------------------------------------------
    def _block(self, stmts: list[ast.stmt], st: _State) -> None:
        for stmt in stmts:
            self._stmt(stmt, st)

    def _stmt(self, stmt: ast.stmt, st: _State) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are separate call-graph nodes
        if isinstance(stmt, ast.If):
            self._scan_test(stmt.test, st)
            body_st = st.copy()
            self._apply_facts(stmt.test, True, body_st)
            self._block(stmt.body, body_st)
            else_st = st.copy()
            self._apply_facts(stmt.test, False, else_st)
            self._block(stmt.orelse, else_st)
            if _terminates(stmt.body) and not stmt.orelse:
                self._apply_facts(stmt.test, False, st)
            elif stmt.orelse and _terminates(stmt.orelse) and not _terminates(stmt.body):
                self._apply_facts(stmt.test, True, st)
        elif isinstance(stmt, ast.While):
            self._scan_test(stmt.test, st)
            body_st = st.copy()
            self._apply_facts(stmt.test, True, body_st)
            self._block(stmt.body, body_st)
            self._block(stmt.orelse, st.copy())
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(stmt, st)
        elif isinstance(stmt, ast.Try):
            kinds: frozenset[str] = frozenset()
            for handler in stmt.handlers:
                kinds |= _handler_kinds(handler.type)
            self._catch_stack.append(kinds)
            body_st = st.copy()
            self._block(stmt.body, body_st)
            self._catch_stack.pop()
            for handler in stmt.handlers:
                self._block(handler.body, st.copy())
            self._block(stmt.orelse, body_st)
            self._block(stmt.finalbody, st.copy())
        elif isinstance(stmt, ast.Assign):
            deferred = None
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                deferred = self._deferrable_slice(stmt.value, st)
            if deferred is not None:
                # ``value = data[o:o+n]`` defers to _assign's pending
                # mechanism; scan only the bounds so the immediate VAL002
                # check cannot pre-empt a later ``len(value)`` discharge.
                for part in (deferred.lower, deferred.upper, deferred.step):
                    if part is not None:
                        self._scan_expr(part, st)
            else:
                self._scan_value(stmt.value, st)
            if len(stmt.targets) == 1:
                self._assign(stmt.targets[0], stmt.value, st)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value, st)
            if isinstance(stmt.target, ast.Name):
                synthetic = ast.BinOp(
                    left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                    op=stmt.op,
                    right=stmt.value,
                )
                self._assign(stmt.target, synthetic, st, scan=False)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_value(stmt.value, st)
                self._assign(stmt.target, stmt.value, st)
        elif isinstance(stmt, ast.Assert):
            self._scan_test(stmt.test, st)
            self._apply_facts(stmt.test, True, st)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, st)
            self._block(stmt.body, st)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._scan_expr(stmt.value, st)
        elif isinstance(stmt, ast.Expr):
            self._scan_value(stmt.value, st)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._scan_expr(stmt.exc, st)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    st.forget(target.id)

    def _for(self, stmt, st: _State) -> None:
        it = stmt.iter
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            self._check_range(it, st, loop_body=stmt.body)
            for arg in it.args:
                self._scan_expr(arg, st)
        else:
            self._scan_expr(it, st)
        body_st = st.copy()
        for name in _names_in(stmt.target) if isinstance(stmt.target, (ast.Name, ast.Tuple)) else ():
            body_st.forget(name)
            # A loop variable is bounded by its iterable, never attacker-sized.
            body_st.validated.add(name)
            if isinstance(it, ast.Name) and it.id in st.bufs:
                body_st.ints.add(name)
        self._block(stmt.body, body_st)
        self._block(stmt.orelse, st.copy())

    # -- assignment / propagation ---------------------------------------------
    def _assign(self, target: ast.expr, value: ast.expr, st: _State, scan: bool = True) -> None:
        if isinstance(target, ast.Tuple):
            self._assign_tuple(target, value, st)
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        unwrapped = _unwrap_bytes(self._strip_yield(value))
        pending_entry = self._classify_slice_assign(name, unwrapped, st)
        # Source facts must be read before the target is forgotten:
        # ``off += 16`` keeps off validated when off already was (the
        # dominating guard covered the advanced offset too).
        src_names = _names_in(value)
        src_wire = {n for n in src_names if n in st.bufs or n in st.ints}
        src_valid = bool(src_names) and src_names <= st.validated | st.blessed
        st.forget(name)
        if pending_entry is not None:
            # Wire slice: target is a wire buffer; finding deferred until a
            # ``len(name)`` guard discharges it (or function end emits it).
            st.bufs.add(name)
            if pending_entry is not True:
                self.pending[name] = pending_entry
            return
        recv = self._recv_len(unwrapped)
        if recv is not None:
            st.bufs.add(name)
            kind, detail = recv
            if kind == "exact":
                st.exact[name] = detail
            elif kind == "sym":
                st.symlen[name] = detail
            return
        if self._is_wirebuf_expr(unwrapped, st):
            base = unwrapped if isinstance(unwrapped, ast.Name) else None
            st.bufs.add(name)
            if base is not None:  # straight copy keeps the length facts
                for facts in (st.minlen, st.exact):
                    if base.id in facts:
                        facts[name] = facts[base.id]
                if base.id in st.nonempty:
                    st.nonempty.add(name)
                if base.id in st.symlen:
                    st.symlen[name] = st.symlen[base.id]
            return
        if isinstance(unwrapped, ast.Call):
            return
        if src_wire:
            st.ints.add(name)
        if src_wire or isinstance(unwrapped, (ast.BinOp, ast.Name)):
            if src_valid:
                st.validated.add(name)

    def _assign_tuple(self, target: ast.Tuple, value: ast.expr, st: _State) -> None:
        names = [elt.id for elt in target.elts if isinstance(elt, ast.Name)]
        unwrapped = self._strip_yield(value)
        if isinstance(unwrapped, ast.Call):
            callee = call_name(unwrapped.func)
            if callee in ("unpack", "unpack_from") and self._unpack_is_wire(unwrapped, st):
                for name in names:
                    st.forget(name)
                    st.ints.add(name)
                return
            if callee in _RECV_CALLS:
                for i, name in enumerate(names):
                    st.forget(name)
                    if callee == "recvfrom" and i > 0:
                        continue  # (data, addr): only the payload is wire
                    st.bufs.add(name)
                    st.ints.add(name)
                return
        for name in names:
            st.forget(name)

    @staticmethod
    def _strip_yield(node: ast.expr) -> ast.expr:
        while True:
            if isinstance(node, (ast.Await, ast.YieldFrom)):
                node = node.value
            elif isinstance(node, ast.Yield) and node.value is not None:
                node = node.value  # ``data, _ = yield sock.recvfrom()``
            else:
                return node

    def _deferrable_slice(self, value: ast.expr, st: _State) -> ast.Slice | None:
        """The slice node when ``value`` is a slice of a wire buffer."""
        node = _unwrap_bytes(self._strip_yield(value))
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Slice)
            and isinstance(node.value, ast.Name)
            and node.value.id in st.bufs
        ):
            return node.slice
        return None

    def _classify_slice_assign(self, name, node, st):
        """If ``node`` is a slice of a wire buffer: True when proven safe,
        else the deferred (rule, node, message) finding."""
        if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)):
            return None
        base = node.value
        if not (isinstance(base, ast.Name) and base.id in st.bufs):
            return None
        problem = self._slice_problem(node, base.id, st)
        if problem is None:
            return True
        return ("VAL002", node, problem)

    def _recv_len(self, node: ast.expr):
        """recv_bytes(N)-style call: ('exact', N) / ('sym', var) / None."""
        if not isinstance(node, ast.Call):
            return None
        callee = call_name(node.func)
        if callee not in _RECV_CALLS or callee == "recvfrom":
            return None
        if node.args:
            n = _const_int(node.args[0], self.consts)
            if n is not None:
                return ("exact", n)
            if isinstance(node.args[0], ast.Name):
                return ("sym", node.args[0].id)
        return None

    # -- expression scanning --------------------------------------------------
    def _scan_value(self, node: ast.expr, st: _State) -> None:
        """Scan an assignment RHS / expression statement for risky ops."""
        self._scan_expr(node, st)

    def _scan_test(self, node: ast.expr, st: _State) -> None:
        """Scan a branch test honouring short-circuit evaluation order."""
        if isinstance(node, ast.BoolOp):
            local = st.copy()
            for value in node.values:
                self._scan_test(value, local)
                self._apply_facts(value, isinstance(node.op, ast.And), local)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            self._scan_test(node.operand, st)
            return
        self._scan_expr(node, st)

    def _scan_expr(self, node: ast.expr, st: _State) -> None:
        if isinstance(node, ast.BoolOp):
            self._scan_test(node, st)
            return
        if isinstance(node, ast.IfExp):
            self._scan_test(node.test, st)
            body_st = st.copy()
            self._apply_facts(node.test, True, body_st)
            self._scan_expr(node.body, body_st)
            else_st = st.copy()
            self._apply_facts(node.test, False, else_st)
            self._scan_expr(node.orelse, else_st)
            return
        if isinstance(node, ast.Call):
            self._scan_call(node, st)
            return
        if isinstance(node, ast.Subscript):
            self._check_subscript(node, st)
            self._scan_expr(node.value, st)
            for child in ast.iter_child_nodes(node.slice):
                if isinstance(child, ast.expr):
                    self._scan_expr(child, st)
            if isinstance(node.slice, ast.expr) and not isinstance(node.slice, ast.Slice):
                self._scan_expr(node.slice, st)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child, st)

    def _scan_call(self, node: ast.Call, st: _State) -> None:
        callee = call_name(node.func)
        self._record_caught(node)
        if callee in ("unpack", "unpack_from") and _is_struct_func(node.func):
            self._check_unpack(node, st, from_offset=callee == "unpack_from")
            # Bounds exprs may hide further risky ops.
            for arg in node.args[1:]:
                self._scan_expr(arg, st)
            return
        if callee == "range":
            self._check_range(node, st, loop_body=None)
        elif callee in ("bytes", "bytearray") and len(node.args) == 1:
            n = node.args[0]
            # bytes(buf) copies a buffer; only bytes(n) allocates n zeros.
            if not self._is_wirebuf_expr(n, st) and self._unvalidated_wire_int(n, st):
                self._add(
                    "VAL001", node,
                    "wire-derived size reaches a bytes/bytearray allocation "
                    "without a dominating bounds check",
                )
        self._scan_expr(node.func, st)
        for arg in node.args:
            self._scan_expr(arg, st)
        for kw in node.keywords:
            self._scan_expr(kw.value, st)

    def _record_caught(self, node: ast.Call) -> None:
        targets = self.call_targets.get(id(node), ())
        context: frozenset[str] = frozenset()
        for kinds in self._catch_stack:
            context |= kinds
        for target in targets:
            if target in self.caught:
                self.caught[target] &= context
            else:
                self.caught[target] = context

    # -- risky-operation checks ----------------------------------------------
    def _unvalidated_wire_int(self, node: ast.expr, st: _State) -> bool:
        """True when the expression carries an unvalidated wire int."""
        names = _names_in(node)
        return any(
            n in st.ints and n not in st.validated for n in names
        )

    def _check_range(self, node: ast.Call, st: _State, loop_body) -> None:
        if not any(self._unvalidated_wire_int(arg, st) for arg in node.args):
            return
        if loop_body is not None and self._body_revalidates(loop_body):
            return  # per-iteration length guard bounds the loop
        self._add(
            "VAL001", node,
            "wire-derived count bounds a range() without a dominating "
            "validation or per-iteration length guard",
        )

    @staticmethod
    def _body_revalidates(body: list[ast.stmt]) -> bool:
        """Loop body contains a len()-mentioning raise guard."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.If) and any(
                    isinstance(sub, ast.Raise) for sub in node.body
                ):
                    if any(
                        isinstance(c, ast.Call)
                        and isinstance(c.func, ast.Name)
                        and c.func.id == "len"
                        for c in ast.walk(node.test)
                    ):
                        return True
        return False

    def _check_subscript(self, node: ast.Subscript, st: _State) -> None:
        base = node.value
        if not (isinstance(base, ast.Name) and base.id in st.bufs):
            return
        if isinstance(node.slice, ast.Slice):
            problem = self._slice_problem(node, base.id, st)
            if problem is not None:
                self._add("VAL002", node, problem)
            return
        # Plain index.
        index = node.slice
        const = _const_int(index, self.consts)
        buf = base.id
        if const is not None:
            need = const + 1 if const >= 0 else -const
            if st.effective_minlen(buf) < need:
                self._escape(INDEX_ERROR, node)
                self._add(
                    "VAL001", node,
                    f"index {const} into wire buffer '{buf}' without a "
                    "dominating length check",
                )
            return
        names = _names_in(index)
        if names and names <= st.validated:
            return
        self._escape(INDEX_ERROR, node)
        if self._unvalidated_wire_int(index, st):
            self._add(
                "VAL001", node,
                f"wire-derived index into '{buf}' without a dominating "
                "bounds check",
            )

    def _slice_problem(self, node: ast.Subscript, buf: str, st: _State) -> str | None:
        """None when the slice provably stays inside the buffer."""
        sl = node.slice
        assert isinstance(sl, ast.Slice)
        upper = sl.upper
        if upper is None:
            return None  # data[a:] never silently truncates content
        if self._unvalidated_wire_int(upper, st) or (
            sl.lower is not None and self._unvalidated_wire_int(sl.lower, st)
        ):
            return (
                f"slice of wire buffer '{buf}' bounded by an unvalidated "
                "wire-derived value silently truncates on short input"
            )
        const = _const_int(upper, self.consts)
        if const is not None and st.effective_minlen(buf) < const:
            return (
                f"slice of wire buffer '{buf}' up to {const} without a "
                f"dominating len() >= {const} check silently truncates"
            )
        return None

    def _check_unpack(self, node: ast.Call, st: _State, from_offset: bool) -> None:
        if len(node.args) < 2:
            return
        fmt, buf_expr = node.args[0], _unwrap_bytes(node.args[1])
        if not self._is_wirebuf_expr(buf_expr, st):
            return
        size = None
        if isinstance(fmt, ast.Constant) and isinstance(fmt.value, str):
            try:
                size = _struct.calcsize(fmt.value)
            except _struct.error:
                size = None
        if from_offset:
            off = node.args[2] if len(node.args) > 2 else None
            if self._unpack_from_safe(buf_expr, off, size, st):
                return
        else:
            if self._unpack_safe(buf_expr, size, st):
                return
        self._escape(STRUCT_ERROR, node)

    def _unpack_safe(self, buf_expr: ast.expr, size: int | None, st: _State) -> bool:
        if isinstance(buf_expr, ast.Name):
            name = buf_expr.id
            if size is None:  # dynamic format: coarse blessing suffices
                return name in st.blessed
            # Plain unpack needs *exact* length; a lower bound is not enough.
            return st.exact.get(name) == size
        if isinstance(buf_expr, ast.Subscript) and isinstance(buf_expr.slice, ast.Slice):
            base = buf_expr.value
            if not (isinstance(base, ast.Name) and base.id in st.bufs):
                return True  # not a wire buffer after all
            sl = buf_expr.slice
            lo = _const_int(sl.lower, self.consts) if sl.lower is not None else 0
            hi = _const_int(sl.upper, self.consts)
            if lo is None or hi is None or size is None:
                return False
            return hi - lo == size and st.effective_minlen(base.id) >= hi
        return False

    def _unpack_from_safe(self, buf_expr, off, size, st: _State) -> bool:
        if not isinstance(buf_expr, ast.Name):
            return False
        buf = buf_expr.id
        off_const = _const_int(off, self.consts) if off is not None else 0
        if off_const is not None and size is not None:
            if st.effective_minlen(buf) >= off_const + size:
                return True
        if buf in st.blessed:
            if off is None or off_const is not None:
                return True
            names = _names_in(off)
            return bool(names) and names <= st.validated
        return False

    def _unpack_is_wire(self, node: ast.Call, st: _State) -> bool:
        return len(node.args) >= 2 and self._is_wirebuf_expr(
            _unwrap_bytes(node.args[1]), st
        )

    def _is_wirebuf_expr(self, node: ast.expr, st: _State) -> bool:
        node = _unwrap_bytes(node)
        if isinstance(node, ast.Name):
            return node.id in st.bufs
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            return self._is_wirebuf_expr(node.value, st)
        return False

    # -- guard facts ----------------------------------------------------------
    def _apply_facts(self, test: ast.expr, positive: bool, st: _State) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._apply_facts(test.operand, not positive, st)
            return
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And) and positive:
                for value in test.values:
                    self._apply_facts(value, True, st)
            elif isinstance(test.op, ast.Or) and not positive:
                for value in test.values:
                    self._apply_facts(value, False, st)
            return
        # Coarse facts: any length check mentioning a buffer blesses it; any
        # comparison constraining a name validates it (either polarity — the
        # guard branch raises on the bad side).
        if isinstance(test, ast.Compare) or _contains_len(test):
            for sub in ast.walk(test):
                arg = _len_arg(sub) if isinstance(sub, ast.expr) else None
                if arg is not None:
                    st.blessed.add(arg)
                    self.pending.pop(arg, None)
            if isinstance(test, ast.Compare):
                for name in _names_in(test):
                    st.validated.add(name)
        if isinstance(test, ast.Name):
            if positive and test.id in st.bufs:
                st.nonempty.add(test.id)
            return
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return
        left, op, right = test.left, test.ops[0], test.comparators[0]
        self._numeric_fact(left, op, right, positive, st)

    def _numeric_fact(self, left, op, right, positive: bool, st: _State) -> None:
        """Precise numeric bounds from ``len(b) <cmp> N`` / ``v <cmp> N``."""
        len_name, const, flipped = _len_arg(left), _const_int(right, self.consts), False
        if len_name is None and _len_arg(right) is not None:
            len_name, const, flipped = _len_arg(right), _const_int(left, self.consts), True
        subject_is_len = len_name is not None
        var = len_name
        if not subject_is_len:
            if isinstance(left, ast.Name) and _const_int(right, self.consts) is not None:
                var, const, flipped = left.id, _const_int(right, self.consts), False
            elif isinstance(right, ast.Name) and _const_int(left, self.consts) is not None:
                var, const, flipped = right.id, _const_int(left, self.consts), True
            else:
                return
        if const is None or var is None:
            return
        if flipped:  # normalize to ``subject <op'> const``
            op = _flip(op)
        bound = _lower_bound(op, const, positive)
        if bound is not None:
            target = st.minlen if subject_is_len else st.minint
            target[var] = max(target.get(var, 0), bound)
        if subject_is_len:
            exact = _exact_bound(op, const, positive)
            if exact is not None:
                st.exact[var] = exact


def _flip(op: ast.cmpop) -> ast.cmpop:
    mapping = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE}
    for src, dst in mapping.items():
        if isinstance(op, src):
            return dst()
    return op


def _lower_bound(op: ast.cmpop, const: int, positive: bool) -> int | None:
    """Lower bound on the subject implied by ``subject <op> const``."""
    if positive:
        if isinstance(op, ast.GtE):
            return const
        if isinstance(op, ast.Gt):
            return const + 1
        if isinstance(op, ast.Eq):
            return const
    else:
        if isinstance(op, ast.Lt):
            return const
        if isinstance(op, ast.LtE):
            return const + 1
        if isinstance(op, ast.NotEq):
            return None
    return None


def _exact_bound(op: ast.cmpop, const: int, positive: bool) -> int | None:
    if positive and isinstance(op, ast.Eq):
        return const
    if not positive and isinstance(op, ast.NotEq):
        return const
    return None


def _contains_len(node: ast.expr) -> bool:
    return any(
        isinstance(c, ast.Call)
        and isinstance(c.func, ast.Name)
        and c.func.id == "len"
        for c in ast.walk(node)
    )


def _is_struct_func(func: ast.expr) -> bool:
    """``struct.unpack`` / ``struct.unpack_from`` (module access only)."""
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "struct"
    )


# -- program-level driver -----------------------------------------------------

def validation_findings(pctx: ProgramContext) -> list[tuple[str, str, ast.AST, str]]:
    """The wire-input validation scan over the scoped modules, shared by
    VAL001-VAL003."""
    index, graph = pctx.program()
    findings: list[tuple[str, str, ast.AST, str]] = []
    local: dict[str, frozenset[str]] = {}
    caught: dict[tuple[str, str], frozenset[str]] = {}
    consts_by_module: dict[str, dict[str, int]] = {}
    scanned: list[str] = []
    for qualname in sorted(index.functions):
        fn = index.functions[qualname]
        if not in_scope(_WIRE_SCOPE, fn.path):
            continue
        if fn.module not in consts_by_module:
            ctx = pctx.by_path.get(fn.path)
            consts_by_module[fn.module] = (
                module_consts(ctx.tree) if ctx is not None else {}
            )
        scan = _FunctionScan(
            fn.node, fn.params, consts_by_module[fn.module], graph.call_targets
        )
        scan.run()
        scanned.append(qualname)
        local[qualname] = frozenset(scan.escapes)
        for callee, kinds in scan.caught.items():
            caught[(qualname, callee)] = kinds
        for rule, node, message in scan.findings:
            findings.append((rule, fn.path, node, message))
    # Propagate escapes through the *scoped* subgraph only.  Full-graph
    # propagation drowns in the simulator's dispatch fabric: every daemon
    # transitively reaches some parser via CHA on opaque handler calls, and
    # VAL003's contract is about parse-call chains, not event plumbing.
    keep = set(scanned)
    sub = CallGraph(index)
    sub.edges = {
        q: tuple(c for c in graph.callees(q) if c in keep) for q in keep
    }
    escapes = propagate_raises(sub, local, caught)
    for qualname in scanned:
        raw = escapes.get(qualname, frozenset()) & _RAW_KINDS
        if raw:
            fn = index.functions[qualname]
            kinds = "/".join(sorted(raw))
            findings.append(
                (
                    "VAL003",
                    fn.path,
                    fn.node,
                    f"{fn.name}() lets raw {kinds} escape on malformed wire "
                    "input; raise a domain parse error instead",
                )
            )
    return findings


class _ValidationChecker(Rule):
    scope = _WIRE_SCOPE
    program_pass = validation_findings


@register
class WireIntValidationChecker(_ValidationChecker):
    """wire-derived length/count/offset reaches an allocation, loop bound or index unvalidated"""

    rule = "VAL001"
    description = (
        "a struct-unpacked or byte-indexed wire value bounds an allocation, "
        "range() or index with no dominating length/bounds check"
    )


@register
class WireSliceTruncationChecker(_ValidationChecker):
    """slice of a wire buffer without a proven bound silently truncates short input"""

    rule = "VAL002"
    description = (
        "slicing attacker-controlled bytes past the proven length yields a "
        "short result instead of an error (silent truncation)"
    )


@register
class RawExceptionEscapeChecker(_ValidationChecker):
    """parse function lets struct.error / IndexError escape instead of a domain error"""

    rule = "VAL003"
    description = (
        "malformed wire input surfaces as struct.error or IndexError from a "
        "parse function (transitively), not as a domain parse error"
    )
