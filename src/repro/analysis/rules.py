"""The repo-specific rules.

Scope: ``DET*``, ``MET*`` and ``EXC*`` bind inside the ``repro`` package
(product code), where the determinism contract and the recorder-guard idiom
hold; ``SEC002`` binds in the HIP and TLS stacks, where MACs are checked;
``ARG*`` binds everywhere the analyzer looks.  Each rule documents the
failure mode it guards against — these are the exact mistakes that would
silently invalidate EXPERIMENTS.md.
"""

from __future__ import annotations

import ast

from repro.analysis.base import (
    EVERYWHERE,
    ModuleContext,
    Rule,
    Scope,
    call_name,
    register,
)

# ------------------------------------------------------------------ DET001 --

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
    }
)
_ENTROPY_PREFIXES = ("uuid.", "secrets.")


@register
class WallClockChecker(Rule):
    """Simulated components must read :attr:`Simulator.now`, never the host
    clock, and must draw entropy from named streams, never the OS pool —
    otherwise two runs of one seed diverge and every figure is unreproducible.
    """

    rule = "DET001"
    description = (
        "no wall-clock or ambient-entropy reads (time.*, datetime.now, "
        "os.urandom, uuid.*, secrets.*) in simulator code"
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_call(node.func)
        if name is not None and (
            name in _WALL_CLOCK or name.startswith(_ENTROPY_PREFIXES)
        ):
            self.report(
                node,
                f"wall-clock/entropy read `{name}()` in simulator code; use "
                "Simulator.now for time and a named RngStreams stream for "
                "entropy",
            )
        self.generic_visit(node)


# ------------------------------------------------------------------ DET002 --


@register
class AmbientRandomChecker(Rule):
    """Randomness must arrive as an injected ``random.Random`` (usually a
    named ``RngStreams`` stream).  Calling into the ``random`` module —
    including constructing ``random.Random`` ad hoc — creates draws whose
    order and seeding are invisible to the experiment harness."""

    rule = "DET002"
    description = (
        "no random-module calls or ad-hoc random.Random() outside sim/rng.py; "
        "inject a named RngStreams stream instead"
    )
    #: ``sim/rng.py`` is the one place allowed to construct ``Random``
    scope = Scope(product=True, outside=("sim/rng.py",))

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_call(node.func)
        if name is not None and (name == "random" or name.startswith("random.")):
            self.report(
                node,
                f"ambient randomness `{name}()`; accept an injected "
                "random.Random (a named RngStreams stream) instead",
            )
        self.generic_visit(node)


# ------------------------------------------------------------------ DET003 --


def _is_unordered_iterable(node: ast.expr, ctx: ModuleContext) -> str | None:
    """A syntactically visible set being iterated: the one container whose
    order CPython ties to object hashes (PYTHONHASHSEED-sensitive for str)."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call):
        name = ctx.resolve_call(node.func)
        if name in ("set", "frozenset"):
            return f"{name}(...)"
    return None


def _key_is_id(key: ast.expr) -> bool:
    if isinstance(key, ast.Name) and key.id == "id":
        return True
    if isinstance(key, ast.Lambda):
        body = key.body
        return (
            isinstance(body, ast.Call)
            and isinstance(body.func, ast.Name)
            and body.func.id == "id"
        )
    return False


@register
class UnstableOrderChecker(Rule):
    """Set iteration order and ``id()``-based ordering vary across processes
    (hash randomization, allocator layout).  Anything they feed — event
    scheduling, peer selection, report rows — diverges between runs."""

    rule = "DET003"
    description = (
        "no iteration over sets and no id()-based sort keys; order via "
        "sorted(...) on stable keys"
    )

    def _check_iter(self, node: ast.expr) -> None:
        kind = _is_unordered_iterable(node, self.ctx)
        if kind is not None:
            self.report(
                node,
                f"iteration over unordered {kind}; wrap in sorted(...) on a "
                "stable key before iterating",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_call(node.func)
        is_order_call = name in ("sorted", "min", "max") or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if is_order_call:
            for kw in node.keywords:
                if kw.arg == "key" and _key_is_id(kw.value):
                    self.report(
                        node,
                        "id()-based ordering is allocator-dependent; sort on "
                        "a stable field instead",
                    )
        self.generic_visit(node)


# ------------------------------------------------------------------ MET001 --


def _mentions_recorder_enabled(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
        and node.value.id == "RECORDER"
        for node in ast.walk(test)
    )


@register
class RecorderGuardChecker(Rule):
    """Trace sites must stay near-free while the recorder is off.  The
    established idiom is ``if RECORDER.enabled: RECORDER.record(...)`` — an
    unguarded call pays argument construction (dict build, f-strings) on
    every packet even when tracing is disabled."""

    rule = "MET001"
    description = (
        "RECORDER.record(...) must sit behind an `if RECORDER.enabled:` guard"
    )

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._guard_depth = 0

    def visit_If(self, node: ast.If) -> None:
        guarded = _mentions_recorder_enabled(node.test)
        self.visit(node.test)
        if guarded:
            self._guard_depth += 1
        for child in node.body:
            self.visit(child)
        if guarded:
            self._guard_depth -= 1
        for child in node.orelse:
            self.visit(child)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "record"
            and isinstance(func.value, ast.Name)
            and func.value.id == "RECORDER"
            and self._guard_depth == 0
        ):
            self.report(
                node,
                "unguarded RECORDER.record(...); wrap in `if RECORDER.enabled:` "
                "so the disabled cost stays one attribute read",
            )
        self.generic_visit(node)


# ------------------------------------------------------------------ EXC001 --

_BROAD_EXC = ("Exception", "BaseException")


def _is_broad(handler_type: ast.expr | None) -> bool:
    if isinstance(handler_type, ast.Name):
        return handler_type.id in _BROAD_EXC
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(elt) for elt in handler_type.elts)
    return False


def _swallows(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


@register
class BroadExceptChecker(Rule):
    """Protocol code that swallows every exception turns a logic bug into a
    silently dropped packet or a wedged association — the hardest class of
    failure to localize in a discrete-event run."""

    rule = "EXC001"
    description = (
        "no bare `except:` and no silently-swallowed `except Exception: pass` "
        "in protocol code"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:`; name the exception types this handler means "
                "to absorb",
            )
        elif _is_broad(node.type) and _swallows(node.body):
            self.report(
                node,
                "`except Exception: pass` swallows protocol failures; handle, "
                "log or re-raise",
            )
        self.generic_visit(node)


# ------------------------------------------------------------------ SEC002 --

_MAC_CALLS = frozenset({"digest", "hmac_digest", "tls_verify_data"})


def _is_mac(node: ast.expr, macs: frozenset[str] = frozenset()) -> bool:
    """A MAC call (truncated or not), or a local in ``macs`` bound to one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in macs
    return isinstance(node, ast.Call) and call_name(node.func) in _MAC_CALLS


@register
class MacCompareChecker(Rule):
    """``==`` on a MAC short-circuits at the first differing byte, so a timing
    attacker can forge it a byte at a time (keys are ``Secret``s: ``==`` raises)."""

    rule = "SEC002"
    description = "a MAC (or a local bound to one) compared with ==/!=, not ct_equal"
    scope = Scope(product=True, within=("hip", "tls"))

    def _visit_function(self, node) -> None:
        body = list(ast.walk(node))
        macs = frozenset(
            t.id for s in body if isinstance(s, ast.Assign) and _is_mac(s.value)
            for t in s.targets if isinstance(t, ast.Name)
        )
        for sub in body:
            if (
                isinstance(sub, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops)
                and any(_is_mac(x, macs) for x in (sub.left, *sub.comparators))
            ):
                self.report(sub, "MAC compared with ==/!=, which short-circuits "
                            "on the first differing byte; use ct_equal")

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function


# ------------------------------------------------------------------ ARG001 --

_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)


def _is_mutable_default(node: ast.expr, ctx: ModuleContext) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve_call(node.func) in _MUTABLE_CALLS
    return False


@register
class MutableDefaultChecker(Rule):
    """A mutable default is one shared object across every call — state that
    leaks between invocations and, in simulator code, between experiments."""

    rule = "ARG001"
    description = "no mutable default arguments ([], {}, set(), ...)"
    scope = EVERYWHERE

    def _check_args(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default, self.ctx):
                self.report(
                    default,
                    "mutable default argument is shared across calls; default "
                    "to None and construct inside the body",
                )
        self.generic_visit(node)

    visit_FunctionDef = _check_args
    visit_AsyncFunctionDef = _check_args
    visit_Lambda = _check_args
