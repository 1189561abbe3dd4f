"""Lifecycle leak lints (``LIF*``): everything opened must have a close path.

A discrete-event run that leaks timers, security associations or taps does
not crash — it slowly diverges: a forgotten ``TimerHandle`` fires into a
torn-down object, an SA table grows across a million-session run, a test
tap installed without removal bleeds assertions into the next test.  These
rules demand the release half of every acquire:

* **LIF001** — a ``TimerHandle`` stored on ``self`` (from ``call_later`` /
  ``call_at``) that no method of the class ever ``.cancel()``s;
* **LIF002** — a container attribute born empty in ``__init__`` that grows
  at runtime but is never popped, cleared, or rebound — the static shape of
  an unbounded SA/connection registry with no close path;
* **LIF003** — a sanitizer tap (``*_TAPS.append``) installed without a
  paired ``.remove()`` in the same function (use the context managers).

LIF001/LIF002 bind to product code; LIF003 binds everywhere (tests are
exactly where taps get installed).  Deliberately permanent registries
(e.g. a daemon's host table that lives as long as the simulation) carry
``# repro: ignore[LIF002]`` suppressions.
"""

from __future__ import annotations

import ast

from repro.analysis.base import EVERYWHERE, ModuleContext, Rule, register, self_attr

_TIMER_FACTORIES = frozenset({"call_later", "call_at"})

#: Empty-container constructors for LIF002's "born empty" test.
_EMPTY_CONTAINERS = frozenset(
    {
        "list",
        "dict",
        "set",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)

_GROWERS = frozenset({"append", "appendleft", "add", "insert", "setdefault"})
_SHRINKERS = frozenset({"pop", "popitem", "popleft", "remove", "discard", "clear"})


# ------------------------------------------------------------------ LIF001 --


@register
class TimerLeakChecker(Rule):
    """A stored timer handle is a promise to fire; teardown must revoke it.
    An uncancelled handle keeps its callback (and the whole object graph
    behind it) live on the heap and fires after close(), resurrecting state
    the simulation considers gone.  Every ``self.x = sim.call_later(...)``
    needs a ``self.x.cancel()`` somewhere in the class — the delayed-ACK
    handle this rule caught in ``net/tcp.py`` fired after teardown."""

    rule = "LIF001"
    description = (
        "every TimerHandle stored on self must be cancelled somewhere in "
        "its class (close()/teardown path)"
    )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        created: dict[str, ast.AST] = {}
        cancelled: set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                func = stmt.value.func
                if isinstance(func, ast.Attribute) and func.attr in _TIMER_FACTORIES:
                    for target in stmt.targets:
                        attr = self_attr(target)
                        if attr is not None and attr not in created:
                            created[attr] = stmt
            elif isinstance(stmt, ast.Call):
                func = stmt.func
                if isinstance(func, ast.Attribute) and func.attr == "cancel":
                    attr = self_attr(func.value)
                    if attr is not None:
                        cancelled.add(attr)
        for attr, site in sorted(created.items()):
            if attr not in cancelled:
                self.report(
                    site,
                    f"TimerHandle `self.{attr}` in `{node.name}` is never "
                    "cancelled; cancel it on the close()/teardown path (or "
                    "suppress with the reason firing-after-close is safe)",
                )
        self.generic_visit(node)


# ------------------------------------------------------------------ LIF002 --


def _is_empty_container(node: ast.expr, ctx: ModuleContext) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return not getattr(node, "elts", None) and not getattr(node, "keys", None)
    if isinstance(node, ast.Call):
        name = ctx.resolve_call(node.func)
        if name == "collections.defaultdict":
            return True  # defaultdict(factory) is born empty
        return name in _EMPTY_CONTAINERS and not node.args and not node.keywords
    return False


@register
class ResourceLeakChecker(Rule):
    """An attribute that starts empty and only ever gains entries is the
    static signature of a leak: an SA registry without teardown, a
    connection table without a close path.  At million-session scale these
    tables *are* the memory ceiling.  The rule wants at least one shrink
    site (pop/remove/del/clear or a rebinding reset) per growing table."""

    rule = "LIF002"
    description = (
        "container attributes born empty in __init__ and grown at runtime "
        "need a release path (pop/del/clear/rebind)"
    )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        empties: set[str] = set()
        grows: dict[str, ast.AST] = {}
        shrinks: set[str] = set()
        for func in node.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_init = func.name == "__init__"
            for stmt in ast.walk(func):
                if isinstance(stmt, ast.Assign):
                    targets: list[ast.expr] = []
                    for target in stmt.targets:
                        if isinstance(target, (ast.Tuple, ast.List)):
                            targets.extend(target.elts)
                        else:
                            targets.append(target)
                    for target in targets:
                        attr = self_attr(target)
                        if attr is not None:
                            if in_init and _is_empty_container(stmt.value, self.ctx):
                                empties.add(attr)
                            elif not in_init:
                                shrinks.add(attr)  # rebinding is a reset
                        # self.X[k] = v grows the table
                        elif isinstance(target, ast.Subscript) and not in_init:
                            attr = self_attr(target.value)
                            if attr is not None:
                                grows.setdefault(attr, stmt)
                elif isinstance(stmt, ast.Call):
                    f = stmt.func
                    if isinstance(f, ast.Attribute):
                        attr = self_attr(f.value)
                        if attr is not None:
                            if f.attr in _GROWERS and not in_init:
                                grows.setdefault(attr, stmt)
                            elif f.attr in _SHRINKERS:
                                shrinks.add(attr)
                elif isinstance(stmt, ast.Delete):
                    for target in stmt.targets:
                        if isinstance(target, ast.Subscript):
                            attr = self_attr(target.value)
                            if attr is not None:
                                shrinks.add(attr)
        for attr in sorted(set(empties) & set(grows) - shrinks):
            self.report(
                grows[attr],
                f"`self.{attr}` in `{node.name}` acquires entries at runtime "
                "but the class never releases any; add a close/expiry path "
                "or suppress with the bounded-lifetime justification",
            )
        self.generic_visit(node)


# ------------------------------------------------------------------ LIF003 --


@register
class TapLeakChecker(Rule):
    """Sanitizer taps are process-global by design, which is exactly why a
    leaked one is poisonous: it outlives its test and asserts against every
    later run in the process.  Installation must be paired with removal in
    the same function — in practice, use ``wire_sanitizer()`` instead of
    touching the tap list."""

    rule = "LIF003"
    description = (
        "*_TAPS.append(...) needs a paired .remove() in the same function; "
        "prefer the sanitizer context managers"
    )
    scope = EVERYWHERE

    @staticmethod
    def _walk_scope(body):
        """Walk ``body`` without descending into nested functions — those
        are separate scopes, visited (and paired) on their own."""
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, node, body) -> None:
        appended: dict[str, ast.AST] = {}
        removed: set[str] = set()
        for call in self._walk_scope(body):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            name = None
            if isinstance(base, ast.Name) and base.id.endswith("_TAPS"):
                name = base.id
            elif isinstance(base, ast.Attribute) and base.attr.endswith("_TAPS"):
                name = base.attr
            if name is None:
                continue
            if func.attr in ("append", "insert", "extend"):
                appended.setdefault(name, call)
            elif func.attr in ("remove", "clear", "pop"):
                removed.add(name)
        for name, site in sorted(appended.items()):
            if name not in removed:
                self.report(
                    site,
                    f"tap installed into `{name}` without a paired removal in "
                    "this function; wrap in try/finally or use the sanitizer "
                    "context manager",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_scope(node, node.body)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_scope(node, node.body)
        self.generic_visit(node)

    def visit_Module(self, node: ast.Module) -> None:
        self._check_scope(node, node.body)
        self.generic_visit(node)
