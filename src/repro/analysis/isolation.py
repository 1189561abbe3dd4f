"""Shard-isolation rules (``ISO*``): no shared mutable state across shards.

The sharded simulator (``repro.sim.shard``) runs each partition on its own
``Simulator`` — inline or in a forked worker.  Its correctness argument
assumes every piece of runtime-mutable state is *owned by one simulator*:
module-level containers are process-globals that diverge between the
inline and fork-per-shard modes (a child's writes die with the child), and
objects reaching across shard boundaries outside the envelope protocol
break the conservative-lookahead ordering proof.  These rules make that
ownership contract checkable:

* **ISO001** — module-level mutable state written at runtime (same-module
  containers/counters mutated inside functions, and *any* attribute write
  or mutator call on a name from-imported out of another ``repro`` module);
* **ISO002** — writes to another object's ``Simulator``-private attributes
  (``sim._seq``, ``heappush(sim._heap, ...)``) outside ``repro/sim``;
* **ISO003** — class-level mutable attributes (one object shared by every
  instance, in every shard);
* **ISO004** — a ``Simulator`` escaping into module scope or a default
  argument, or a function capturing a module-global ``Simulator``.

Scope: product code except ``repro/analysis`` itself — the analysis layer
is deliberately process-global instrumentation (``WIRE_TAPS`` installs,
registry side effects) and never runs inside a shard.  Same-module
``METRICS`` handle writes are exempt: every metric write (counter or
histogram bucket) is rewound in the shard and committed at the barrier.
Any other exception carries a ``# repro: ignore[ISO...]`` justified at the
site.
"""

from __future__ import annotations

import ast

from repro.analysis.base import ModuleContext, Rule, Scope, register, root_name

#: Methods that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
        "itertools.count",
    }
)

_SIMULATOR_CONSTRUCTORS = frozenset(
    {
        "Simulator",
        "repro.sim.Simulator",
        "repro.sim.engine.Simulator",
    }
)

#: ``METRICS`` handle factories: module-level counter/histogram bindings
#: are the process-global observability channel (the registry is
#: get-or-create, and a shard's metric writes are committed at the barrier
#: by the coordinator), so same-module writes through those handles are exempt.
_METRIC_FACTORY_PREFIX = "repro.metrics.METRICS."


#: Product code minus the analysis layer (see module docstring).
ISO_SCOPE = Scope(product=True, outside=("analysis",))


def _module_bindings(ctx: ModuleContext) -> dict[str, str]:
    """Top-level name -> kind ("mutable" | "metric" | "simulator").

    Only direct module-body assignments count: state built once at import
    time inside loops/conditionals is still a module binding, but mutating
    it *at import time* is setup, not runtime sharing — the rules only
    flag mutation from inside function bodies.
    """
    cached = ctx.cache.get("iso.bindings")
    if cached is not None:
        return cached
    bindings: dict[str, str] = {}
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        kind: str | None = None
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            kind = "mutable"
        elif isinstance(value, ast.Call):
            name = ctx.resolve_call(value.func)
            if name in _MUTABLE_CONSTRUCTORS:
                kind = "mutable"
            elif name in _SIMULATOR_CONSTRUCTORS:
                kind = "simulator"
            elif name is not None and name.startswith(_METRIC_FACTORY_PREFIX):
                kind = "metric"
        if kind is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                bindings[target.id] = kind
    ctx.cache["iso.bindings"] = bindings
    return bindings


# ------------------------------------------------------------------ ISO001 --


@register
class ModuleStateWriteChecker(Rule):
    """Module-level mutable bindings are process-globals: one object per
    *process*, not per shard.  A forked worker mutates its private copy (the
    write is lost at the sync barrier), an inline worker mutates state every
    other shard sees — either way, runs disagree depending on worker mode.
    State that must survive a window belongs on the shard's ``Simulator``
    (``sim.services``) or travels through the coordinator explicitly."""

    rule = "ISO001"
    description = (
        "no runtime writes to module-level mutable state (containers, "
        "counters, cross-module attribute writes); own it via sim.services"
    )
    scope = ISO_SCOPE

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._bindings = _module_bindings(ctx)
        self._depth = 0

    # -- scope tracking -------------------------------------------------------
    def _enter_function(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function
    visit_Lambda = _enter_function

    # -- classification -------------------------------------------------------
    def _imported_repro_name(self, name: str) -> str | None:
        """Dotted origin of a ``from repro.x import y`` binding, else None."""
        dotted = self.ctx._aliases.get(name)
        if dotted is not None and dotted.startswith("repro.") and "." in dotted:
            return dotted
        return None

    def _flag_write(self, node: ast.AST, name: str, how: str) -> None:
        origin = self._imported_repro_name(name)
        if origin is not None:
            self.report(
                node,
                f"{how} `{name}` mutates `{origin}` — module state owned by "
                "another module; cross-module writes to process-globals "
                "silently diverge between inline and forked shard workers",
            )
            return
        kind = self._bindings.get(name)
        if kind == "mutable":
            self.report(
                node,
                f"{how} module-level mutable `{name}` at runtime; "
                "process-global state is invisible to forked shard workers — "
                "own it via sim.services or pass it explicitly",
            )

    # -- visitors -------------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.report(
                node,
                f"`global {name}` rebinds module state at runtime; a forked "
                "shard worker's rebinding is lost at the sync barrier",
            )

    def visit_Call(self, node: ast.Call) -> None:
        if self._depth:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
            ):
                self._flag_write(node, func.value.id, f"`.{func.attr}()` on")
            elif (
                isinstance(func, ast.Name)
                and func.id == "next"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                self._flag_write(node, node.args[0].id, "`next()` on")
        self.generic_visit(node)

    def _check_target(self, target: ast.expr) -> None:
        # Attribute/subscript writes whose root is a module binding or a
        # from-imported repro name; plain Name rebinding without `global`
        # is a local, not a module write.
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = root_name(target)
            if root is not None:
                # Same-module METRICS handles: every metric write is
                # committed at the barrier.
                if self._bindings.get(root) == "metric":
                    return
                self._flag_write(target, root, "assignment through")

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._depth:
            for target in node.targets:
                self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._depth:
            self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if self._depth:
            for target in node.targets:
                self._check_target(target)
        self.generic_visit(node)


# ------------------------------------------------------------------ ISO002 --


@register
class SimulatorPrivateWriteChecker(Rule):
    """Only the engine owns the engine.  A module that pokes ``sim._seq`` or
    heap-pushes onto ``sim._heap`` bypasses the scheduling invariants the
    shard sync proof relies on (monotonic sequence numbers, one writer per
    heap)."""

    rule = "ISO002"
    description = (
        "no writes to Simulator-private attributes (sim._seq, sim._heap, ...) "
        "outside repro/sim"
    )
    scope = Scope(product=True, outside=("analysis", "sim"))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    def _check_function(self, node) -> None:
        # Names bound (or passed) as a simulator inside this function.
        sim_names = {
            arg.arg for arg in node.args.args + node.args.kwonlyargs
            if arg.arg == "sim"
        }
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Attribute):
                if stmt.value.attr == "sim":
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            sim_names.add(target.id)

        def is_sim_expr(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in sim_names or expr.id == "sim"
            return isinstance(expr, ast.Attribute) and expr.attr == "sim"

        offenders: list[tuple[ast.AST, str]] = []
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr.startswith("_")
                        and is_sim_expr(target.value)
                    ):
                        offenders.append((stmt, target.attr))
            elif isinstance(stmt, ast.Call):
                name = self.ctx.resolve_call(stmt.func)
                if (
                    name in ("heapq.heappush", "heapq.heappop")
                    and stmt.args
                    and isinstance(stmt.args[0], ast.Attribute)
                    and stmt.args[0].attr.startswith("_")
                    and is_sim_expr(stmt.args[0].value)
                ):
                    offenders.append((stmt, stmt.args[0].attr))
        if offenders:
            attrs = ", ".join(sorted({attr for _, attr in offenders}))
            self.report(
                offenders[0][0],
                f"`{node.name}` writes Simulator-private state ({attrs}) from "
                "outside repro/sim; use call_later/TimerHandle.rearm, or "
                "suppress with the fast-path justification",
            )


# ------------------------------------------------------------------ ISO003 --


def _is_mutable_value(node: ast.expr, ctx: ModuleContext) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve_call(node.func) in _MUTABLE_CONSTRUCTORS
    return False


@register
class ClassMutableAttrChecker(Rule):
    """A class-level container is one object shared by every instance in
    every shard — the instance-attribute spelling (`self.x = []` in
    ``__init__``) is what per-shard ownership requires.  Dataclass fields
    with ``default_factory`` are fine (a fresh object per instance)."""

    rule = "ISO003"
    description = (
        "no class-level mutable attributes ([], {}, set(), deque(), ...); "
        "initialize per-instance in __init__"
    )
    scope = ISO_SCOPE

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not _is_mutable_value(value, self.ctx):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__slots__":
                    self.report(
                        stmt,
                        f"class-level mutable `{node.name}.{target.id}` is "
                        "shared by every instance across shards; assign it "
                        "per-instance in __init__ (or use a dataclass "
                        "default_factory)",
                    )
        self.generic_visit(node)


# ------------------------------------------------------------------ ISO004 --


@register
class SimulatorEscapeChecker(Rule):
    """A ``Simulator`` bound at module scope (or hiding in a default
    argument) is shared by every importer — including shards that must each
    own exactly one.  Functions capturing such a global smuggle one shard's
    event loop into another's builder."""

    rule = "ISO004"
    description = (
        "no module-level Simulator instances, Simulator default arguments, "
        "or closures capturing a module-global Simulator"
    )
    scope = ISO_SCOPE

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._sim_globals = {
            name for name, kind in _module_bindings(ctx).items()
            if kind == "simulator"
        }
        self._depth = 0

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if isinstance(value, ast.Call) and (
                self.ctx.resolve_call(value.func) in _SIMULATOR_CONSTRUCTORS
            ):
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.report(
                            stmt,
                            f"module-level Simulator `{target.id}` is shared "
                            "by every importer; construct one per shard and "
                            "pass it explicitly",
                        )
        self.generic_visit(node)

    def _check_function(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in getattr(node.args, "kw_defaults", []) if d is not None
        ]
        for default in defaults:
            if isinstance(default, ast.Call) and (
                self.ctx.resolve_call(default.func) in _SIMULATOR_CONSTRUCTORS
            ):
                self.report(
                    default,
                    "Simulator constructed as a default argument is one "
                    "shared event loop across every call; default to None "
                    "and construct per call site",
                )
        if self._sim_globals:
            captured = sorted(
                {
                    n.id
                    for n in ast.walk(node)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)
                    and n.id in self._sim_globals
                }
            )
            if captured:
                self.report(
                    node,
                    f"`{node.name}` captures module-global Simulator "
                    f"{', '.join(captured)}; a shard builder must only touch "
                    "its own shard.sim",
                )
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _check_function
    visit_AsyncFunctionDef = _check_function
