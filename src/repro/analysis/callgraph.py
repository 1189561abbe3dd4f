"""Whole-program call graph over the ``repro`` package.

The per-module rules (``rules``, ``isolation``, ``lifecycle``) stop at
function boundaries; the hot-path family (PERF) needs to know *who calls
whom* across the whole tree.  This module builds
that graph statically from the ASTs the runner already parsed:

* :class:`ProgramIndex` — every module, class and function in the analyzed
  set, keyed by dotted qualname (``repro.net.tcp.TcpConnection._pump``),
  plus per-module import aliases;
* :class:`CallGraph` — caller→callee edges with CHA-style method
  resolution and per-call-site target sets (the PERF hot walk follows
  those).

Method resolution is class-hierarchy based and name-driven, the same
bargain as the rest of the analysis package:

* ``self.m()`` / ``cls.m()`` / ``super().m()`` resolve through the
  enclosing class's bases *and* its subclasses (an override may be the
  one that runs);
* ``alias.f()`` resolves through the module's import aliases
  (``import repro.hip.packets as hp; hp.build_puzzle`` →
  ``repro.hip.packets.build_puzzle``);
* ``obj.m()`` on an opaque receiver falls back to CHA: an edge to every
  program method named ``m``.  Over-approximate, which is the sound
  direction for reachability-style clients;
* a function *reference* passed as a call argument (callback
  registration: ``sim.call_later(d, self._fire)``) also produces an edge
  — the fast lanes are wired almost entirely through callbacks.

Soundness limits (documented, deliberate): calls through values stored in
containers or attributes (``self._cb = f; self._cb()``) and dynamically
computed names are invisible.  The PERF pass compensates by naming its
dispatch roots explicitly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.base import path_parts


def module_name_of(path: str) -> str | None:
    """Dotted module name for a path inside the ``repro`` package.

    ``src/repro/net/tcp.py`` → ``repro.net.tcp``; ``.../repro/__init__.py``
    → ``repro``.  Files outside the package (tests, benchmarks) return
    ``None`` — they are analyzed per-module but are not part of the
    whole-program graph.
    """
    parts = path_parts(path)
    if "repro" not in parts or not parts[-1].endswith(".py"):
        return None
    start = parts.index("repro")
    mod_parts = [*parts[start:-1], parts[-1][: -len(".py")]]
    if mod_parts[-1] == "__init__":
        mod_parts = mod_parts[:-1]
    return ".".join(mod_parts)


@dataclass
class FunctionInfo:
    """One function or method in the analyzed program."""

    qualname: str  # repro.net.tcp.TcpConnection._pump
    module: str  # repro.net.tcp
    path: str  # as reported in findings
    name: str  # _pump
    class_name: str | None  # TcpConnection, or None for module functions
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class ClassInfo:
    """One class definition: bare base names and name→qualname methods."""

    qualname: str
    module: str
    name: str
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)


def _base_name(node: ast.expr) -> str | None:
    """Bare name of a base-class expression (``Foo`` or ``mod.Foo``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] and friends
        return _base_name(node.value)
    return None


class ProgramIndex:
    """Modules, classes and functions of the analyzed set, cross-linked."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: bare class name -> sorted class qualnames (collisions possible)
        self.class_by_name: dict[str, list[str]] = {}
        #: method name -> sorted function qualnames across all classes
        self.methods_by_name: dict[str, list[str]] = {}
        #: (module, bare function name) -> qualname (module-level functions)
        self.module_functions: dict[tuple[str, str], str] = {}
        #: module -> import aliases (local name -> dotted target)
        self.aliases: dict[str, dict[str, str]] = {}
        #: path (as analyzed) -> module dotted name
        self.module_of_path: dict[str, str] = {}

    # -- construction --------------------------------------------------------
    @classmethod
    def build(cls, contexts) -> "ProgramIndex":
        """Index every product module among ``contexts``.

        ``contexts`` are :class:`~repro.analysis.base.ModuleContext`-shaped
        (``path``/``tree``/``_aliases``); non-``repro`` files are skipped.
        """
        index = cls()
        for ctx in contexts:
            module = module_name_of(ctx.path)
            if module is None:
                continue
            index.module_of_path[ctx.path] = module
            index.aliases[module] = dict(ctx._aliases)
            index._index_module(module, ctx.path, ctx.tree)
        for name_map in (index.class_by_name, index.methods_by_name):
            for key in name_map:
                name_map[key] = sorted(set(name_map[key]))
        return index

    def _index_module(self, module: str, path: str, tree: ast.Module) -> None:
        def add_function(
            node, class_info: ClassInfo | None, prefix: str
        ) -> None:
            qualname = f"{prefix}.{node.name}"
            info = FunctionInfo(
                qualname=qualname,
                module=module,
                path=path,
                name=node.name,
                class_name=class_info.name if class_info else None,
                node=node,
            )
            self.functions[qualname] = info
            if class_info is not None:
                class_info.methods.setdefault(node.name, qualname)
                self.methods_by_name.setdefault(node.name, []).append(qualname)
            else:
                self.module_functions.setdefault((module, node.name), qualname)
            # Nested defs are separate graph nodes reached from the enclosing
            # function (closure creation counts as a potential call).
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(child, class_info, qualname)

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(stmt, None, module)
            elif isinstance(stmt, ast.ClassDef):
                cls_info = ClassInfo(
                    qualname=f"{module}.{stmt.name}",
                    module=module,
                    name=stmt.name,
                    bases=tuple(
                        b for b in map(_base_name, stmt.bases) if b is not None
                    ),
                )
                self.classes[cls_info.qualname] = cls_info
                self.class_by_name.setdefault(stmt.name, []).append(
                    cls_info.qualname
                )
                for child in stmt.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add_function(child, cls_info, cls_info.qualname)

    # -- hierarchy queries ---------------------------------------------------
    def mro_lookup(self, class_name: str, method: str) -> list[str]:
        """Method ``method`` resolved through ``class_name`` and its bases."""
        out: list[str] = []
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            for qual in self.class_by_name.get(name, ()):
                info = self.classes[qual]
                if method in info.methods:
                    out.append(info.methods[method])
                queue.extend(info.bases)
        return out

    def override_lookup(self, class_name: str, method: str) -> list[str]:
        """``method`` in subclasses of ``class_name`` (overrides may run)."""
        out: list[str] = []
        for qual in sorted(self.classes):
            info = self.classes[qual]
            if class_name in self._ancestry(info) and method in info.methods:
                out.append(info.methods[method])
        return out

    def _ancestry(self, info: ClassInfo) -> set[str]:
        seen: set[str] = set()
        queue = list(info.bases)
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            for qual in self.class_by_name.get(name, ()):
                queue.extend(self.classes[qual].bases)
        return seen


class CallGraph:
    """Caller→callee edges plus per-call-site resolution."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        self.edges: dict[str, tuple[str, ...]] = {}
        #: id(ast.Call node) -> resolved callee qualnames (for the PERF walk)
        self.call_targets: dict[int, tuple[str, ...]] = {}

    @classmethod
    def build(cls, index: ProgramIndex) -> "CallGraph":
        graph = cls(index)
        for qualname in sorted(index.functions):
            graph.edges[qualname] = graph._resolve_function(
                index.functions[qualname]
            )
        return graph

    # -- resolution ----------------------------------------------------------
    def _resolve_function(self, fn: FunctionInfo) -> tuple[str, ...]:
        callees: set[str] = set()
        aliases = self.index.aliases.get(fn.module, {})
        for node in self._own_nodes(fn.node):
            if isinstance(node, ast.Call):
                targets = self._resolve_call(fn, node, aliases)
                self.call_targets[id(node)] = targets
                callees.update(targets)
                # Callback registration: function references as arguments.
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    callees.update(self._resolve_reference(fn, arg, aliases))
        # Defining a nested function counts as reaching it.
        for child in fn.node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callees.add(f"{fn.qualname}.{child.name}")
        return tuple(sorted(callees))

    @staticmethod
    def _own_nodes(fn_node):
        """Walk a function body without descending into nested defs."""
        stack: list[ast.AST] = list(fn_node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _resolve_call(
        self, fn: FunctionInfo, node: ast.Call, aliases: dict[str, str]
    ) -> tuple[str, ...]:
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_bare(fn, func.id, aliases)
        if isinstance(func, ast.Attribute):
            return self._resolve_method(fn, func, aliases)
        return ()

    def _resolve_bare(
        self, fn: FunctionInfo, name: str, aliases: dict[str, str]
    ) -> tuple[str, ...]:
        # Local (possibly nested) function in the same module/class scope.
        for scope in (fn.qualname, *_scope_chain(fn.qualname)):
            nested = f"{scope}.{name}"
            if nested in self.index.functions:
                return (nested,)
        local = self.index.module_functions.get((fn.module, name))
        if local is not None:
            return (local,)
        dotted = aliases.get(name)
        if dotted is not None:
            if dotted in self.index.functions:
                return (dotted,)
            if dotted in self.index.classes:
                return self._class_init(dotted)
        for qual in self.index.class_by_name.get(name, ()):
            if (
                self.index.classes[qual].module == fn.module
                or aliases.get(name) == qual
            ):
                return self._class_init(qual)
        return ()

    def _class_init(self, class_qual: str) -> tuple[str, ...]:
        info = self.classes_get(class_qual)
        if info is None:
            return ()
        inits = self.index.mro_lookup(info.name, "__init__")
        return tuple(sorted(inits)) if inits else ()

    def classes_get(self, qual: str) -> ClassInfo | None:
        return self.index.classes.get(qual)

    def _resolve_method(
        self, fn: FunctionInfo, func: ast.Attribute, aliases: dict[str, str]
    ) -> tuple[str, ...]:
        method = func.attr
        base = func.value
        # self.m() / cls.m() / super().m(): class hierarchy of the enclosing
        # class, plus overrides in subclasses (dynamic dispatch may pick one).
        is_super = (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "super"
        )
        if fn.class_name is not None and (
            is_super
            or (isinstance(base, ast.Name) and base.id in ("self", "cls"))
        ):
            found = self.index.mro_lookup(fn.class_name, method)
            if not is_super:
                found += self.index.override_lookup(fn.class_name, method)
            if found:
                return tuple(sorted(set(found)))
            # The attribute may be a callback slot, not a method — fall
            # through to CHA below.
        if isinstance(base, ast.Name):
            dotted = aliases.get(base.id)
            if dotted is not None:
                target = f"{dotted}.{method}"
                if target in self.index.functions:
                    return (target,)
                if dotted in self.index.classes:  # Class.m(instance, ...)
                    info = self.index.classes[dotted]
                    found = self.index.mro_lookup(info.name, method)
                    if found:
                        return tuple(sorted(set(found)))
            if base.id in self.index.class_by_name:
                found = self.index.mro_lookup(base.id, method)
                if found:
                    return tuple(sorted(set(found)))
        # Opaque receiver: CHA by method name over the whole program.
        return tuple(self.index.methods_by_name.get(method, ()))

    def _resolve_reference(
        self, fn: FunctionInfo, node: ast.expr, aliases: dict[str, str]
    ) -> tuple[str, ...]:
        """A bare function/method *reference* (not a call) used as an argument."""
        if isinstance(node, ast.Attribute) and not isinstance(node.value, ast.Call):
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                if fn.class_name is not None:
                    found = self.index.mro_lookup(fn.class_name, node.attr)
                    found += self.index.override_lookup(fn.class_name, node.attr)
                    return tuple(sorted(set(found)))
            if isinstance(node.value, ast.Name):
                dotted = aliases.get(node.value.id)
                if dotted is not None:
                    target = f"{dotted}.{node.attr}"
                    if target in self.index.functions:
                        return (target,)
        elif isinstance(node, ast.Name):
            local = self.index.module_functions.get((fn.module, node.id))
            if local is not None:
                return (local,)
        return ()


def _scope_chain(qualname: str) -> tuple[str, ...]:
    """Enclosing scopes of a qualname, innermost first (for nested defs)."""
    parts = qualname.split(".")
    return tuple(".".join(parts[:i]) for i in range(len(parts) - 1, 0, -1))


def build_program(contexts) -> tuple[ProgramIndex, CallGraph]:
    """Convenience: index + call graph in one step (memoised by callers)."""
    index = ProgramIndex.build(contexts)
    return index, CallGraph.build(index)
