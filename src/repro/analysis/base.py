"""Rule framework: contexts, declarative scope, the rule base class, registry.

One protocol serves every rule.  The runner hands each registered
:class:`Rule` the whole analyzed set (:class:`ProgramContext`); a rule that
only needs one module at a time is the same thing iterated over
``pctx.contexts``, and a family of rules fed by one whole-program pass
(hot-path discipline) names that pass as data.
Where a rule binds is data too (:class:`Scope`), evaluated by
:func:`in_scope` and nothing else.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

# -- small AST / path helpers shared by every pass -----------------------------


def path_parts(path: str) -> tuple[str, ...]:
    """Components of a path as analyzed, whichever separator it came with."""
    return tuple(part for part in path.replace("\\", "/").split("/") if part)


def call_name(func: ast.expr) -> str | None:
    """Bare callable name: ``tls_prf`` or the attr of ``self._send_control``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"`` (else None)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# -- scope ---------------------------------------------------------------------


@dataclass(frozen=True)
class Scope:
    """Where a rule binds.  ``within``/``outside`` entries are runs of path
    components: a directory (``"hip"``) or a module suffix
    (``"hip/packets.py"``).
    """

    #: inside the ``repro`` package and not under ``tests`` — the simulator
    #: proper, where the determinism contract is binding (test and benchmark
    #: code may use the wall clock and ad-hoc randomness freely)
    product: bool = False
    #: when non-empty, at least one of these runs must be on the path
    within: tuple[str, ...] = ()
    #: none of these runs may be on the path
    outside: tuple[str, ...] = ()


EVERYWHERE = Scope()  # wherever the analyzer looks, tests included
PRODUCT = Scope(product=True)


def in_scope(scope: Scope, path: str) -> bool:
    """The one scope evaluator: does a rule with ``scope`` bind at ``path``?"""
    parts = path_parts(path)

    def on_path(run: str) -> bool:
        sub = tuple(run.split("/"))
        return any(
            parts[i : i + len(sub)] == sub for i in range(len(parts) - len(sub) + 1)
        )

    if scope.product and ("repro" not in parts or "tests" in parts):
        return False
    if scope.within and not any(on_path(run) for run in scope.within):
        return False
    return not any(on_path(run) for run in scope.outside)


# -- contexts ------------------------------------------------------------------


@dataclass
class ModuleContext:
    """Everything a rule may need about one module under analysis."""

    path: str  # as reported in findings (repo-relative when possible)
    source: str
    tree: ast.Module
    findings: list[Finding] = field(default_factory=list)
    _aliases: dict[str, str] = field(default_factory=dict)
    # Scratch space shared by the rules that run on this module: rules which
    # need the same expensive pass (module bindings) compute it once and
    # memoise it here, keyed by pass name.
    cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._collect_aliases()

    # -- reporting -----------------------------------------------------------
    def add(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -- import resolution -----------------------------------------------------
    def _collect_aliases(self) -> None:
        """Map local names to the dotted stdlib name they were imported as.

        ``import random as _r``      -> ``_r: random``
        ``from time import time``    -> ``time: time.time``
        ``from datetime import datetime as dt`` -> ``dt: datetime.datetime``
        """
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self._aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_call(self, func: ast.expr) -> str | None:
        """Dotted name of a call target with import aliases expanded.

        ``time.time()`` -> ``time.time``; after ``import random as _r``,
        ``_r.Random()`` -> ``random.Random``.  Calls on non-name bases
        (``self.rng.random()``) resolve to ``None`` — only *module-level*
        access is traceable statically, which is exactly what the
        determinism rules police.
        """
        chain: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._aliases.get(node.id, node.id)
        chain.append(base)
        return ".".join(reversed(chain))


def _build_program(pctx: "ProgramContext"):
    from repro.analysis.callgraph import build_program

    return build_program(pctx.contexts)


@dataclass
class ProgramContext:
    """The whole analyzed set at once — what every rule is handed.

    ``cache`` holds the expensive shared artifacts (call graph, each
    family's whole-program pass), computed once per run through
    :meth:`memo` and reused by every rule that needs them.
    """

    contexts: list[ModuleContext]
    cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.by_path: dict[str, ModuleContext] = {
            ctx.path: ctx for ctx in self.contexts
        }

    def memo(self, compute):
        """``compute(self)``, evaluated at most once per run."""
        if compute not in self.cache:
            self.cache[compute] = compute(self)
        return self.cache[compute]

    def program(self):
        """Memoised ``(ProgramIndex, CallGraph)`` over the product modules."""
        return self.memo(_build_program)

    def add(self, path: str, rule: str, node: ast.AST, message: str) -> None:
        """Report a finding into the owning module's context (so the normal
        per-file suppression machinery applies to whole-program rules)."""
        ctx = self.by_path.get(path)
        if ctx is not None:
            ctx.add(rule, node, message)


# -- rules ---------------------------------------------------------------------


class Rule(ast.NodeVisitor):
    """Base class for one rule.  Subclasses set ``rule``/``description``
    (and ``scope`` unless product code is it), then either visit nodes (one
    fresh instance per in-scope module, calling :meth:`report` on
    violations) or name the whole-program pass their family shares as
    ``program_pass``."""

    rule: str = ""
    description: str = ""
    scope: Scope = PRODUCT
    #: ``pass(pctx) -> [(rule, path, node, message), ...]`` covering every
    #: rule of a whole-program family; run once per analysis, each rule of
    #: the family reports its own share.  None for per-module rules.
    program_pass = None

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx

    @classmethod
    def run(cls, pctx: ProgramContext) -> None:
        if cls.program_pass is None:
            for ctx in pctx.contexts:
                if in_scope(cls.scope, ctx.path):
                    cls(ctx).check()
            return
        for rule, path, node, message in pctx.memo(cls.program_pass):
            if rule == cls.rule and in_scope(cls.scope, path):
                pctx.add(path, rule, node, message)

    def check(self) -> None:
        self.visit(self.ctx.tree)

    def report(self, node: ast.AST, message: str) -> None:
        self.ctx.add(self.rule, node, message)


REGISTRY: list[type[Rule]] = []


def register(cls: type[Rule]) -> type[Rule]:
    if not cls.rule:
        raise ValueError(f"{cls.__name__} has no rule id")
    if any(cls.rule == other.rule for other in REGISTRY):
        raise ValueError(f"duplicate rule id {cls.rule}")
    REGISTRY.append(cls)
    return cls


def registered_rules() -> dict[str, str]:
    """rule id -> description, for ``--list-rules`` and the JSON report."""
    return {cls.rule: cls.description for cls in REGISTRY}


def rule_doc(rule: str) -> str:
    """One-line doc for ``--list-rules``: first docstring line, else the
    registered description."""
    for cls in REGISTRY:
        if cls.rule == rule:
            doc = (cls.__doc__ or "").strip().splitlines()
            return doc[0].strip() if doc else cls.description
    return ""
