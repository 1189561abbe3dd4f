"""Hot-path discipline rules (PERF001/002).

PRs 5 and 7 bought the dataplane's throughput (the ``bench/`` ledger's
dispatch rows, BENCH_scale.json) by keeping the per-event paths free of
allocation and name lookup: bound callbacks created once, rearmed timer
handles, module-level pre-bound METRICS counters, RECORDER calls gated
behind ``RECORDER.enabled``.  Nothing guards those wins against a quiet
regression — one innocent f-string in a per-packet function and a
million-session run pays for it a billion times.  These rules are that
guard.

The hot set is the call-graph closure of the explicitly named dispatch
roots (:data:`ROOTS`) — the callback-lane link serializer, the IP send
path, the fluid TCP fast-forward, and the ESP dataplane lanes.
The walk follows only calls in the *hot region* of each function: error
paths (blocks ending in ``raise``, ``except`` handlers, ``assert``) and
``RECORDER.enabled``-gated debug blocks are cold by construction and
neither followed nor checked.  Ambiguous CHA fan-out (an opaque
``obj.get(...)`` resolving to more than :data:`CHA_FANOUT_LIMIT`
methods) is not followed either — that is why the roots are named
explicitly instead of inferred.

PERF001 flags per-event allocation in hot code: dict displays /
``dict()``, lambdas and nested ``def`` (closure objects), f-strings and
``.format()``.  PERF002 flags per-event observability overhead: any
``logging`` / ``print`` call, and METRICS registry lookups
(``METRICS.counter("...")`` inside a hot function instead of a
module-level pre-bound handle).
"""

from __future__ import annotations

import ast

from repro.analysis.base import ProgramContext, Rule, Scope, in_scope, register

#: Fast-lane dispatch roots, as ``Class.method`` (or ``module.function``)
#: qualname suffixes.  The link's delivery callback is wired through a
#: bound-method reference (``self._deliver_cb = self._deliver``) the call
#: graph cannot see, and ``Serializer.send`` is reached only through opaque
#: ``iface._endpoint`` receivers, so the roots name them directly.  A root
#: that matches nothing although its class or module was analysed is a
#: finding (:func:`stale_roots`): renaming a hot function must not quietly
#: shrink the walk.
ROOTS = (
    "Serializer.send",
    "LinkEndpoint._deliver",
    "Node.send_ip_fast",
    # The CPU slot every ESP charge takes, and its completion timer's callback.
    "Node.cpu_run",
    "Node._cpu_done",
    "TcpConnection._fluid_advance",
    "TcpConnection._fluid_fired",
    "TcpConnection._fluid_charge",
    # (not _tx_serve: its pending branch starts base exchanges — cold — and
    # its established branch is the same cost arithmetic as _rx_serve's).
    # The shim is reached only through ``Node._output_shims`` and a lane's
    # hop only through its timer, both opaque to the call graph.
    "HipDaemon._output_shim",
    "_Lane._serve_next",
    "HipDaemon._tx_send",
    "HipDaemon._rx_serve",
    "HipDaemon._rx_deliver",
    # The shard coordinator's window loop (PR 10): these run once per sync
    # window / boundary packet, thousands of times per scale run, and the
    # scatter-gather speedup evaporates if barrier turnaround regresses.
    "ShardedSimulation._sync_window",
    "ShardedSimulation._route_window",
    "ShardedSimulation._drain_digest",
    "Shard.inject",
    "Shard.advance",
    "shard._dumps",
    "shard._loads",
)

#: Do not follow opaque-receiver CHA edges wider than this.
CHA_FANOUT_LIMIT = 3

#: METRICS registry methods that do a name lookup / registration.
_REGISTRY_LOOKUPS = frozenset({"counter", "histogram"})


#: The analysis package itself (and its wire sanitizer) is offline
#: tooling — opaque CHA edges into it are spurious, so the hot walk neither
#: follows nor reports them.
_HOT_SCOPE = Scope(outside=("analysis", "tests"))


def _is_cold_if(node: ast.If) -> bool:
    """Error-path or debug-gated ``if`` blocks are cold by construction."""
    if node.body and isinstance(node.body[-1], ast.Raise):
        return True
    for sub in ast.walk(node.test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
    return False


def hot_statements(body: list[ast.stmt]):
    """Statements in the hot region of a function body.

    Skips: nested defs (yielded once as allocation sites, not descended),
    ``raise``/``assert``, cold ``if`` blocks, and ``except`` handlers.
    """
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield stmt  # closure allocation; body is a separate graph node
            continue
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            continue
        if isinstance(stmt, ast.If):
            if not _is_cold_if(stmt):
                yield stmt.test
                yield from hot_statements(stmt.body)
            yield from hot_statements(stmt.orelse)
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield stmt.iter
            yield from hot_statements(stmt.body)
            yield from hot_statements(stmt.orelse)
            continue
        if isinstance(stmt, ast.While):
            yield stmt.test
            yield from hot_statements(stmt.body)
            yield from hot_statements(stmt.orelse)
            continue
        if isinstance(stmt, ast.Try):
            yield from hot_statements(stmt.body)
            yield from hot_statements(stmt.orelse)
            yield from hot_statements(stmt.finalbody)
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                yield item.context_expr
            yield from hot_statements(stmt.body)
            continue
        if isinstance(stmt, ast.ClassDef):
            continue
        yield stmt


def hot_nodes(fn_node):
    """Every AST node in the hot region (statements expanded to exprs)."""
    for item in hot_statements(fn_node.body):
        stack = [item]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield node  # allocation site; don't descend
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _matches(qualname: str, suffix: str) -> bool:
    return qualname == suffix or qualname.endswith("." + suffix)


def stale_roots(index, graph) -> list[tuple[str, str]]:
    """``(root, path)`` for every root that names no function although its
    owner — the class or module before the last dot — was analysed."""
    path_of = {module: path for path, module in index.module_of_path.items()}
    owners = {qual: info.module for qual, info in index.classes.items()}
    owners.update((module, module) for module in path_of)
    stale = []
    for suffix in ROOTS:
        if any(_matches(qualname, suffix) for qualname in graph.edges):
            continue
        owner = suffix.rpartition(".")[0]
        stale.extend(
            (suffix, path_of[module])
            for qual, module in sorted(owners.items())
            if _matches(qual, owner)
        )
    return stale


def hot_reachable(index, graph) -> dict[str, str]:
    """Hot closure of :data:`ROOTS` with root provenance.

    Only calls in the hot region are followed, and ambiguous CHA target
    sets are pruned.
    """
    queue: list[tuple[str, str]] = []
    for suffix in ROOTS:
        for qualname in sorted(graph.edges):
            if _matches(qualname, suffix):
                queue.append((qualname, suffix))
    reached: dict[str, str] = {}
    while queue:
        qualname, root = queue.pop(0)
        if qualname in reached:
            continue
        fn = index.functions.get(qualname)
        if fn is not None and not in_scope(_HOT_SCOPE, fn.path):
            continue
        reached[qualname] = root
        if fn is None:
            continue
        for node in hot_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            targets = graph.call_targets.get(id(node), ())
            if 0 < len(targets) <= CHA_FANOUT_LIMIT:
                for target in targets:
                    if target not in reached:
                        queue.append((target, root))
    return reached


def _alloc_problem(node: ast.AST) -> str | None:
    if isinstance(node, ast.Dict) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    ):
        return "allocates a dict per event"
    if isinstance(node, ast.DictComp):
        return "builds a dict comprehension per event"
    if isinstance(node, ast.Lambda):
        return "allocates a closure (lambda) per event"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return "allocates a closure (nested def) per event"
    if isinstance(node, ast.JoinedStr):
        return "formats an f-string per event"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    ):
        return "calls str.format per event"
    return None


def _observability_problem(node: ast.AST, resolve_call) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "METRICS" and func.attr in _REGISTRY_LOOKUPS:
            return (
                f"METRICS.{func.attr}(...) does a registry name-lookup per "
                "event; bind the handle at module scope"
            )
    dotted = resolve_call(func)
    if dotted is not None:
        if dotted == "print" or dotted.split(".")[0] == "logging":
            return f"calls {dotted} per event"
    return None


def perf_findings(pctx: ProgramContext) -> list[tuple[str, str, ast.AST, str]]:
    """The hot-path discipline scan PERF001/PERF002 share."""
    index, graph = pctx.program()
    findings: list[tuple[str, str, ast.AST, str]] = []
    for root, path in stale_roots(index, graph):
        message = (
            f"PERF root `{root}` matches no function, so the hot walk "
            "silently checks less; point ROOTS at what replaced it"
        )
        module = pctx.by_path[path].tree
        findings += [(rule, path, module, message) for rule in ("PERF001", "PERF002")]
    for qualname, root in sorted(hot_reachable(index, graph).items()):
        fn = index.functions.get(qualname)
        ctx = pctx.by_path.get(fn.path) if fn is not None else None
        if fn is None or ctx is None:
            continue
        where = f"on the fast lane (reachable from {root})"
        for node in hot_nodes(fn.node):
            alloc = _alloc_problem(node)
            if alloc is not None:
                findings.append(("PERF001", fn.path, node, f"{alloc} {where}"))
            obs = _observability_problem(node, ctx.resolve_call)
            if obs is not None:
                findings.append(("PERF002", fn.path, node, f"{obs} {where}"))
    return findings


class _PerfChecker(Rule):
    scope = _HOT_SCOPE
    program_pass = perf_findings


@register
class HotPathAllocationChecker(_PerfChecker):
    """per-event allocation (dict, closure, f-string, .format) in fast-lane code"""

    rule = "PERF001"
    description = (
        "function reachable from a fast-lane dispatch root allocates a "
        "dict/closure/f-string per event"
    )


@register
class HotPathObservabilityChecker(_PerfChecker):
    """logging/print or METRICS registry lookup per event in fast-lane code"""

    rule = "PERF002"
    description = (
        "function reachable from a fast-lane dispatch root calls logging/"
        "print or does a METRICS name-lookup per event"
    )
