"""Secret-flow analysis: one summary-based interpreter for SEC001-SEC004.

The paper's confidentiality argument is only as good as the discipline that
keeps key material off the wire and out of the observability layer.  This
module tracks two taint classes through every product function:

* **SECRET** — raw key material: DH shared secrets (``.shared_secret()``),
  KEYMAT (``hip_keymat``/``hkdf_expand``/``hkdf_extract``), RSA-decrypted
  premasters (``.decrypt()``), non-Finished ``tls_prf`` output, and any
  name/attribute spelled like key material (``master_secret``, ``keymat``,
  ``premaster``, ...).
* **MAC** — values *derived* from secrets through a one-way function
  (``.digest()``, ``hmac_digest``, ``tls_prf`` with a ``finished`` label).
  MACs are designed to cross the wire, so they may reach packet builders —
  but comparing one with ``==`` still leaks a byte-position timing oracle.

Declassifiers stop propagation: ``.encrypt()`` (ciphertext is public),
``ct_equal`` and ``len`` (booleans/lengths are not key bytes).  The
observable sinks (:func:`observable_sinks`) are the flight recorder,
metrics names, packet parameter builders, the plaintext control channel,
``print``/``logging`` calls and exception messages.

One flow-sensitive sweep (:class:`_InterFunction`) serves all four rules,
built on the classic summary construction:

* every function gets a :class:`Summary` — the taint of its return value
  (:class:`TaintVal`: a concrete SECRET/MAC/CLEAN level *plus* the set of
  parameters it passes through), which parameters reach an observable sink
  inside it (``param_sinks``), and which attributes it writes secret
  material into (``attr_writes``);
* summaries are computed bottom-up over the call graph's SCCs
  (callee-first, iterating within a cycle until stable), so a chain
  ``A → B → C → sink`` composes: C's ``param_sinks`` lifts into B's, then
  into A's;
* a final reporting sweep re-walks every function and every module body
  with the fixed summaries.  A secret reaching a sink is exactly one of
  **SEC001** (the flow stays inside one function), **SEC003** (it crossed a
  call boundary — returned from a producer through helpers, or passed as an
  argument into a function that sinks it) or **SEC004** (it was parked in
  an attribute *not* spelled like key material and read back elsewhere);
  **SEC002** is a SECRET or MAC operand of ``==``/``!=`` — use
  :func:`repro.crypto.hmac_kdf.ct_equal` instead.

Attribute discovery iterates: attributes found to hold secrets extend the
source set and summaries are recomputed, until the set is stable (three
rounds bound it in practice — attribute-of-attribute chains are rare).

Soundness limits are the package's usual name-driven bargain, documented
in DESIGN.md: containers launder taint between unrelated keys, calls
through stored callables are invisible, and constructor results are CLEAN
(the fields written by ``__init__`` are tracked instead — an *object*
holding secrets is not itself secret bytes).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from repro.analysis.base import ProgramContext, Rule, Scope, call_name, register
from repro.analysis.callgraph import CallGraph, FunctionInfo, ProgramIndex

CLEAN = 0
MAC = 1
SECRET = 2

_CLASS_NAMES = {MAC: "MAC-derived", SECRET: "secret"}

#: Identifiers that *are* key material wherever they appear.  Matching by
#: terminal name lets taint survive attribute round-trips without waiting
#: for attribute discovery (``assoc.keymat`` written in one handler, read
#: in another).
SECRET_NAMES = frozenset(
    {
        "shared_secret",
        "dh_secret",
        "premaster",
        "master_secret",
        "keymat",
        "new_keymat",
        "session_key",
        "private_key",
        "enc_key",
        "icv_key",
    }
)

_SECRET_PRODUCER_CALLS = frozenset({"hip_keymat", "hkdf_expand", "hkdf_extract"})
_MAC_PRODUCER_CALLS = frozenset({"hmac_digest"})
_DECLASSIFY_CALLS = frozenset({"ct_equal", "len"})
_SECRET_PRODUCER_ATTRS = frozenset({"shared_secret", "decrypt"})
_MAC_PRODUCER_ATTRS = frozenset({"digest", "hexdigest"})
_DECLASSIFY_ATTRS = frozenset({"encrypt"})
_SINK_CALLS = frozenset({"_send_control", "_send_message"})

_EXCEPTION = "an exception message"
_NEVER_SINK = (
    "secrets must never reach an observable sink — derive a MAC/PRF output "
    "or encrypt first"
)


def label_candidates(
    node: ast.expr, consts: dict[str, bytes]
) -> list[bytes] | None:
    """Constant candidates for a ``tls_prf`` label, or None if opaque."""
    if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
        return [node.value]
    if isinstance(node, ast.Name) and node.id in consts:
        return [consts[node.id]]
    if isinstance(node, ast.IfExp):
        body = label_candidates(node.body, consts)
        orelse = label_candidates(node.orelse, consts)
        if body is not None and orelse is not None:
            return body + orelse
    return None


def tls_prf_taint(node: ast.Call, consts: dict[str, bytes]) -> int:
    """Taint class of a ``tls_prf(...)`` call result.

    Finished verify_data is PRF output *meant* for the wire; any other
    label (master secret, key expansion) derives key bytes.
    """
    if len(node.args) >= 2:
        labels = label_candidates(node.args[1], consts)
        if labels is not None and all(b"finished" in lb for lb in labels):
            return MAC
    return SECRET


@dataclass(frozen=True)
class TaintVal:
    """Abstract taint of one value.

    ``level`` is the concrete part (CLEAN < MAC < SECRET); ``params`` the
    symbolic part — indices of the enclosing function's parameters whose
    call-time taint flows into this value; ``via_call`` marks taint that
    crossed at least one program-function boundary (what distinguishes a
    SEC003 from a SEC001); ``attrs`` the discovered secret-bearing
    attributes that contributed (what makes it a SEC004).
    """

    level: int = CLEAN
    params: frozenset[int] = frozenset()
    via_call: bool = False
    attrs: frozenset[str] = frozenset()

    def join(self, other: "TaintVal") -> "TaintVal":
        if other is ZERO:
            return self
        if self is ZERO:
            return other
        return TaintVal(
            level=max(self.level, other.level),
            params=self.params | other.params,
            via_call=self.via_call or other.via_call,
            attrs=self.attrs | other.attrs,
        )

    @property
    def is_bottom(self) -> bool:
        return self.level == CLEAN and not self.params and not self.attrs


ZERO = TaintVal()


@dataclass
class Summary:
    """Transfer summary of one function, the unit of the fixpoint."""

    ret: TaintVal = ZERO
    #: param index -> description of the sink it reaches inside this function
    param_sinks: dict[int, str] = field(default_factory=dict)
    #: attribute name -> highest taint level written into it
    attr_writes: dict[str, int] = field(default_factory=dict)
    #: attribute name -> "qualname:line" of the tainting write (for messages)
    attr_sites: dict[str, str] = field(default_factory=dict)


def _short(qualname: str) -> str:
    return ".".join(qualname.split(".")[-2:])


def observable_sinks(
    node: ast.Call, aliases: dict[str, str]
) -> list[tuple[ast.expr, str]]:
    """(value, sink description) pairs for one call — the one sink table
    every SEC rule reads."""
    func = node.func
    name = call_name(func)
    all_values = list(node.args) + [kw.value for kw in node.keywords]
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "record"
        and isinstance(func.value, ast.Name)
        and func.value.id == "RECORDER"
    ):
        return [(v, "the flight recorder") for v in all_values]
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "METRICS"
    ):
        return [(v, "a metrics name") for v in node.args]
    if isinstance(func, ast.Attribute) and func.attr == "add" and len(node.args) >= 2:
        return [(node.args[1], "a packet parameter")]
    if name is not None and name.startswith("build_"):
        return [(v, "a packet parameter builder") for v in node.args]
    if name in _SINK_CALLS:
        return [(v, "the plaintext control channel") for v in all_values]
    if isinstance(func, ast.Name) and func.id == "print":
        return [(v, "standard output") for v in node.args]
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        dotted = aliases.get(func.value.id, func.value.id)
        if dotted == "logging" or dotted.startswith("logging."):
            return [(v, "a log call") for v in all_values]
    return []


class _InterFunction:
    """One flow-sensitive sweep over a function (or a module body) with
    summaries applied.

    Used twice: during the fixpoint (no ``report`` callback, the
    :class:`Summary` is the product) and during the final sweep (summaries
    fixed, findings collected through ``report``).  The comparison check and
    the branch-test walk only feed findings, never a summary, so they run
    in the reporting sweep alone and the fixpoint does not pay for them.
    """

    def __init__(
        self,
        fn: FunctionInfo,
        index: ProgramIndex,
        graph: CallGraph,
        summaries: dict[str, Summary],
        secret_attrs: frozenset[str],
        attr_origin: dict[str, str] | None = None,
        report=None,
    ) -> None:
        self.fn = fn
        self.index = index
        self.graph = graph
        self.summaries = summaries
        self.secret_attrs = secret_attrs
        self.attr_origin = attr_origin or {}
        self.report = report
        self.aliases = index.aliases.get(fn.module, {})
        self.summary = Summary()
        self.env: dict[str, TaintVal] = {}
        self.consts: dict[str, bytes] = {}
        self._reported: set[tuple[str, int, int]] = set()
        for i, param in enumerate(fn.params):
            level = SECRET if param in SECRET_NAMES else CLEAN
            self.env[param] = TaintVal(level=level, params=frozenset({i}))

    def run(self) -> Summary:
        self._sweep(self.fn.node.body)
        return self.summary

    # -- taint of expressions ------------------------------------------------
    def taint_of(self, node: ast.expr) -> TaintVal:
        if isinstance(node, ast.Name):
            val = self.env.get(node.id, ZERO)
            if node.id in SECRET_NAMES:
                val = val.join(TaintVal(level=SECRET, params=val.params))
            return val
        if isinstance(node, ast.Attribute):
            if node.attr in SECRET_NAMES:
                return TaintVal(level=SECRET)
            if node.attr in self.secret_attrs:
                return TaintVal(level=SECRET, attrs=frozenset({node.attr}))
            base = self.taint_of(node.value)
            if base.level == CLEAN:
                # Reading an attribute off a merely param-dependent object
                # (typically ``self``) yields no key bytes; only name- or
                # level-tainted bases propagate through attribute access.
                return ZERO
            return base
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return self.taint_of(node.value)
        if isinstance(node, ast.BinOp):
            return self.taint_of(node.left).join(self.taint_of(node.right))
        if isinstance(node, ast.BoolOp):
            out = ZERO
            for value in node.values:
                out = out.join(self.taint_of(value))
            return out
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body).join(self.taint_of(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = ZERO
            for elt in node.elts:
                out = out.join(self.taint_of(elt))
            return out
        if isinstance(node, ast.JoinedStr):
            out = ZERO
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out = out.join(self.taint_of(value.value))
            return out
        if isinstance(node, ast.FormattedValue):
            return self.taint_of(node.value)
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.NamedExpr):
            return self.taint_of(node.value)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.summary.ret = self.summary.ret.join(self.taint_of(node.value))
            return ZERO
        if isinstance(node, (ast.YieldFrom, ast.Await)):
            return self.taint_of(node.value)
        return ZERO

    def _arg_taint(self, node: ast.Call) -> TaintVal:
        out = ZERO
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            out = out.join(self.taint_of(value))
        return out

    def _call_taint(self, node: ast.Call) -> TaintVal:
        name = call_name(node.func)
        if name == "tls_prf":
            return TaintVal(level=tls_prf_taint(node, self.consts))
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _DECLASSIFY_ATTRS:
                return ZERO
            if node.func.attr in _SECRET_PRODUCER_ATTRS:
                return TaintVal(level=SECRET)
            if node.func.attr in _MAC_PRODUCER_ATTRS:
                return TaintVal(level=MAC)
        if name in _DECLASSIFY_CALLS:
            return ZERO
        if name in _SECRET_PRODUCER_CALLS:
            return TaintVal(level=SECRET)
        if name in _MAC_PRODUCER_CALLS:
            return TaintVal(level=MAC)
        targets = self.graph.call_targets.get(id(node), ())
        known = [t for t in targets if t in self.summaries]
        result = ZERO
        for target in known:
            result = result.join(self._apply_summary(node, target))
        if not known:
            # Unknown callable (builtin, stdlib, unresolved): conservative
            # argument propagation.
            if isinstance(node.func, ast.Attribute):
                return self.taint_of(node.func.value).join(self._arg_taint(node))
            return self._arg_taint(node)
        return result

    def _effective_args(
        self, node: ast.Call, callee: FunctionInfo
    ) -> list[tuple[int, ast.expr]]:
        """Call arguments paired with the callee's parameter indices."""
        pairs: list[tuple[int, ast.expr]] = []
        offset = 0
        if callee.is_method and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            unbound = (  # ClassName.method(instance, ...): args carry self
                isinstance(receiver, ast.Name)
                and receiver.id in self.index.class_by_name
            )
            if not unbound:
                offset = 1
                if not isinstance(receiver, ast.Call):
                    pairs.append((0, receiver))
        for i, arg in enumerate(node.args):
            if not isinstance(arg, ast.Starred):
                pairs.append((i + offset, arg))
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in callee.params:
                pairs.append((callee.params.index(kw.arg), kw.value))
        return pairs

    def _apply_summary(self, node: ast.Call, target: str) -> TaintVal:
        summary = self.summaries[target]
        callee = self.index.functions[target]
        ret = summary.ret
        result = ZERO
        if ret.level > CLEAN or ret.attrs:
            result = TaintVal(
                level=ret.level, via_call=True, attrs=ret.attrs
            )
        for idx, arg in self._effective_args(node, callee):
            arg_val = self.taint_of(arg)
            if idx in ret.params and not arg_val.is_bottom:
                result = result.join(replace(arg_val, via_call=True))
            sink = summary.param_sinks.get(idx)
            if sink is not None:
                if arg_val.level == SECRET:
                    self._flag(
                        arg,
                        arg_val,
                        f"{sink} inside {_short(target)}()",
                        across_call=True,
                    )
                for param in arg_val.params:
                    self.summary.param_sinks.setdefault(param, sink)
        return result

    # -- reporting -----------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        key = (rule, getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if key not in self._reported:
            self._reported.add(key)
            self.report(rule, self.fn.path, node, message)

    def _flag(
        self, node: ast.expr, val: TaintVal, what: str, across_call: bool = False
    ) -> bool:
        """Report a secret reaching ``what`` under exactly one of SEC004,
        SEC003 or SEC001; True when ``val`` was a secret."""
        if self.report is None or val.level != SECRET:
            return False
        if val.attrs:
            attr = sorted(val.attrs)[0]
            origin = self.attr_origin.get(attr, "elsewhere")
            rule, message = "SEC004", (
                f"value read from secret-bearing attribute '{attr}' "
                f"(assigned key material at {origin}) flows into {what}; "
                "secrets must never reach an observable sink"
            )
        elif val.via_call or across_call:
            rule, message = "SEC003", (
                f"secret-derived value crosses a call boundary into {what}; "
                f"{_NEVER_SINK}"
            )
        elif what == _EXCEPTION:  # purely local flow from here on
            rule, message = "SEC001", (
                "secret-derived value interpolated into an exception; "
                "tracebacks land in logs and CI output"
            )
        else:
            rule, message = "SEC001", (
                f"secret-derived value flows into {what}; {_NEVER_SINK}"
            )
        self._emit(rule, node, message)
        return True

    def _check_sink_call(self, node: ast.Call) -> None:
        for value, what in observable_sinks(node, self.aliases):
            val = self.taint_of(value)
            self._flag(value, val, what)
            for param in val.params:
                self.summary.param_sinks.setdefault(param, what)

    def _check_compare(self, node: ast.Compare) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in [node.left, *node.comparators]:
            level = self.taint_of(operand).level
            if level >= MAC:
                self._emit(
                    "SEC002",
                    node,
                    f"{_CLASS_NAMES[level]} value compared with ==/!=, which "
                    "short-circuits on the first differing byte; use "
                    "repro.crypto.hmac_kdf.ct_equal",
                )
                return

    def _check_raise(self, node: ast.Raise) -> None:
        for target in (node.exc, node.cause):
            if target is None:
                continue
            flagged = False  # one leak, one finding: the outermost expression
            for sub in ast.walk(target):
                if isinstance(sub, ast.expr):
                    val = self.taint_of(sub)
                    if not flagged:
                        flagged = self._flag(sub, val, _EXCEPTION)
                    for param in val.params:
                        self.summary.param_sinks.setdefault(param, _EXCEPTION)

    # -- statement walk ------------------------------------------------------
    def _assign_name(self, target: ast.expr, val: TaintVal) -> None:
        if isinstance(target, ast.Name):
            if val.is_bottom:
                self.env.pop(target.id, None)
            else:
                self.env[target.id] = val
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_name(elt, val)
        elif isinstance(target, ast.Starred):
            self._assign_name(target.value, val)
        elif isinstance(target, ast.Attribute):
            if val.level > CLEAN:
                prev = self.summary.attr_writes.get(target.attr, CLEAN)
                self.summary.attr_writes[target.attr] = max(prev, val.level)
                self.summary.attr_sites.setdefault(
                    target.attr,
                    f"{self.fn.path}:{getattr(target, 'lineno', 0)}",
                )

    def _check_exprs(self, stmt: ast.AST) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._check_sink_call(node)
                self._call_taint(node)  # summary application side effects
            elif isinstance(node, ast.Yield) and node.value is not None:
                self.summary.ret = self.summary.ret.join(self.taint_of(node.value))
            elif isinstance(node, ast.Compare) and self.report is not None:
                self._check_compare(node)
        if isinstance(stmt, ast.Raise):
            self._check_raise(stmt)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self.summary.ret = self.summary.ret.join(self.taint_of(stmt.value))

    def _sweep(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes are separate graph nodes
            if isinstance(stmt, ast.If):
                if self.report is not None:
                    self._check_exprs(stmt.test)
                before = dict(self.env)
                self._sweep(stmt.body)
                after_body = self.env
                self.env = dict(before)
                self._sweep(stmt.orelse)
                for var, val in after_body.items():
                    self.env[var] = self.env.get(var, ZERO).join(val)
                continue
            if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                if not isinstance(stmt, ast.While):
                    self._assign_name(stmt.target, self.taint_of(stmt.iter))
                elif self.report is not None:
                    self._check_exprs(stmt.test)
                # Sweep twice so taint assigned late in the body reaches
                # sinks earlier in it on the second iteration.
                self._sweep(stmt.body)
                self._sweep(stmt.body)
                self._sweep(stmt.orelse)
                continue
            if isinstance(stmt, ast.Try):
                self._sweep(stmt.body)
                for handler in stmt.handlers:
                    self._sweep(handler.body)
                self._sweep(stmt.orelse)
                self._sweep(stmt.finalbody)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._check_exprs(stmt)
                self._sweep(stmt.body)
                continue
            self._check_exprs(stmt)
            if isinstance(stmt, ast.Assign):
                val = self.taint_of(stmt.value)
                for target in stmt.targets:
                    self._assign_name(target, val)
                self._record_const(stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._assign_name(stmt.target, self.taint_of(stmt.value))
                self._record_const([stmt.target], stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                val = self.taint_of(stmt.target).join(self.taint_of(stmt.value))
                self._assign_name(stmt.target, val)

    def _record_const(self, targets: list[ast.expr], value: ast.expr) -> None:
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        labels = label_candidates(value, self.consts)
        if labels:
            finished = [b"finished" in lb for lb in labels]
            if all(finished):
                self.consts[targets[0].id] = b"finished"
            elif not any(finished):
                self.consts[targets[0].id] = labels[0]


class SecretFlowAnalysis:
    """Fixpoint driver: summaries, attribute discovery, reporting sweep."""

    #: bound on attribute-discovery rounds (attr-of-attr chains are rare)
    MAX_ATTR_ROUNDS = 3
    #: bound on iterations within one SCC (the lattice is tiny)
    MAX_SCC_ITERATIONS = 10

    def __init__(self, index: ProgramIndex, graph: CallGraph) -> None:
        self.index = index
        self.graph = graph

    def analyze(self, contexts) -> list[tuple[str, str, ast.AST, str]]:
        """(rule, path, node, message) tuples for SEC001-SEC004."""
        secret_attrs: frozenset[str] = frozenset()
        attr_origin: dict[str, str] = {}
        summaries: dict[str, Summary] = {}
        for _ in range(self.MAX_ATTR_ROUNDS):
            summaries = self.compute_summaries(secret_attrs)
            discovered = set(secret_attrs)
            for qualname in sorted(summaries):
                summary = summaries[qualname]
                for attr, level in sorted(summary.attr_writes.items()):
                    if level == SECRET and attr not in SECRET_NAMES:
                        discovered.add(attr)
                        attr_origin.setdefault(attr, summary.attr_sites[attr])
            if frozenset(discovered) == secret_attrs:
                break
            secret_attrs = frozenset(discovered)

        findings: list[tuple[str, str, ast.AST, str]] = []

        def collect(rule: str, path: str, node: ast.AST, message: str) -> None:
            findings.append((rule, path, node, message))

        scopes = [self.index.functions[q] for q in sorted(self.index.functions)]
        # Module-level statements too (metrics registrations and the like):
        # a module body sweeps like a parameterless function.
        for ctx in contexts:
            module = self.index.module_of_path.get(ctx.path)
            if module is not None:
                scopes.append(
                    FunctionInfo(
                        qualname=module,
                        module=module,
                        path=ctx.path,
                        name="<module>",
                        class_name=None,
                        node=ctx.tree,
                    )
                )
        for fn in scopes:
            _InterFunction(
                fn,
                self.index,
                self.graph,
                summaries,
                secret_attrs,
                attr_origin,
                report=collect,
            ).run()
        return findings

    def compute_summaries(
        self, secret_attrs: frozenset[str]
    ) -> dict[str, Summary]:
        summaries: dict[str, Summary] = {}
        for scc in self.graph.sccs():
            members = [q for q in scc if q in self.index.functions]
            for _ in range(self.MAX_SCC_ITERATIONS):
                changed = False
                for qualname in members:
                    fn = self.index.functions[qualname]
                    new = _InterFunction(
                        fn, self.index, self.graph, summaries, secret_attrs
                    ).run()
                    if new != summaries.get(qualname):
                        summaries[qualname] = new
                        changed = True
                if not changed:
                    break
        return summaries


def secretflow_findings(pctx: ProgramContext) -> list[tuple[str, str, ast.AST, str]]:
    """The secret-flow pass all four SEC rules share."""
    index, graph = pctx.program()
    return SecretFlowAnalysis(index, graph).analyze(pctx.contexts)


class _SecretFlowRule(Rule):
    program_pass = secretflow_findings


#: The protocol stacks, where key material lives and is compared.
_STACKS = Scope(product=True, within=("hip", "tls"))
#: Product modules minus the crypto primitives (they *are* the
#: implementation, with no observable sinks) and this analysis package.
_PROGRAM = Scope(product=True, outside=("crypto", "analysis"))


@register
class SecretSinkChecker(_SecretFlowRule):
    """A secret that reaches the recorder, a metric, an exception message or
    an unencrypted packet parameter is permanently disclosed — replay files
    and CI artifacts outlive any key rotation."""

    rule = "SEC001"
    description = (
        "key material (DH secret, KEYMAT, premaster, session key) must not "
        "reach an observable sink (recorder, metrics, exceptions, plaintext "
        "packet parameters)"
    )
    scope = _STACKS


@register
class NonConstantTimeCompareChecker(_SecretFlowRule):
    """``==`` on secret-derived bytes short-circuits at the first differing
    byte; an attacker measuring response times can forge a MAC one byte at
    a time.  All such comparisons go through ``ct_equal``."""

    rule = "SEC002"
    description = (
        "secret- or MAC-derived bytes compared with ==/!= instead of the "
        "constant-time helper ct_equal"
    )
    scope = _STACKS


@register
class InterproceduralSecretEscapeChecker(_SecretFlowRule):
    """key material crossing a call boundary into a log, metric, exception or packet field"""

    rule = "SEC003"
    description = (
        "secret crossing a call boundary (returned from a producer through "
        "helpers, or passed into a function that sinks it) reaches an "
        "observable sink"
    )
    scope = _PROGRAM


@register
class SecretAttributeEscapeChecker(_SecretFlowRule):
    """secret parked in an innocuously-named attribute, read back and leaked elsewhere"""

    rule = "SEC004"
    description = (
        "attribute assigned secret material (under a name SECRET_NAMES does "
        "not list) is read in another function and flows into an observable "
        "sink"
    )
    scope = _PROGRAM
