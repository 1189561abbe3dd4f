"""Protocol state-machine extraction and RFC-conformance checking.

The HIP association machine (RFC 5201 §4.4, simplified — R2-SENT collapses
into ESTABLISHED, FAILED is our addition for exhausted retransmissions) and
the SSL-VPN tunnel machine each live in exactly one module and encode their
states as a StrEnum.  This pass AST-extracts every transition the code can
perform and checks the resulting graph against the declarative tables below:

* a transition's *target* is the second argument of a ``_transition(...)``
  call (or the RHS of a direct ``x.state = Enum.MEMBER`` assignment);
* its *sources* come from the ``expect_from=`` keyword when present (the
  runtime-checked contract for call sites whose guard lives in a caller),
  otherwise from flow-sensitive guard inference inside the enclosing
  function (``if x.state != S: return`` ⇒ afterwards ``state == S``;
  ``while x.state == S:`` ⇒ ``S`` inside the body; ``if not
  x.is_established: return`` ⇒ ``ESTABLISHED`` afterwards).

Rules:

* **CONF001** — the code performs a transition the spec table does not
  allow (or one whose source state cannot be determined statically; add
  ``expect_from=`` to make it checkable).
* **CONF002** — a spec transition has no handler: the extracted graph is
  missing an edge the RFC table requires, i.e. dead spec.
* **CONF003** — a state appears as a bare string literal (or an unknown
  enum member) instead of a canonical StrEnum member; literals outside the
  canonical value set are typos the type checker cannot catch.

The spec tables deliberately duplicate the enum values; a unit test
cross-checks them against the live enums so they cannot drift.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.base import ModuleContext, Rule, Scope, path_parts, register

# ------------------------------------------------------------------ specs --


@dataclass(frozen=True)
class MachineSpec:
    """Declarative transition table for one protocol state machine."""

    name: str  # human-readable machine name
    module_suffix: tuple[str, ...]  # path suffix of the defining module
    enum_name: str  # the StrEnum class holding the states
    initial: str  # member name of the initial state
    members: tuple[tuple[str, str], ...]  # (member name, wire value)
    edges: frozenset[tuple[str, str]]  # (from member, to member)
    aliases: tuple[tuple[str, str], ...] = ()  # property name -> member

    @property
    def member_names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.members)

    @property
    def value_to_member(self) -> dict[str, str]:
        return {value: name for name, value in self.members}

    @property
    def alias_map(self) -> dict[str, str]:
        return dict(self.aliases)


#: RFC 5201 §4.4.2 base-exchange machine plus CLOSE/CLOSE_ACK teardown
#: (§5.3.6-§5.3.8).  UNASSOCIATED→ESTABLISHED is the responder completing
#: on a valid I2 (R2-SENT collapsed); FAILED models exhausted
#: retransmissions, the simulator's stand-in for E-FAILED.
HIP_SPEC = MachineSpec(
    name="HIP association",
    module_suffix=("hip", "daemon.py"),
    enum_name="HipState",
    initial="UNASSOCIATED",
    members=(
        ("UNASSOCIATED", "UNASSOCIATED"),
        ("I1_SENT", "I1-SENT"),
        ("I2_SENT", "I2-SENT"),
        ("ESTABLISHED", "ESTABLISHED"),
        ("CLOSING", "CLOSING"),
        ("CLOSED", "CLOSED"),
        ("FAILED", "FAILED"),
    ),
    edges=frozenset(
        {
            ("UNASSOCIATED", "I1_SENT"),  # start BEX as initiator
            ("UNASSOCIATED", "ESTABLISHED"),  # responder accepts I2
            ("UNASSOCIATED", "FAILED"),  # no locator / policy denial
            ("I1_SENT", "I2_SENT"),  # R1 received, I2 sent
            ("I1_SENT", "FAILED"),  # I1 retransmissions exhausted
            ("I2_SENT", "ESTABLISHED"),  # R2 received
            ("I2_SENT", "FAILED"),  # I2 retransmissions exhausted
            ("ESTABLISHED", "CLOSING"),  # we sent CLOSE
            ("ESTABLISHED", "CLOSED"),  # peer's CLOSE acknowledged
            ("CLOSING", "CLOSED"),  # CLOSE_ACK received (or crossed CLOSE)
        }
    ),
    aliases=(("is_established", "ESTABLISHED"),),
)

#: The OpenVPN-style tunnel handshake.  ESTABLISHED→ESTABLISHED is the
#: server idempotently re-deriving keys on a retransmitted key message.
VPN_SPEC = MachineSpec(
    name="SSL-VPN tunnel",
    module_suffix=("tls", "vpn.py"),
    enum_name="TunnelState",
    initial="NEW",
    members=(
        ("NEW", "NEW"),
        ("HELLO_SENT", "HELLO-SENT"),
        ("ESTABLISHED", "ESTABLISHED"),
        ("FAILED", "FAILED"),
    ),
    edges=frozenset(
        {
            ("NEW", "HELLO_SENT"),  # client sends hello
            ("NEW", "ESTABLISHED"),  # server accepts key message
            ("NEW", "FAILED"),  # unknown peer / no locator
            ("HELLO_SENT", "ESTABLISHED"),  # finished verified (client)
            ("HELLO_SENT", "FAILED"),  # retransmissions exhausted
            ("ESTABLISHED", "ESTABLISHED"),  # retransmitted key message
            ("ESTABLISHED", "FAILED"),  # locator lost mid-session
        }
    ),
    aliases=(("is_established", "ESTABLISHED"),),
)

SPECS: tuple[MachineSpec, ...] = (HIP_SPEC, VPN_SPEC)


def spec_for(path: str) -> MachineSpec | None:
    parts = path_parts(path)
    for spec in SPECS:
        if parts[-len(spec.module_suffix):] == spec.module_suffix:
            return spec
    return None


# ------------------------------------------------------------- extraction --


@dataclass
class ExtractedMachine:
    """Everything one module's AST says about its state machine."""

    spec: MachineSpec
    edges: dict[tuple[str, str], ast.AST] = field(default_factory=dict)
    unknown_sources: list[tuple[ast.AST, str]] = field(default_factory=list)
    bad_literals: list[tuple[ast.AST, str]] = field(default_factory=list)
    bad_members: list[tuple[ast.AST, str]] = field(default_factory=list)
    bad_initials: list[tuple[ast.AST, str]] = field(default_factory=list)
    enum_def: ast.AST | None = None

    def add_edge(self, frm: str, to: str, node: ast.AST) -> None:
        self.edges.setdefault((frm, to), node)


def _state_var(node: ast.expr) -> str | None:
    """``assoc.state`` → ``"assoc"`` (only Name bases are trackable)."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "state"
        and isinstance(node.value, ast.Name)
    ):
        return node.value.id
    return None


def _alias_var(node: ast.expr, spec: MachineSpec) -> tuple[str, str] | None:
    """``tunnel.is_established`` → ``("tunnel", "ESTABLISHED")``."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in spec.alias_map
        and isinstance(node.value, ast.Name)
    ):
        return node.value.id, spec.alias_map[node.attr]
    return None


class _Extractor:
    """One pass over a machine module: transitions, guards, literals."""

    def __init__(self, spec: MachineSpec, tree: ast.Module) -> None:
        self.spec = spec
        self.out = ExtractedMachine(spec=spec)
        self._extract(tree)

    # -- state expressions ---------------------------------------------------
    def _member_of(self, node: ast.expr) -> str | None:
        """Resolve a state expression to a canonical member name.

        Enum attributes resolve directly; bare string literals resolve via
        the value table but are *always* recorded for CONF003.  Unknown
        members/values resolve to None.
        """
        spec = self.spec
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == spec.enum_name
        ):
            if node.attr in spec.member_names:
                return node.attr
            self.out.bad_members.append((node, node.attr))
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.out.bad_literals.append((node, node.value))
            return spec.value_to_member.get(node.value)
        return None

    def _members_of(self, node: ast.expr) -> frozenset[str]:
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        members = frozenset(
            m for m in (self._member_of(elt) for elt in elts) if m is not None
        )
        return members

    # -- guard narrowing -----------------------------------------------------
    def _when_true(self, test: ast.expr) -> dict[str, frozenset[str]]:
        """var → states implied when ``test`` evaluates truthy."""
        facts: dict[str, frozenset[str]] = {}
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                facts.update(self._when_true(value))
            return facts
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._when_false(test.operand)
        alias = _alias_var(test, self.spec)
        if alias is not None:
            return {alias[0]: frozenset({alias[1]})}
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            var = _state_var(test.left)
            if var is not None:
                op = test.ops[0]
                if isinstance(op, ast.Eq):
                    members = self._members_of(test.comparators[0])
                    if members:
                        return {var: members}
                elif isinstance(op, ast.In):
                    members = self._members_of(test.comparators[0])
                    if members:
                        return {var: members}
                elif isinstance(op, (ast.NotEq, ast.NotIn)):
                    # Still resolve the RHS so CONF003 sees its literals.
                    self._members_of(test.comparators[0])
        return facts

    def _when_false(self, test: ast.expr) -> dict[str, frozenset[str]]:
        """var → states implied when ``test`` evaluates falsy."""
        facts: dict[str, frozenset[str]] = {}
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            # The whole Or is false only when every disjunct is false.
            for value in test.values:
                facts.update(self._when_false(value))
            return facts
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._when_true(test.operand)
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            var = _state_var(test.left)
            if var is not None:
                op = test.ops[0]
                if isinstance(op, (ast.NotEq, ast.NotIn)):
                    members = self._members_of(test.comparators[0])
                    if members:
                        return {var: members}
                elif isinstance(op, (ast.Eq, ast.In)):
                    self._members_of(test.comparators[0])
        return facts

    # -- structural walk -----------------------------------------------------
    def _extract(self, tree: ast.Module) -> None:
        for node in tree.body:
            self._extract_stmt(node, {})
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name == self.spec.enum_name
            ):
                self.out.enum_def = node

    def _extract_stmt(self, stmt: ast.stmt, env: dict[str, frozenset[str]]) -> None:
        self._scan_body([stmt], env)

    @staticmethod
    def _terminates(body: list[ast.stmt]) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    @staticmethod
    def _merge(
        env: dict[str, frozenset[str]], facts: dict[str, frozenset[str]]
    ) -> dict[str, frozenset[str]]:
        out = dict(env)
        for var, states in facts.items():
            out[var] = (out[var] & states) or states if var in out else states
        return out

    def _scan_body(
        self, body: list[ast.stmt], env: dict[str, frozenset[str]]
    ) -> None:
        env = dict(env)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_body(stmt.body, {})
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    self._scan_class_stmt(stmt, item)
                self._scan_body(
                    [
                        s
                        for s in stmt.body
                        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    ],
                    {},
                )
            elif isinstance(stmt, ast.If):
                self._resolve_test(stmt.test)
                when_true = self._when_true(stmt.test)
                when_false = self._when_false(stmt.test)
                self._scan_body(stmt.body, self._merge(env, when_true))
                self._scan_body(stmt.orelse, self._merge(env, when_false))
                # `if <guard>: return` narrows everything after the if.
                if self._terminates(stmt.body):
                    env = self._merge(env, when_false)
                if stmt.orelse and self._terminates(stmt.orelse):
                    env = self._merge(env, when_true)
            elif isinstance(stmt, ast.While):
                self._resolve_test(stmt.test)
                self._scan_body(
                    stmt.body, self._merge(env, self._when_true(stmt.test))
                )
                self._scan_body(stmt.orelse, env)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_body(stmt.body, env)
                self._scan_body(stmt.orelse, env)
            elif isinstance(stmt, ast.Try):
                self._scan_body(stmt.body, env)
                for handler in stmt.handlers:
                    self._scan_body(handler.body, env)
                self._scan_body(stmt.orelse, env)
                self._scan_body(stmt.finalbody, env)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._scan_body(stmt.body, env)
            else:
                self._scan_simple(stmt, env)
                # Rebinding a tracked variable invalidates its narrowing.
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            env.pop(target.id, None)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(stmt.target, ast.Name):
                        env.pop(stmt.target.id, None)

    def _scan_class_stmt(self, cls: ast.ClassDef, stmt: ast.stmt) -> None:
        """Dataclass field defaults: the machine's declared initial state."""
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "state"
            and stmt.value is not None
            and cls.name != self.spec.enum_name
        ):
            member = self._member_of(stmt.value)
            if member is not None and member != self.spec.initial:
                self.out.bad_initials.append((stmt, member))

    def _scan_simple(self, stmt: ast.stmt, env: dict[str, frozenset[str]]) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._maybe_transition(node, env)
            elif isinstance(node, ast.Compare):
                self._resolve_compare(node)
            elif isinstance(node, ast.Assign):
                self._maybe_state_assign(node, env)

    def _resolve_test(self, test: ast.expr) -> None:
        for node in ast.walk(test):
            if isinstance(node, ast.Compare):
                self._resolve_compare(node)

    def _resolve_compare(self, node: ast.Compare) -> None:
        """Record CONF003 literals in any ``.state`` comparison, even the
        shapes the guard inference does not consume."""
        operands = [node.left, *node.comparators]
        if any(_state_var(op) is not None for op in operands):
            for op in operands:
                if _state_var(op) is None:
                    self._members_of(op)

    def _maybe_state_assign(
        self, node: ast.Assign, env: dict[str, frozenset[str]]
    ) -> None:
        for target in node.targets:
            var = _state_var(target)
            if var is None:
                continue
            if not isinstance(node.value, (ast.Attribute, ast.Constant)):
                continue  # e.g. `assoc.state = state` inside _transition
            to = self._member_of(node.value)
            if to is None:
                continue
            if var in env:
                for frm in sorted(env[var]):
                    self.out.add_edge(frm, to, node)
            else:
                self.out.unknown_sources.append((node, to))

    def _maybe_transition(
        self, node: ast.Call, env: dict[str, frozenset[str]]
    ) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "_transition"):
            return
        if len(node.args) < 2:
            return
        to = self._member_of(node.args[1])
        if to is None:
            return
        expect_kw = next(
            (kw for kw in node.keywords if kw.arg == "expect_from"), None
        )
        if expect_kw is not None:
            sources = self._members_of(expect_kw.value)
            if not sources:
                self.out.unknown_sources.append((node, to))
                return
        else:
            var = node.args[0].id if isinstance(node.args[0], ast.Name) else None
            if var is None or var not in env:
                self.out.unknown_sources.append((node, to))
                return
            sources = env[var]
        for frm in sorted(sources):
            self.out.add_edge(frm, to, node)


def extract(ctx: ModuleContext) -> ExtractedMachine | None:
    """Extract (and memoise) the state machine of a machine module."""
    if "statemachine" not in ctx.cache:
        spec = spec_for(ctx.path)
        ctx.cache["statemachine"] = (
            None if spec is None else _Extractor(spec, ctx.tree).out
        )
    return ctx.cache["statemachine"]


# ------------------------------------------------------------------ rules --


class _ConformanceChecker(Rule):
    """Shared scope: only the modules that define a protocol machine."""

    scope = Scope(within=tuple("/".join(spec.module_suffix) for spec in SPECS))

    def check(self) -> None:
        extracted = extract(self.ctx)
        if extracted is not None:
            self.check_machine(extracted)

    def check_machine(self, extracted: ExtractedMachine) -> None:
        raise NotImplementedError


@register
class IllegalTransitionChecker(_ConformanceChecker):
    """The paper's security argument assumes the HIP machine moves only
    along RFC 5201/5206 edges; a handler that jumps ESTABLISHED→I1-SENT
    (say) silently re-keys without a base exchange.  Every code transition
    must appear in the declarative spec table, and every transition must be
    statically attributable to source states."""

    rule = "CONF001"
    description = (
        "state transition performed by code but absent from the RFC spec "
        "table (or with statically undeterminable source; add expect_from=)"
    )

    def check_machine(self, extracted: ExtractedMachine) -> None:
        spec = extracted.spec
        for (frm, to), node in sorted(
            extracted.edges.items(), key=lambda item: item[0]
        ):
            if (frm, to) not in spec.edges:
                self.report(
                    node,
                    f"{spec.name} transition {frm} -> {to} is not in the "
                    f"spec table; either the handler is wrong or the table "
                    f"in repro.analysis.statemachine needs a reviewed edge",
                )
        for node, to in extracted.unknown_sources:
            self.report(
                node,
                f"cannot infer the source state of the transition to {to}; "
                "declare it with expect_from=(...) so it is runtime-checked "
                "and statically extractable",
            )
        for node, member in extracted.bad_initials:
            self.report(
                node,
                f"initial state {member} differs from the spec initial "
                f"{spec.initial}",
            )


@register
class MissingTransitionChecker(_ConformanceChecker):
    """The inverse direction: every edge the spec table requires must have
    a handler, otherwise part of the protocol (teardown, failure paths) is
    dead code and the conformance claim is vacuous."""

    rule = "CONF002"
    description = "spec-table transition with no handler in the code"

    def check_machine(self, extracted: ExtractedMachine) -> None:
        spec = extracted.spec
        anchor = extracted.enum_def or self.ctx.tree
        for frm, to in sorted(spec.edges - set(extracted.edges)):
            self.report(
                anchor,
                f"{spec.name} spec transition {frm} -> {to} has no handler "
                "in this module",
            )


@register
class StateLiteralChecker(_ConformanceChecker):
    """States must be spelled as StrEnum members.  A bare literal outside
    the canonical value set is a typo that compares unequal forever; one
    inside the set still bypasses the single point of definition."""

    rule = "CONF003"
    description = (
        "state written as a bare string literal (or unknown enum member) "
        "instead of a canonical StrEnum member"
    )

    @staticmethod
    def _dedup(items: list[tuple[ast.AST, str]]) -> list[tuple[ast.AST, str]]:
        """The extractor may resolve one comparison from both guard
        polarities; report each offending node once."""
        seen: set[tuple[int, int, str]] = set()
        out: list[tuple[ast.AST, str]] = []
        for node, text in items:
            key = (
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                text,
            )
            if key not in seen:
                seen.add(key)
                out.append((node, text))
        return out

    def check_machine(self, extracted: ExtractedMachine) -> None:
        spec = extracted.spec
        known = set(spec.value_to_member)
        for node, literal in self._dedup(extracted.bad_literals):
            if literal in known:
                member = spec.value_to_member[literal]
                self.report(
                    node,
                    f"bare state literal {literal!r}; spell it "
                    f"{spec.enum_name}.{member}",
                )
            else:
                self.report(
                    node,
                    f"state literal {literal!r} is outside the canonical "
                    f"{spec.enum_name} value set",
                )
        for node, member in self._dedup(extracted.bad_members):
            self.report(
                node,
                f"{spec.enum_name}.{member} is not a canonical member",
            )
