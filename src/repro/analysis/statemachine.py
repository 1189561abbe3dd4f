"""State-machine discipline for the two protocol machines (CONF001, CONF003).

The HIP association machine (``hip/daemon.py``) and the SSL-VPN tunnel
machine (``tls/vpn.py``) each keep their legal-edge table beside their
``StrEnum`` and enforce it where the move happens: ``_transition`` raises
the daemon's domain error on any ``(old, new)`` pair the table does not
list.  So there is nothing left to *extract* about which edges the code can
take, only two things to keep out of those modules:

* **CONF001** — a ``.state`` attribute written anywhere but inside
  ``_transition``; going around it brings back the unchecked move.
* **CONF003** — a state spelled as a bare string literal (where it is
  compared with ``.state``, handed to ``_transition`` or given as the
  ``state`` field default), or as a member the module's own ``StrEnum``
  class body does not define: typos no type checker catches.

That every table edge is *live* is checked where it is exact: at runtime,
by ``tests/test_fsm_edges.py`` driving daemon pairs through each of them.
"""

from __future__ import annotations

import ast

from repro.analysis.base import ProgramContext, Rule, Scope, call_name, in_scope, register

_MACHINE_MODULES = Scope(within=("hip/daemon.py", "tls/vpn.py"))


def _is_state(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "state"


def _str_enums(tree: ast.Module) -> dict[str, dict[str, object]]:
    """enum name -> {member: value}, read off the module's own class bodies."""
    return {
        cls.name: {
            target.id: stmt.value.value
            for stmt in cls.body
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and any(call_name(base) == "StrEnum" for base in cls.bases)
    }


def _literal_findings(position: ast.expr, canonical: dict[object, str]):
    """String literals in a state position (one state or a tuple of them)."""
    for elt in getattr(position, "elts", [position]):
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            continue
        if elt.value in canonical:
            yield "CONF003", elt, (
                f"bare state literal {elt.value!r}; spell it {canonical[elt.value]}"
            )
        else:
            yield "CONF003", elt, (
                f"state literal {elt.value!r} is outside the canonical value "
                "set of the module's StrEnum"
            )


def _module_findings(tree: ast.Module):
    """(rule, node, message) for one machine module, in a single walk."""
    enums = _str_enums(tree)
    canonical = {
        value: f"{enum}.{member}"
        for enum, members in enums.items()
        for member, value in members.items()
    }
    checked: set[int] = set()  # nodes inside _transition (the walk is top-down)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_transition":
            checked.update(id(sub) for sub in ast.walk(node))
        elif isinstance(node, ast.Attribute):
            if _is_state(node):
                if not isinstance(node.ctx, ast.Load) and id(node) not in checked:
                    yield "CONF001", node, (
                        "'.state' is written outside _transition; call _transition "
                        "so the move is checked against the edge table and traced"
                    )
            elif isinstance(node.value, ast.Name) and node.value.id in enums:
                if node.attr not in enums[node.value.id] and not node.attr.startswith("_"):
                    yield "CONF003", node, (
                        f"{node.value.id}.{node.attr} is not a canonical member"
                    )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_is_state(op) for op in operands):
                for operand in operands:
                    yield from _literal_findings(operand, canonical)
        elif isinstance(node, ast.Call):
            if call_name(node.func) == "_transition" and len(node.args) >= 2:
                yield from _literal_findings(node.args[1], canonical)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "state" and node.value:
                yield from _literal_findings(node.value, canonical)


def machine_findings(pctx: ProgramContext) -> list[tuple[str, str, ast.AST, str]]:
    """The scan of the machine modules that CONF001/CONF003 share."""
    return [
        (rule, ctx.path, node, message)
        for ctx in pctx.contexts
        if in_scope(_MACHINE_MODULES, ctx.path)
        for rule, node, message in _module_findings(ctx.tree)
    ]


class _MachineChecker(Rule):
    scope = _MACHINE_MODULES
    program_pass = machine_findings


@register
class StateWriteChecker(_MachineChecker):
    """a .state attribute written outside _transition, bypassing the edge table"""

    rule = "CONF001"
    description = (
        "protocol state is written only inside _transition, where the move "
        "is checked against the machine's edge table"
    )


@register
class StateSpellingChecker(_MachineChecker):
    """a state written as a bare string literal or as an undefined enum member"""

    rule = "CONF003"
    description = (
        "state written as a bare string literal (or unknown enum member) "
        "instead of a member of the module's StrEnum"
    )
