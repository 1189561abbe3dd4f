"""Whole-program call graph tests (repro.analysis.callgraph).

Small in-memory programs exercise every resolution strategy the graph
uses — direct calls, aliased imports, self/super method resolution through
the MRO, opaque-receiver CHA, callback references — plus the traversal
the PERF pass depends on (hot reachability with root provenance).
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.base import ModuleContext
from repro.analysis.callgraph import build_program, module_name_of
from repro.analysis.perf import hot_reachable


def program(*modules):
    """Build (index, graph) from (path, source) pairs."""
    ctxs = [
        ModuleContext(path=path, source=textwrap.dedent(src),
                      tree=ast.parse(textwrap.dedent(src)))
        for path, src in modules
    ]
    return build_program(ctxs)


# ------------------------------------------------------------- module names --


def test_module_name_of_package_paths():
    assert module_name_of("src/repro/net/tcp.py") == "repro.net.tcp"
    assert module_name_of("src/repro/__init__.py") == "repro"
    assert module_name_of("tests/test_tcp.py") is None


# ---------------------------------------------------------------- resolution --


def test_direct_module_function_call():
    _, graph = program(("src/repro/m.py", """
        def callee():
            pass

        def caller():
            callee()
    """))
    assert "repro.m.callee" in graph.edges["repro.m.caller"]


def test_cross_module_aliased_import():
    _, graph = program(
        ("src/repro/a.py", """
            def parse(data):
                pass
        """),
        ("src/repro/b.py", """
            from repro.a import parse as parse_wire

            def run():
                parse_wire(b"")
        """),
    )
    assert "repro.a.parse" in graph.edges["repro.b.run"]


def test_self_method_resolves_through_mro():
    _, graph = program(("src/repro/m.py", """
        class Base:
            def step(self):
                pass

        class Derived(Base):
            def run(self):
                self.step()
    """))
    assert "repro.m.Base.step" in graph.edges["repro.m.Derived.run"]


def test_self_method_prefers_override():
    _, graph = program(("src/repro/m.py", """
        class Base:
            def step(self):
                pass

        class Derived(Base):
            def step(self):
                pass

            def run(self):
                self.step()
    """))
    callees = graph.edges["repro.m.Derived.run"]
    assert "repro.m.Derived.step" in callees


def test_opaque_receiver_uses_cha():
    """A call through an untyped receiver fans out to every same-named
    method — the conservative CHA fallback."""
    _, graph = program(("src/repro/m.py", """
        class A:
            def handle(self):
                pass

        class B:
            def handle(self):
                pass

        def dispatch(obj):
            obj.handle()
    """))
    callees = set(graph.edges["repro.m.dispatch"])
    assert {"repro.m.A.handle", "repro.m.B.handle"} <= callees


def test_callback_reference_argument_counts_as_edge():
    _, graph = program(("src/repro/m.py", """
        def on_done():
            pass

        def schedule(cb):
            pass

        def arm():
            schedule(on_done)
    """))
    assert "repro.m.on_done" in graph.edges["repro.m.arm"]


def test_nested_def_is_reached_by_its_definer():
    _, graph = program(("src/repro/m.py", """
        def outer():
            def inner():
                pass
            return inner
    """))
    assert "repro.m.outer.inner" in graph.edges["repro.m.outer"]


def test_call_targets_maps_individual_call_sites():
    source = textwrap.dedent("""
        def callee():
            pass

        def caller():
            callee()
    """)
    ctx = ModuleContext(path="src/repro/m.py", source=source,
                        tree=ast.parse(source))
    _, graph = build_program([ctx])
    calls = [n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call)]
    assert len(calls) == 1
    assert graph.call_targets[id(calls[0])] == ("repro.m.callee",)


# ----------------------------------------------------------------- traversal --


def test_reachable_reports_root_provenance():
    # The one BFS over the graph is the PERF pass's hot closure; its roots
    # are perf.ROOTS, so the fixture names one of them.
    index, graph = program(("src/repro/m.py", """
        class Serializer:
            def send(self):
                self.helper()

            def helper(self):
                leaf()

        def leaf():
            pass

        def unrelated():
            pass
    """))
    reached = hot_reachable(index, graph)
    assert reached["repro.m.Serializer.send"] == "Serializer.send"
    assert reached["repro.m.Serializer.helper"] == "Serializer.send"
    assert reached["repro.m.leaf"] == "Serializer.send"
    assert "repro.m.unrelated" not in reached
