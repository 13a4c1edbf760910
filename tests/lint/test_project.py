"""The whole-program layer: symbol table, call graph, reachability."""

import ast
import os
import textwrap

from repro.lint.dataflow import ReachAnalysis, async_functions, display_name
from repro.lint.project import build_project


def make_project(sources):
    """Build a ProjectContext from ``{dotted.module: source}``."""
    parsed = []
    for module, source in sources.items():
        src = textwrap.dedent(source)
        path = module.replace(".", os.sep) + ".py"
        parsed.append((path, src, ast.parse(src), module))
    return build_project(parsed)


CHAIN = {
    "repro.alpha": """
        import time

        def leaf():
            time.sleep(1)

        def mid():
            leaf()

        def clean(x):
            return x + 1
        """,
    "repro.beta": """
        import repro.alpha as alpha

        def helper():
            alpha.mid()
        """,
}

CLASSES = {
    "repro.gamma": """
        class Base:
            def shared(self):
                return 1

        class Impl(Base):
            def run(self):
                return self.shared()
        """,
    "repro.delta": """
        from repro.gamma import Impl

        def boot():
            worker = Impl()
            return worker.run()
        """,
}


# ------------------------------------------------------------ symbol table


def test_functions_indexed_by_qualname():
    project = make_project(CHAIN)
    assert "repro.alpha.leaf" in project.functions
    assert "repro.beta.helper" in project.functions
    assert project.functions["repro.alpha.leaf"].short_name == "leaf"


def test_resolve_bare_name_to_module_function():
    project = make_project(CHAIN)
    mod = project.module_by_name("repro.alpha")
    assert project.resolve_name(mod, "leaf") == "repro.alpha.leaf"


def test_resolve_from_import_to_project_function():
    project = make_project(
        {
            "repro.one": "def f():\n    return 1\n",
            "repro.two": "from repro.one import f\n\ndef g():\n    return f()\n",
        }
    )
    mod = project.module_by_name("repro.two")
    assert project.resolve_name(mod, "f") == "repro.one.f"


def test_resolve_from_import_of_external_member():
    project = make_project(
        {"repro.one": "from json import dumps\n\ndef f(x):\n    return dumps(x)\n"}
    )
    mod = project.module_by_name("repro.one")
    assert project.resolve_name(mod, "dumps") == "json.dumps"


def test_method_resolution_walks_base_classes():
    project = make_project(CLASSES)
    assert (
        project.method_of("repro.gamma.Impl", "shared")
        == "repro.gamma.Base.shared"
    )
    assert project.method_of("repro.gamma.Impl", "missing") is None


def test_same_stem_modules_get_path_qualified_names():
    # two conftest.py files in different test dirs must stay distinct
    # call-graph nodes, and dotted lookup must refuse to guess.
    src_a = "def fixture_a():\n    return 1\n"
    src_b = "def fixture_b():\n    return 2\n"
    project = build_project(
        [
            ("tests/a/conftest.py", src_a, ast.parse(src_a), "conftest"),
            ("tests/b/conftest.py", src_b, ast.parse(src_b), "conftest"),
        ]
    )
    assert project.module_by_name("conftest") is None
    assert "tests/a/conftest.py:fixture_a" in project.functions
    assert "tests/b/conftest.py:fixture_b" in project.functions
    assert (
        display_name("tests/a/conftest.py:fixture_a", project) == "fixture_a"
    )


# -------------------------------------------------------------- call graph


def test_bare_and_module_alias_calls_become_edges():
    project = make_project(CHAIN)
    graph = project.graph
    assert [s.callee for s in graph.calls_from("repro.alpha.mid")] == [
        "repro.alpha.leaf"
    ]
    assert [s.callee for s in graph.calls_from("repro.beta.helper")] == [
        "repro.alpha.mid"
    ]
    assert [s.callee for s in graph.calls_from("repro.alpha.leaf")] == [
        "time.sleep"
    ]


def test_self_method_call_resolves_through_bases():
    project = make_project(CLASSES)
    callees = [
        s.callee for s in project.graph.calls_from("repro.gamma.Impl.run")
    ]
    assert callees == ["repro.gamma.Base.shared"]


def test_constructor_makes_no_edge_and_typed_local_call_resolves():
    project = make_project(CLASSES)
    edges = {
        (s.callee, s.kind)
        for s in project.graph.out_edges["repro.delta.boot"]
    }
    assert edges == {("repro.gamma.Impl.run", "call")}


def test_nested_def_calls_are_not_attributed_to_the_encloser():
    project = make_project(
        {
            "repro.nested": """
            import time

            def outer():
                def inner():
                    time.sleep(1)
                return inner
            """,
        }
    )
    reach = ReachAnalysis(project.graph, {"time.sleep"})
    assert not reach.reaches("repro.nested.outer")


DISPATCH = {
    "repro.workers": """
        import threading
        import time

        def job():
            time.sleep(1)

        def spawn():
            thread = threading.Thread(target=job)
            thread.start()

        def pool(executor):
            executor.submit(job)
        """,
}


def test_thread_target_and_submit_become_ref_edges():
    project = make_project(DISPATCH)
    refs = {(s.caller, s.callee) for s in project.graph.dispatches}
    assert ("repro.workers.spawn", "repro.workers.job") in refs
    assert ("repro.workers.pool", "repro.workers.job") in refs


def test_ref_edges_never_propagate_reachability():
    # handing a blocking callable to a worker is the *fix*, not a path
    project = make_project(DISPATCH)
    reach = ReachAnalysis(project.graph, {"time.sleep"})
    assert reach.reaches("repro.workers.job")
    assert not reach.reaches("repro.workers.spawn")
    assert not reach.reaches("repro.workers.pool")


# ------------------------------------------------------------ reachability


def test_reach_analysis_keeps_a_witness_chain():
    project = make_project(CHAIN)
    reach = ReachAnalysis(project.graph, {"time.sleep"})
    assert reach.reaches("repro.beta.helper")
    assert reach.witness("repro.beta.helper") == [
        "repro.beta.helper",
        "repro.alpha.mid",
        "repro.alpha.leaf",
        "time.sleep",
    ]
    assert reach.path_string("repro.beta.helper") == (
        "beta.helper -> alpha.mid -> alpha.leaf -> time.sleep"
    )


def test_blocked_nodes_terminate_propagation():
    project = make_project(CHAIN)
    reach = ReachAnalysis(
        project.graph, {"time.sleep"}, blocked={"repro.alpha.mid"}
    )
    assert reach.reaches("repro.alpha.leaf")
    assert not reach.reaches("repro.alpha.mid")
    assert not reach.reaches("repro.beta.helper")


def test_function_without_a_path_does_not_reach():
    project = make_project(CHAIN)
    reach = ReachAnalysis(project.graph, {"time.sleep"})
    assert not reach.reaches("repro.alpha.clean")
    assert reach.witness("repro.alpha.clean") == []


# ---------------------------------------------------------------- dataflow


def test_async_functions_are_collected_across_classes():
    project = make_project(
        {
            "repro.svc": """
            async def handle():
                return 1

            class S:
                async def drain(self):
                    return 2

                def sync(self):
                    return 3
            """,
        }
    )
    assert async_functions(project) == {
        "repro.svc.handle",
        "repro.svc.S.drain",
    }
