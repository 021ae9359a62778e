"""Tests for the selector implementations and pipeline evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cg.graph import CallGraph, NodeMeta
from repro.core.pipeline import PipelineBuilder, run_spec
from repro.core.selectors.base import AllSelector, EvalContext, Selector
from repro.core.selectors.callpath import CallPath, OnCallPathTo
from repro.core.selectors.coarse import Coarse
from repro.core.selectors.combinators import Join, Subtract
from repro.core.selectors.metrics import MetricThreshold
from repro.core.selectors.structural import ByName
from repro.core.spec.modules import load_spec
from repro.errors import SpecSemanticError


def sample_graph() -> CallGraph:
    g = CallGraph()
    defs = {
        "main": NodeMeta(statements=5, has_body=True),
        "solve": NodeMeta(statements=10, has_body=True),
        "wrapper": NodeMeta(statements=2, has_body=True),
        "kernel": NodeMeta(statements=20, flops=50, loop_depth=2, has_body=True),
        "tiny": NodeMeta(statements=1, inline_marked=True, has_body=True),
        "std_sort": NodeMeta(statements=3, in_system_header=True, has_body=True),
        "MPI_Allreduce": NodeMeta(statements=1, in_system_header=True, is_mpi=True, has_body=True),
        "comm": NodeMeta(statements=4, has_body=True),
    }
    for name, meta in defs.items():
        g.add_node(name, meta)
    g.add_edge("main", "solve")
    g.add_edge("solve", "wrapper")
    g.add_edge("wrapper", "kernel")
    g.add_edge("kernel", "tiny")
    g.add_edge("kernel", "std_sort")
    g.add_edge("main", "comm")
    g.add_edge("comm", "MPI_Allreduce")
    return g


class TestCombinators:
    def test_join_union(self):
        g = sample_graph()
        sel = Join(ByName("main", AllSelector()), ByName("solve", AllSelector()))
        assert sel.evaluate(g) == {"main", "solve"}

    def test_subtract(self):
        g = sample_graph()
        sel = Subtract(AllSelector(), ByName("main", AllSelector()))
        assert "main" not in sel.evaluate(g)
        assert "solve" in sel.evaluate(g)

    def test_metric_threshold(self):
        g = sample_graph()
        sel = MetricThreshold("flops", ">=", 10, AllSelector())
        assert sel.evaluate(g) == {"kernel"}

    def test_unknown_metric_rejected(self):
        with pytest.raises(SpecSemanticError):
            MetricThreshold("bogus", ">=", 1, AllSelector())

    def test_bad_operator_rejected(self):
        with pytest.raises(SpecSemanticError):
            MetricThreshold("flops", "~=", 1, AllSelector())


class TestCallPathSelectors:
    def test_on_call_path_to(self):
        g = sample_graph()
        sel = OnCallPathTo(ByName("kernel", AllSelector()))
        assert sel.evaluate(g) == {"kernel", "wrapper", "solve", "main"}

    def test_call_path_between(self):
        g = sample_graph()
        sel = CallPath(
            ByName("main", AllSelector()), ByName("MPI_.*", AllSelector())
        )
        assert sel.evaluate(g) == {"main", "comm", "MPI_Allreduce"}


class TestCoarse:
    def test_single_caller_chain_collapses(self):
        g = sample_graph()
        base = OnCallPathTo(ByName("kernel", AllSelector()))
        coarse = Coarse(base)
        result = coarse.evaluate(g)
        # solve, wrapper, kernel all have unique callers -> collapsed
        assert result == {"main"}

    def test_critical_functions_retained(self):
        g = sample_graph()
        base = OnCallPathTo(ByName("kernel", AllSelector()))
        coarse = Coarse(base, critical=ByName("kernel", AllSelector()))
        assert coarse.evaluate(g) == {"main", "kernel"}

    def test_multi_caller_nodes_survive(self):
        g = sample_graph()
        g.add_edge("main", "kernel")  # kernel now has two callers
        base = OnCallPathTo(ByName("kernel", AllSelector()))
        assert "kernel" in Coarse(base).evaluate(g)

    def test_coarse_is_subset_of_input(self):
        g = sample_graph()
        base = AllSelector()
        assert Coarse(base).evaluate(g) <= base.evaluate(g)

    def test_rootless_cycle_components_are_swept(self):
        # regression: the old top-down BFS started only from
        # zero-in-degree roots, so components with no such node
        # (top-level call cycles) were never visited and their
        # single-caller pass-throughs never collapsed
        g = CallGraph()
        for name in ("main", "solve", "a", "b", "c", "helper", "leaf"):
            g.add_node(name, NodeMeta(statements=1, has_body=True))
        g.add_edge("main", "solve")
        # 3-cycle with no entry from the rooted part: a -> b -> c -> a,
        # plus a -> c so c keeps two callers inside the cycle
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        g.add_edge("a", "c")
        g.add_edge("c", "helper")
        g.add_edge("helper", "leaf")
        result = Coarse(AllSelector()).evaluate(g)
        # pass-throughs below and inside the cycle collapse now
        assert "helper" not in result and "leaf" not in result
        assert "a" not in result and "b" not in result
        # multi-caller cycle member and the rooted part behave as before
        assert "c" in result and "main" in result
        assert "solve" not in result  # single caller under main, as before

    def test_rootless_cycle_critical_functions_retained(self):
        g = CallGraph()
        for name in ("x", "y", "helper"):
            g.add_node(name, NodeMeta(statements=1, has_body=True))
        g.add_edge("x", "y")
        g.add_edge("y", "x")
        g.add_edge("y", "helper")
        sel = Coarse(AllSelector(), critical=ByName("helper", AllSelector()))
        assert "helper" in sel.evaluate(g)


class TestPipeline:
    def test_paper_listing_semantics(self):
        g = sample_graph()
        spec = load_spec(
            """
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", 10, loopDepth(">=" 1, %%))
subtract(onCallPathTo(%kernels), %excluded)
"""
        )
        result = run_spec(spec, g)
        assert result.selected == frozenset({"kernel", "wrapper", "solve", "main"})
        assert result.duration_seconds >= 0
        assert result.graph_size == len(g)

    def test_bundled_mpi_module(self):
        g = sample_graph()
        spec = load_spec('!import("mpi.capi")\n%mpi_comm')
        result = run_spec(spec, g)
        assert result.selected == frozenset({"main", "comm", "MPI_Allreduce"})

    def test_undefined_reference_rejected(self):
        spec = load_spec("join(%ghost, %%)", search_paths=[])
        with pytest.raises(SpecSemanticError, match="ghost"):
            PipelineBuilder().build(spec)

    def test_redefinition_rejected(self):
        spec = load_spec("a = inSystemHeader(%%)\na = inlineSpecified(%%)")
        with pytest.raises(SpecSemanticError, match="redefined"):
            PipelineBuilder().build(spec)

    def test_unknown_selector_rejected(self):
        spec = load_spec("frobnicate(%%)")
        with pytest.raises(SpecSemanticError, match="frobnicate"):
            PipelineBuilder().build(spec)

    def test_wrong_arity_rejected(self):
        spec = load_spec("join(%%)")
        with pytest.raises(SpecSemanticError):
            PipelineBuilder().build(spec)

    def test_wrong_argument_type_rejected(self):
        spec = load_spec('inSystemHeader("oops")')
        with pytest.raises(SpecSemanticError):
            PipelineBuilder().build(spec)

    def test_named_instances_cached(self):
        g = sample_graph()
        spec = load_spec(
            "shared = onCallPathTo(flops(\">=\", 10, %%))\n"
            "join(%shared, %shared)"
        )
        result = run_spec(spec, g)
        # the shared instance appears once in the evaluation trace
        shared_evals = [t for t in result.trace if t[0] == "%shared"]
        assert len(shared_evals) == 1


names = st.sampled_from(
    ["main", "solve", "wrapper", "kernel", "tiny", "std_sort", "comm"]
)


@settings(max_examples=40)
@given(a=st.sets(names), b=st.sets(names))
def test_join_subtract_algebra(a, b):
    """Property: join/subtract obey set algebra on arbitrary selections."""
    g = sample_graph()

    class Fixed(Selector):
        def __init__(self, s):
            self.s = s

        def select_ids(self, ctx):
            return ctx.graph.names_to_ids(self.s)

        def describe(self):
            return "fixed"

    ctx = EvalContext(g)
    sa, sb = Fixed(a), Fixed(b)
    assert ctx.evaluate(Join(sa, sb)) == a | b
    ctx2 = EvalContext(g)
    assert ctx2.evaluate(Subtract(sa, sb)) == a - b
    ctx3 = EvalContext(g)
    assert ctx3.evaluate(Join(sb, sa)) == ctx3.evaluate(Join(sa, sb))
