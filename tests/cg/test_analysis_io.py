"""Tests for call-graph analyses and JSON round-trip."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cg.analysis import (
    aggregate_statements,
    call_depths_from,
    call_path_between,
    on_call_path_from,
    on_call_path_to,
)
from repro.cg.csr import topo_order
from repro.cg.graph import CallGraph, EdgeReason, NodeMeta
from repro.cg.io import from_dict, load, save, to_dict
from repro.cg.merge import build_whole_program_cg
from repro.errors import CallGraphError
from tests.conftest import make_demo_builder


def chain_graph():
    g = CallGraph()
    for name, stmts in (
        ("main", 2), ("a", 3), ("b", 5), ("kernel", 20), ("other", 7)
    ):
        g.add_node(name, NodeMeta(statements=stmts, has_body=True))
    g.add_edge("main", "a")
    g.add_edge("a", "b")
    g.add_edge("b", "kernel")
    g.add_edge("main", "other")
    return g


class TestCallPaths:
    def test_on_call_path_to(self):
        g = chain_graph()
        assert on_call_path_to(g, ["kernel"]) == {"kernel", "b", "a", "main"}

    def test_on_call_path_from(self):
        g = chain_graph()
        assert on_call_path_from(g, ["a"]) == {"a", "b", "kernel"}

    def test_call_path_between(self):
        g = chain_graph()
        assert call_path_between(g, ["main"], ["kernel"]) == {
            "main", "a", "b", "kernel",
        }
        assert "other" not in call_path_between(g, ["main"], ["kernel"])

    def test_call_depths(self):
        g = chain_graph()
        depths = call_depths_from(g, "main")
        assert depths["main"] == 0
        assert depths["kernel"] == 3

    def test_call_depths_unknown_root(self):
        assert call_depths_from(chain_graph(), "ghost") == {}


class TestStatementAggregation:
    def test_aggregation_along_chain(self):
        g = chain_graph()
        agg = aggregate_statements(g, "main")
        assert agg["main"] == 2
        assert agg["a"] == 5
        assert agg["kernel"] == 30  # 2+3+5+20

    def test_aggregation_takes_max_path(self):
        g = CallGraph()
        for name, stmts in (("main", 1), ("big", 50), ("small", 2), ("leaf", 3)):
            g.add_node(name, NodeMeta(statements=stmts, has_body=True))
        g.add_edge("main", "big")
        g.add_edge("main", "small")
        g.add_edge("big", "leaf")
        g.add_edge("small", "leaf")
        assert aggregate_statements(g, "main")["leaf"] == 54  # via big

    def test_aggregation_handles_cycles(self):
        g = CallGraph()
        for name in ("main", "x", "y"):
            g.add_node(name, NodeMeta(statements=4, has_body=True))
        g.add_edge("main", "x")
        g.add_edge("x", "y")
        g.add_edge("y", "x")  # cycle
        agg = aggregate_statements(g, "main")
        assert agg["x"] == agg["y"] == 12  # each SCC counted once


class TestTopoOrder:
    """Regression: the condensation DP must use an explicit topological
    order, not Tarjan's emission order (an implementation detail)."""

    def diamond_cycle_graph(self):
        # diamond (main -> a|b -> join) feeding a 2-cycle (c1 <-> c2)
        # that exits into a leaf
        g = CallGraph()
        for name, stmts in (
            ("main", 1), ("a", 10), ("b", 20), ("join", 5),
            ("c1", 3), ("c2", 4), ("leaf", 7),
        ):
            g.add_node(name, NodeMeta(statements=stmts, has_body=True))
        g.add_edge("main", "a")
        g.add_edge("main", "b")
        g.add_edge("a", "join")
        g.add_edge("b", "join")
        g.add_edge("join", "c1")
        g.add_edge("c1", "c2")
        g.add_edge("c2", "c1")  # cycle
        g.add_edge("c2", "leaf")
        return g

    def test_diamond_plus_cycle_aggregation(self):
        agg = aggregate_statements(self.diamond_cycle_graph(), "main")
        assert agg["main"] == 1
        assert agg["a"] == 11
        assert agg["b"] == 21
        assert agg["join"] == 26  # max path goes via b
        assert agg["c1"] == agg["c2"] == 33  # SCC counted once: 26 + (3+4)
        assert agg["leaf"] == 40

    def test_topo_order_is_edge_driven(self):
        # component 0 calls component 1: any id-based ordering heuristic
        # (the old "iterate comp ids high to low") would process the
        # callee first; Kahn over the edges must not.
        def kahn(comp_succ):
            rows = [sorted(targets) for targets in comp_succ]
            indptr = np.cumsum([0] + [len(row) for row in rows])
            indices = np.array([t for row in rows for t in row], dtype=np.int32)
            return topo_order(indptr, indices, len(rows))

        assert kahn([{1}, set()]) == [0, 1]
        assert kahn([set(), {0}]) == [1, 0]
        # diamond condensation: 0 -> {1, 2} -> 3
        order = kahn([{1, 2}, {3}, {3}, set()])
        assert order.index(0) < order.index(1)
        assert order.index(0) < order.index(2)
        assert order.index(3) == 3

    def test_interleaved_ids_still_aggregate_correctly(self):
        # force SCC ids that are NOT reverse-topological by adding the
        # deep nodes first, so any emission-order assumption breaks
        g = CallGraph()
        for name in ("leaf", "mid", "main"):
            g.add_node(name, NodeMeta(statements=2, has_body=True))
        g.add_edge("mid", "leaf")
        g.add_edge("main", "mid")
        agg = aggregate_statements(g, "main")
        assert agg == {"main": 2, "mid": 4, "leaf": 6}


class TestJsonRoundTrip:
    def test_roundtrip_preserves_graph(self, tmp_path):
        g = build_whole_program_cg(make_demo_builder().build())
        path = tmp_path / "cg.json"
        save(g, path)
        g2 = load(path)
        assert g2.node_names() == g.node_names()
        assert {(e.caller, e.callee, e.reason) for e in g2.edges()} == {
            (e.caller, e.callee, e.reason) for e in g.edges()
        }
        for node in g.nodes():
            assert g2.node(node.name).meta == node.meta

    def test_missing_header_rejected(self):
        with pytest.raises(CallGraphError):
            from_dict({"_CG": {}})

    def test_dict_shape(self):
        g = chain_graph()
        data = to_dict(g)
        assert "_MetaCG" in data
        assert data["_CG"]["b"]["callees"] == {"kernel": "direct"}
        assert data["_CG"]["kernel"]["meta"]["numStatements"] == 20


def _doc(entries) -> dict:
    return {"_MetaCG": {"version": "2.0-repro"}, "_CG": entries}


class TestMalformedMetaCG:
    """Every garbled shape or field type fails as a ``CallGraphError``."""

    @pytest.mark.parametrize(
        "document, message",
        [
            ([], "MetaCG document must be a JSON object"),
            ({"_MetaCG": []}, "_MetaCG header must be a JSON object"),
            ({"_MetaCG": {}, "_CG": []}, "_CG must be a JSON object"),
            (_doc({"f": 3}), "function 'f' must be a JSON object"),
            (_doc({"f": {"meta": []}}), "function 'f': meta must be"),
            (_doc({"f": {"callees": ["g"]}}), "function 'f': callees must be"),
            (
                _doc({"f": {"callees": {"g": "guessed"}}}),
                "function 'f': unknown edge reason 'guessed'",
            ),
            (
                _doc({"f": {"callees": {"g": 1}}}),
                "function 'f': unknown edge reason 1",
            ),
            (
                _doc({"f": {"meta": {"numFlops": "lots"}}}),
                "function 'f': meta field 'numFlops' must be a non-negative",
            ),
            (
                _doc({"f": {"meta": {"numStatements": -2}}}),
                "meta field 'numStatements' must be a non-negative",
            ),
            (
                _doc({"f": {"meta": {"loopDepth": True}}}),
                "meta field 'loopDepth' must be a non-negative",
            ),
            (
                _doc({"f": {"meta": {"hasBody": 1}}}),
                "meta field 'hasBody' must be a boolean",
            ),
            (
                _doc({"f": {"meta": {"tu": None}}}),
                "meta field 'tu' must be a string",
            ),
        ],
    )
    def test_rejected_with_function_named(self, document, message):
        with pytest.raises(CallGraphError, match=message):
            from_dict(document)

    def test_empty_header_is_a_header(self):
        assert len(from_dict({"_MetaCG": {}})) == 0

    @pytest.mark.parametrize(
        "payload",
        [b"{not json", b'{"_MetaCG": {', b"\xff\xfe\x00garbage", b"[" * 100_000],
    )
    def test_undecodable_file_is_typed(self, tmp_path, payload):
        path = tmp_path / "cg.json"
        path.write_bytes(payload)
        with pytest.raises(CallGraphError, match="cg.json"):
            load(path)


_NAMES = st.sampled_from(["main", "a", "b", "c", "MPI_Send", "f<int>", "ünï"])
_TEXT = st.text(max_size=8)


@st.composite
def metacg_graphs(draw) -> CallGraph:
    graph = CallGraph()
    for name in draw(st.lists(_NAMES, min_size=1, unique=True)):
        graph.add_node(
            name,
            NodeMeta(
                statements=draw(st.integers(0, 2**40)),
                flops=draw(st.integers(0, 500)),
                loop_depth=draw(st.integers(0, 4)),
                inline_marked=draw(st.booleans()),
                in_system_header=draw(st.booleans()),
                is_virtual=draw(st.booleans()),
                is_mpi=draw(st.booleans()),
                is_static_initializer=draw(st.booleans()),
                has_body=draw(st.booleans()),
                source_path=draw(_TEXT),
                tu=draw(_TEXT),
            ),
        )
    names = sorted(graph.node_names())
    for caller, callee, reason in draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.sampled_from(names),
                st.sampled_from(list(EdgeReason)),
            ),
            max_size=12,
        )
    ):
        if callee not in graph.callees_of(caller):
            graph.add_edge(caller, callee, reason)
    return graph


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
    | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)


_DELETE = object()


def _mutate(document, path, value):
    """``document`` with the value at ``path`` (a key list) replaced,
    or deleted when ``value`` is the ``_DELETE`` marker."""
    if not path:
        return value
    if not isinstance(document, dict):
        return document
    out = dict(document)
    key = path[0]
    if len(path) == 1 and value is _DELETE:
        out.pop(key, None)
    elif key in out:
        out[key] = _mutate(out[key], path[1:], value)
    return out


def _paths(document, prefix=()):
    yield list(prefix)
    if isinstance(document, dict):
        for key, value in document.items():
            yield from _paths(value, (*prefix, key))


class TestMetaCGFuzz:
    @settings(max_examples=80, deadline=None)
    @given(graph=metacg_graphs())
    def test_roundtrip_is_exact(self, graph):
        loaded = from_dict(json.loads(json.dumps(to_dict(graph))))
        assert loaded.node_names() == graph.node_names()
        assert {(e.caller, e.callee, e.reason) for e in loaded.edges()} == {
            (e.caller, e.callee, e.reason) for e in graph.edges()
        }
        for node in graph.nodes():
            assert loaded.node(node.name).meta == node.meta

    @settings(max_examples=150, deadline=None)
    @given(graph=metacg_graphs(), data=st.data())
    def test_mutated_documents_load_or_fail_typed(self, graph, data):
        document = to_dict(graph)
        path = data.draw(st.sampled_from(list(_paths(document))))
        value = data.draw(st.just(_DELETE) | _JSON)
        try:
            from_dict(_mutate(document, path, value))
        except CallGraphError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(graph=metacg_graphs(), data=st.data())
    def test_truncated_or_corrupted_files_load_or_fail_typed(self, graph, data):
        text = json.dumps(to_dict(graph), indent=1, sort_keys=True).encode()
        cut = data.draw(st.integers(0, len(text)))
        payload = text[:cut]
        if data.draw(st.booleans()) and payload:
            spot = data.draw(st.integers(0, len(payload) - 1))
            flipped = data.draw(st.integers(0, 255))
            payload = payload[:spot] + bytes([flipped]) + payload[spot + 1 :]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cg.json"
            path.write_bytes(payload)
            try:
                load(path)
            except CallGraphError:
                pass
