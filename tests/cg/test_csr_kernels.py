"""Property tests for the CSR snapshot layer and flat-array kernels.

The CSR kernels (sweep, Tarjan SCC, condensation edges, topological
order, aggregation DP, BFS depths) are pure performance work: on any
graph — cyclic or acyclic, with self-loops, removed-node tombstones and
multiple roots — they must agree exactly with the dict/set oracle in
``dict_kernels.py`` or with naive brute force.  Random graphs drive both
the vectorised DAG fast path (wave order cached on the snapshot) and
the Tarjan path; one deterministic cyclic graph above
``VECTOR_MIN_SIZE`` drives the numpy branch of the reachability sweep.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cg import csr as csr_kernels
from repro.cg.analysis import (
    aggregate_statement_dense,
    aggregate_statement_ids,
    call_depth_ids_from,
)
from repro.cg.graph import CallGraph, NodeMeta
from tests.cg import dict_kernels


@st.composite
def random_graphs(draw) -> CallGraph:
    """Small random call graphs: self-loops, tombstones, multi-root."""
    n = draw(st.integers(min_value=2, max_value=14))
    names = [f"f{i}" for i in range(n)]
    graph = CallGraph()
    for i, name in enumerate(names):
        graph.add_node(
            name,
            NodeMeta(statements=draw(st.integers(0, 9)), has_body=True),
        )
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=3 * n,
        )
    )
    for caller, callee in edges:
        graph.add_edge(names[caller], names[callee])
    removals = draw(
        st.lists(st.integers(0, n - 1), max_size=2, unique=True)
    )
    for victim in removals:
        if len(graph) > 1 and names[victim] in graph:
            graph.remove_node(names[victim])
    return graph


def _live_ids(graph: CallGraph) -> list[int]:
    return sorted(graph.node_ids())


def _naive_scc_partition(graph: CallGraph, root_id: int) -> set[tuple[int, ...]]:
    """Brute-force SCCs of the reachable subgraph: mutual reachability."""
    reachable = sorted(graph.reachable_ids([root_id]))
    partition = set()
    for nid in reachable:
        forward = graph.reachable_ids([nid])
        backward = graph.reaching_ids([nid])
        partition.add(tuple(sorted((forward & backward) & set(reachable))))
    return partition


class TestSweep:
    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_matches_dict_sweep(self, graph, data):
        live = _live_ids(graph)
        seeds = data.draw(
            st.lists(st.sampled_from(live), min_size=1, unique=True)
        )
        reference = dict_kernels.reachable_ids(graph, seeds)
        assert graph.reachable_ids(seeds) == reference
        # the vectorised kernel directly too — the public API routes
        # small graphs through the Python path
        snapshot = graph.csr()
        mask = csr_kernels.sweep(
            snapshot.succ_indptr, snapshot.succ_indices, seeds, snapshot.n
        )
        assert set(np.flatnonzero(mask).tolist()) == reference

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_reverse_sweep_is_forward_of_transpose(self, graph, data):
        live = _live_ids(graph)
        seeds = data.draw(
            st.lists(st.sampled_from(live), min_size=1, unique=True)
        )
        reaching = graph.reaching_ids(seeds)
        # naive: nid reaches a seed iff some seed is forward-reachable
        expected = {
            nid
            for nid in live
            if graph.reachable_ids([nid]) & set(seeds)
        }
        assert reaching == expected

    def test_tombstones_never_visited(self):
        graph = CallGraph()
        for name in ("a", "b", "c"):
            graph.add_node(name, NodeMeta(statements=1, has_body=True))
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        victim = graph.id_of("b")
        graph.remove_node("b")
        assert victim not in graph.reachable_ids([graph.id_of("a")])
        snapshot = graph.csr()
        assert not snapshot.alive[victim]


class TestScc:
    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_condense_matches_naive_partition(self, graph, data):
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        _, members = csr_kernels.condense(graph.csr(), root_id)
        assert {tuple(sorted(m)) for m in members} == _naive_scc_partition(
            graph, root_id
        )

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_tarjan_matches_dict_condense(self, graph, data):
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        snapshot = graph.csr()
        _, members = csr_kernels.tarjan_scc(
            snapshot.succ_indptr, snapshot.succ_indices, (root_id,), snapshot.n
        )
        _, dict_members = dict_kernels.condense(graph, root_id)
        assert sorted(tuple(sorted(m)) for m in members) == sorted(
            tuple(sorted(m)) for m in dict_members
        )

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs())
    def test_multi_root_tarjan_covers_all_live_nodes(self, graph):
        snapshot = graph.csr()
        comp_of, members = csr_kernels.tarjan_scc(
            snapshot.succ_indptr,
            snapshot.succ_indices,
            _live_ids(graph),
            snapshot.n,
        )
        assert sorted(m for ms in members for m in ms) == _live_ids(graph)
        for cid, ms in enumerate(members):
            assert all(comp_of[m] == cid for m in ms)

    def test_self_loop_is_singleton_component(self):
        graph = CallGraph()
        graph.add_node("main", NodeMeta(statements=1, has_body=True))
        graph.add_node("rec", NodeMeta(statements=2, has_body=True))
        graph.add_edge("main", "rec")
        graph.add_edge("rec", "rec")
        _, members = csr_kernels.condense(graph.csr(), graph.id_of("main"))
        assert sorted(len(m) for m in members) == [1, 1]


class TestCondensationOrder:
    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_topo_order_respects_condensation_edges(self, graph, data):
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        snapshot = graph.csr()
        comp_of, members = csr_kernels.tarjan_scc(
            snapshot.succ_indptr, snapshot.succ_indices, (root_id,), snapshot.n
        )
        cindptr, cindices = csr_kernels.condensation_edges(
            comp_of, snapshot.succ_indptr, snapshot.succ_indices, len(members)
        )
        order = csr_kernels.topo_order(cindptr, cindices, len(members))
        assert sorted(order) == list(range(len(members)))
        position = {cid: i for i, cid in enumerate(order)}
        for cid in range(len(members)):
            for offset in range(cindptr[cid], cindptr[cid + 1]):
                assert position[cid] < position[int(cindices[offset])]

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_condensation_edges_match_naive(self, graph, data):
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        snapshot = graph.csr()
        comp_of, members = csr_kernels.tarjan_scc(
            snapshot.succ_indptr, snapshot.succ_indices, (root_id,), snapshot.n
        )
        cindptr, cindices = csr_kernels.condensation_edges(
            comp_of, snapshot.succ_indptr, snapshot.succ_indices, len(members)
        )
        got = {
            (cid, int(cindices[offset]))
            for cid in range(len(members))
            for offset in range(cindptr[cid], cindptr[cid + 1])
        }
        expected = set()
        for cid, ms in enumerate(members):
            for member in ms:
                for callee in graph.succ_ids(member):
                    tgt = int(comp_of[callee])
                    if tgt >= 0 and tgt != cid:
                        expected.add((cid, tgt))
        assert got == expected


def _kernel_aggregates(graph: CallGraph, root_id: int, metric) -> list[dict]:
    """Aggregation through the CSR kernels directly, with a per-id metric.

    The public API always aggregates statement counts; the kernels take
    any metric array.  Returns the condensation DP's result (Tarjan,
    condensation edges, Kahn order, flat-list DP) and, on acyclic
    graphs, the wave DP's result, each as an ``id -> total`` dict.
    """
    snapshot = graph.csr()
    values = np.zeros(snapshot.n, dtype=np.int64)
    for nid in graph.node_ids():
        values[nid] = metric(nid)
    indptr, indices = snapshot.succ_indptr, snapshot.succ_indices
    comp_of, members = csr_kernels.tarjan_scc(
        indptr, indices, (root_id,), snapshot.n
    )
    comp_metric = np.array(
        [int(values[ms].sum()) for ms in members], dtype=np.int64
    )
    cindptr, cindices = csr_kernels.condensation_edges(
        comp_of, indptr, indices, len(members)
    )
    order = csr_kernels.topo_order(cindptr, cindices, len(members))
    best, reached = csr_kernels.longest_path_dp(
        cindptr, cindices, order, comp_metric, int(comp_of[root_id])
    )
    results = [
        {
            member: best[cid]
            for cid, ms in enumerate(members)
            if reached[cid]
            for member in ms
        }
    ]
    waves = snapshot.topological_waves()
    if waves is not None:
        best, reached = csr_kernels.dag_longest_path(
            snapshot.pred_indptr, snapshot.pred_indices, waves, values, root_id
        )
        results.append(
            {int(nid): int(best[nid]) for nid in np.flatnonzero(reached)}
        )
    return results


class TestAggregation:
    @settings(max_examples=80, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_matches_dict_baseline(self, graph, data):
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        assert aggregate_statement_ids(
            graph, root_id
        ) == dict_kernels.aggregate_statement_ids(graph, root_id)

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_dense_column_matches_dict_baseline(self, graph, data):
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        dense = aggregate_statement_dense(graph, root_id)
        reference = dict_kernels.aggregate_statement_ids(graph, root_id)
        for nid in range(graph.id_bound):
            assert dense[nid] == reference.get(nid, 0)

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_custom_metric_matches_dict_baseline(self, graph, data):
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        metric = lambda nid: 2 * nid + 1  # noqa: E731
        reference = dict_kernels.aggregate_statement_ids(
            graph, root_id, metric=metric
        )
        for result in _kernel_aggregates(graph, root_id, metric):
            assert result == reference

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_negative_custom_metric_matches_dict_baseline(self, graph, data):
        # regression: negative metrics can push path sums below the -1
        # unreached sentinel; descendants must drop (or survive) exactly
        # like the dict baseline in both the wave DP and the flat-list DP
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        metric = lambda nid: 7 - 5 * nid  # noqa: E731
        reference = dict_kernels.aggregate_statement_ids(
            graph, root_id, metric=metric
        )
        for result in _kernel_aggregates(graph, root_id, metric):
            assert result == reference


class TestDagLongestPathKernel:
    """Direct kernel coverage: the public API only feeds it the default
    nonnegative statements metric, but the kernel itself must keep the
    dict baseline's sentinel semantics for any int64/float64 metric."""

    def _dag_graph(self):
        graph = CallGraph()
        for name in ("main", "mid", "leaf", "other"):
            graph.add_node(name, NodeMeta(statements=1, has_body=True))
        graph.add_edge("main", "mid")
        graph.add_edge("mid", "leaf")
        graph.add_edge("main", "leaf")
        graph.add_edge("other", "leaf")
        return graph

    def _run(self, graph, metric_values):
        snapshot = graph.csr()
        waves = snapshot.topological_waves()
        assert waves is not None
        metric = np.zeros(snapshot.n, dtype=np.int64)
        for name, value in metric_values.items():
            metric[graph.id_of(name)] = value
        best, reached = csr_kernels.dag_longest_path(
            snapshot.pred_indptr,
            snapshot.pred_indices,
            waves,
            metric,
            graph.id_of("main"),
        )
        id_metric = lambda nid: int(metric[nid])  # noqa: E731
        reference = dict_kernels.aggregate_statement_ids(
            graph, graph.id_of("main"), metric=id_metric
        )
        got = {
            int(nid): int(best[nid]) for nid in np.flatnonzero(reached)
        }
        return got, reference

    def test_negative_root_still_reaches_descendants(self):
        got, reference = self._run(
            self._dag_graph(), {"main": -10, "mid": 20, "leaf": 5}
        )
        assert got == reference
        # and the value semantics: mid survived (-10+20=10 > -1)
        assert any(value == 10 for value in got.values())

    def test_candidates_below_sentinel_drop_nodes(self):
        got, reference = self._run(
            self._dag_graph(), {"main": -10, "mid": 2, "leaf": 1}
        )
        # main->mid candidate is -8: below the -1 sentinel, dropped —
        # exactly like the dict baseline
        assert got == reference
        assert len(got) == 1  # only the root survives


class TestBfsDepths:
    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_matches_naive_bfs(self, graph, data):
        root_id = data.draw(st.sampled_from(_live_ids(graph)))
        reference = dict_kernels.call_depths(graph, root_id)
        assert call_depth_ids_from(graph, root_id) == reference
        # the kernel directly too
        snapshot = graph.csr()
        dense = csr_kernels.bfs_depths(
            snapshot.succ_indptr, snapshot.succ_indices, root_id, snapshot.n
        )
        got = {
            int(nid): int(dense[nid])
            for nid in np.flatnonzero(dense >= 0)
        }
        assert got == reference


def _cyclic_graph_above_threshold(seed: int = 15) -> CallGraph:
    """A deterministic cyclic call graph past ``VECTOR_MIN_SIZE``.

    A random spanning tree under ``main`` plus random forward edges and
    back-edges, so the reachable subgraph has non-trivial SCCs and the
    graph has no topological wave order.
    """
    rng = random.Random(seed)
    n = 15_000
    graph = CallGraph()
    names = ["main"] + [f"f{i}" for i in range(1, n)]
    for name in names:
        graph.add_node(
            name, NodeMeta(statements=rng.randrange(21), has_body=True)
        )
    for i in range(1, n):
        graph.add_edge(names[rng.randrange(i)], names[i])
    for _ in range(6_000):
        u, v = sorted(rng.sample(range(n), 2))
        graph.add_edge(names[u], names[v])
    for _ in range(1_500):
        u, v = sorted(rng.sample(range(n), 2))
        graph.add_edge(names[v], names[u])
    return graph


class TestAboveVectorThreshold:
    """The public kernels past the size switch of ``CallGraph._sweep``,
    on a cyclic graph, against the dict oracle."""

    @pytest.fixture(scope="class")
    def graph(self):
        graph = _cyclic_graph_above_threshold()
        assert len(graph) + graph.edge_count() >= csr_kernels.VECTOR_MIN_SIZE
        assert graph.csr().topological_waves() is None
        return graph

    def test_sweeps_match_dict_oracle(self, graph):
        rng = random.Random(1)
        for seeds in ([graph.id_of("main")], rng.sample(range(len(graph)), 5)):
            assert graph.reachable_ids(seeds) == dict_kernels.reachable_ids(
                graph, seeds
            )
            assert graph.reaching_ids(seeds) == dict_kernels.reachable_ids(
                graph, seeds, reverse=True
            )

    def test_condensation_matches_dict_oracle(self, graph):
        root_id = graph.id_of("main")
        _, members = csr_kernels.condense(graph.csr(), root_id)
        _, dict_members = dict_kernels.condense(graph, root_id)
        partition = sorted(tuple(sorted(m)) for m in members)
        assert partition == sorted(tuple(sorted(m)) for m in dict_members)
        assert max(len(m) for m in members) > 1

    def test_aggregation_and_depths_match_dict_oracle(self, graph):
        root_id = graph.id_of("main")
        assert aggregate_statement_ids(
            graph, root_id
        ) == dict_kernels.aggregate_statement_ids(graph, root_id)
        assert call_depth_ids_from(graph, root_id) == dict_kernels.call_depths(
            graph, root_id
        )


class TestSnapshot:
    def test_cached_until_mutation(self):
        graph = CallGraph()
        graph.add_node("a", NodeMeta(statements=1, has_body=True))
        graph.add_edge("a", "b")
        first = graph.csr()
        assert graph.csr() is first
        graph.add_edge("a", "c")
        second = graph.csr()
        assert second is not first
        assert second.version == graph.version

    def test_csr_layout_matches_adjacency(self):
        graph = CallGraph()
        for name in ("a", "b", "c"):
            graph.add_node(name, NodeMeta(statements=1, has_body=True))
        graph.add_edge("a", "b")
        graph.add_edge("a", "c")
        graph.add_edge("b", "c")
        snapshot = graph.csr()
        a, b, c = (graph.id_of(n) for n in ("a", "b", "c"))
        row = lambda nid: sorted(  # noqa: E731
            snapshot.succ_indices[
                snapshot.succ_indptr[nid] : snapshot.succ_indptr[nid + 1]
            ].tolist()
        )
        assert row(a) == sorted([b, c])
        assert row(b) == [c]
        prow = lambda nid: sorted(  # noqa: E731
            snapshot.pred_indices[
                snapshot.pred_indptr[nid] : snapshot.pred_indptr[nid + 1]
            ].tolist()
        )
        assert prow(c) == sorted([a, b])
        assert np.array_equal(snapshot.live_ids, [a, b, c])

    def test_meta_column_dense_values(self):
        graph = CallGraph()
        graph.add_node("a", NodeMeta(statements=7, has_body=True))
        graph.add_node("b", NodeMeta(statements=3, has_body=True))
        graph.remove_node("b")
        column = graph.csr().meta_column("statements")
        assert column[graph.id_of("a")] == 7
        assert column[1] == 0  # tombstone slot

    def test_stale_meta_column_rejected(self):
        graph = CallGraph()
        graph.add_node("a", NodeMeta(statements=1, has_body=True))
        snapshot = graph.csr()
        graph.add_edge("a", "b")
        with pytest.raises(RuntimeError):
            snapshot.meta_column("statements")

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs())
    def test_topological_waves_are_topological_or_none(self, graph):
        snapshot = graph.csr()
        waves = snapshot.topological_waves()
        has_cycle = any(
            len(m) > 1 or m[0] in graph.succ_ids(m[0])
            for m in csr_kernels.tarjan_scc(
                snapshot.succ_indptr,
                snapshot.succ_indices,
                range(snapshot.n),
                snapshot.n,
            )[1]
        )
        if has_cycle:
            assert waves is None
        else:
            assert waves is not None
            wave_of = {}
            for i, wave in enumerate(waves):
                for nid in wave.tolist():
                    wave_of[nid] = i
            assert len(wave_of) == snapshot.n
            for nid in graph.node_ids():
                for callee in graph.succ_ids(nid):
                    if callee != nid:
                        assert wave_of[nid] < wave_of[callee]
