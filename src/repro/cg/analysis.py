"""Call-graph analyses shared by the selectors.

All traversals are iterative (no recursion) and linear in nodes+edges so
they stay usable at the paper's 410k-node OpenFOAM scale.  They run over
the graph's frozen CSR snapshot (:meth:`~repro.cg.graph.CallGraph.csr`)
with the flat-array kernels of :mod:`repro.cg.csr`, one kernel per job:
array-frontier reachability, BFS call depths, and statement aggregation
as a wave-vectorised DP on acyclic graphs or a Tarjan condensation plus
a flat-list DP on cyclic ones.  Call depths and aggregation totals are
memoised on the snapshot as dense per-id arrays; the id- and
string-keyed dict functions are views of those arrays for callers that
live at the name boundary.

The dict/set kernels these replaced are kept in the test suite
(``tests/cg/dict_kernels.py``) as the oracle the CSR kernels must agree
with bit-for-bit, and as the scale benchmark's ``analysis`` baseline.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cg import csr as _csr
from repro.cg.graph import CallGraph


def on_call_path_to(graph: CallGraph, targets: Iterable[str]) -> set[str]:
    """Nodes on some call path from anywhere to a target.

    This is reverse reachability — CaPI's ``onCallPathTo`` semantics:
    the function itself, plus every (transitive) caller.
    """
    return graph.reaching(targets)


def on_call_path_from(graph: CallGraph, sources: Iterable[str]) -> set[str]:
    """Nodes reachable from the sources (``onCallPathFrom``)."""
    return graph.reachable_from(sources)


def call_path_between_ids(
    graph: CallGraph, source_ids: Iterable[int], target_ids: Iterable[int]
) -> set[int]:
    """Ids on some path source→…→target, as integer set intersection."""
    return graph.reachable_ids(source_ids) & graph.reaching_ids(target_ids)


def call_path_between(
    graph: CallGraph, sources: Iterable[str], targets: Iterable[str]
) -> set[str]:
    """Nodes on some path source→…→target (e.g. main→MPI op).

    The ``mpi_comm`` selector of the bundled ``mpi.capi`` module is
    exactly this with sources={main} and targets={MPI_*}.
    """
    ids = call_path_between_ids(
        graph, graph.names_to_ids(sources), graph.names_to_ids(targets)
    )
    return set(graph.ids_to_names(ids))


def call_depth_dense(graph: CallGraph, root_id: int) -> np.ndarray:
    """Shortest call depth from ``root_id`` as a dense per-id array.

    ``-1`` marks unreachable ids; selectors filter with vectorised
    comparisons instead of per-node dict lookups.

    Memoised on the snapshot under ``("depth", root_id)`` (with the
    root's reach mask alongside), so repeated depth filters over one
    graph version share the BFS — and a delta refresh carries the
    arrays over when the edit leaves the root's reachable set untouched.
    Treat the returned array as read-only.
    """
    snapshot = graph.csr()
    dense = snapshot.analyses.get(("depth", root_id))
    if dense is None:
        dense = _csr.bfs_depths(
            snapshot.succ_indptr, snapshot.succ_indices, root_id, snapshot.n
        )
        snapshot.analyses[("depth", root_id)] = dense
        snapshot.analyses.setdefault(("reach", root_id), dense >= 0)
    return dense


def reach_ids_frozen(graph: CallGraph, root_id: int) -> frozenset[int]:
    """Ids reachable from ``root_id``, memoised on the snapshot.

    The shared support set of every root-keyed analysis result — what
    the delta-aware cross-run cache records as a dependency so an edit
    inside the reachable region drops exactly the results it can affect.
    """
    snapshot = graph.csr()
    reachset = snapshot.analyses.get(("reachset", root_id))
    if reachset is None:
        mask = snapshot.analyses.get(("reach", root_id))
        if mask is None:
            mask = _csr.sweep(
                snapshot.succ_indptr,
                snapshot.succ_indices,
                (root_id,),
                snapshot.n,
            )
            snapshot.analyses[("reach", root_id)] = mask
        reachset = frozenset(np.flatnonzero(mask).tolist())
        snapshot.analyses[("reachset", root_id)] = reachset
    return reachset


def call_depth_ids_from(graph: CallGraph, root_id: int) -> dict[int, int]:
    """Shortest call depth from a root id (unreachable ids absent).

    A dict view of the memoised :func:`call_depth_dense` array.
    """
    dense = call_depth_dense(graph, root_id)
    reached = np.flatnonzero(dense >= 0)
    return dict(zip(reached.tolist(), dense[reached].tolist()))


def call_depths_from(graph: CallGraph, root: str) -> dict[str, int]:
    """Shortest call depth from ``root`` (BFS; unreachable nodes absent)."""
    root_id = graph.id_of(root)
    if root_id is None:
        return {}
    name_of = graph.name_of
    return {
        name_of(nid): d for nid, d in call_depth_ids_from(graph, root_id).items()
    }


def _aggregate_arrays(
    graph: CallGraph, root_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregation core: ``(node_ids, totals)`` over the CSR kernels.

    Fast path (the overwhelmingly common call-graph case): the
    snapshot's cached wave order proves the graph acyclic, so the
    condensation is the identity and the longest-path DP pulls over
    predecessor adjacency wave-by-wave, fully vectorised.  Cyclic graphs
    take Tarjan over flat arrays, vectorised condensation-edge
    extraction, and the flat-list DP in Kahn topological order.
    """
    snapshot = graph.csr()
    statements = snapshot.meta_column("statements")
    waves = snapshot.topological_waves()
    if waves is not None:
        best, reached = _csr.dag_longest_path(
            snapshot.pred_indptr,
            snapshot.pred_indices,
            waves,
            statements,
            root_id,
        )
        node_ids = np.flatnonzero(reached)
        return node_ids, best[node_ids]
    indptr, indices = snapshot.succ_indptr, snapshot.succ_indices
    comp_of, comp_members = _csr.tarjan_scc(indptr, indices, (root_id,), snapshot.n)
    ncomp = len(comp_members)
    in_comp = comp_of >= 0
    comp_metric = np.zeros(ncomp, dtype=np.int64)
    np.add.at(comp_metric, comp_of[in_comp], statements[in_comp])
    cindptr, cindices = _csr.condensation_edges(comp_of, indptr, indices, ncomp)
    order = _csr.topo_order(cindptr, cindices, ncomp)
    best, reached = _csr.longest_path_dp(
        cindptr, cindices, order, comp_metric, int(comp_of[root_id])
    )
    visited_nodes = np.flatnonzero(in_comp)
    node_comps = comp_of[visited_nodes]
    keep = np.frombuffer(reached, dtype=np.uint8)[node_comps].astype(bool)
    totals = np.asarray(best, dtype=np.int64)[node_comps[keep]]
    return visited_nodes[keep], totals


def aggregate_statement_dense(graph: CallGraph, root_id: int) -> np.ndarray:
    """Aggregated statement totals as a dense per-id array (0 default).

    For each node, the maximum over all call paths from the root of the
    summed statement counts along the path.  Cycles contribute each
    member once (the aggregation is computed over the DAG of strongly
    connected components).  This is what the ``statementAggregation``
    selector consumes for its vectorised threshold filter.

    Memoised on the snapshot under ``("agg", root_id)`` (with the root's
    reach mask alongside); a delta refresh carries the array over when
    the edit cannot reach the root's aggregation region.  Treat the
    returned array as read-only.
    """
    snapshot = graph.csr()
    dense = snapshot.analyses.get(("agg", root_id))
    if dense is None:
        node_ids, totals = _aggregate_arrays(graph, root_id)
        dense = np.zeros(snapshot.n, dtype=np.int64)
        dense[node_ids] = totals
        snapshot.analyses[("agg", root_id)] = dense
        if ("reach", root_id) not in snapshot.analyses:
            mask = np.zeros(snapshot.n, dtype=bool)
            mask[node_ids] = True
            snapshot.analyses[("reach", root_id)] = mask
    return dense


def aggregate_statement_ids(graph: CallGraph, root_id: int) -> dict[int, int]:
    """Statement aggregation along call chains, over interned ids.

    A dict view of the memoised :func:`aggregate_statement_dense` array
    over the ids reachable from the root.  Statement counts are
    non-negative, so every reachable id gets a total.
    """
    dense = aggregate_statement_dense(graph, root_id)
    reached = np.flatnonzero(graph.csr().analyses[("reach", root_id)])
    return dict(zip(reached.tolist(), dense[reached].tolist()))


def aggregate_statements(graph: CallGraph, root: str) -> dict[str, int]:
    """Statement aggregation along call chains (Iwainsky & Bischof [16])."""
    root_id = graph.id_of(root)
    if root_id is None:
        return {}
    name_of = graph.name_of
    return {
        name_of(nid): total
        for nid, total in aggregate_statement_ids(graph, root_id).items()
    }
