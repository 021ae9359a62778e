"""Frozen CSR snapshots of a call graph and flat-array graph kernels.

The selection pipeline's graph analyses (reachability sweeps, Tarjan
condensation, the statement-aggregation DP, BFS call depths) used to
churn per-node ``dict``/``set`` objects, which dominates coarse
selection time at the paper's 410,666-node OpenFOAM scale.  This module
replaces that with a *snapshot* model:

* :class:`CsrSnapshot` — an immutable compressed-sparse-row view of one
  :class:`~repro.cg.graph.CallGraph` version: ``int32``
  ``indptr``/``indices`` arrays for both successor and predecessor
  adjacency, an ``alive`` mask over the id space (removed nodes leave
  tombstones), and dense numpy metadata columns.  Snapshots are built by
  :meth:`CallGraph.csr` and cached against the graph's mutation
  ``version`` — any mutation invalidates the snapshot wholesale, so a
  stale snapshot can never describe the live graph.

* flat-array kernels over a snapshot's arrays: frontier-vectorised
  reachability (:func:`sweep`), an iterative Tarjan SCC over flat
  ``index``/``low``/``on_stack``/``comp_of`` arrays (:func:`tarjan_scc`),
  vectorised condensation-edge extraction via packed 64-bit keys and
  ``np.unique`` (:func:`condensation_edges`), Kahn topological order and
  the longest-path DP over flat indegree/best arrays (:func:`topo_order`,
  :func:`longest_path_dp`), the wave-vectorised DP for acyclic graphs
  (:func:`dag_longest_path`), and per-frontier vectorised BFS depths
  (:func:`bfs_depths`).

There is one kernel per job; :func:`tarjan_scc` is the only SCC
implementation.  The kernels are pure functions of arrays, so other
subsystems with their own small graphs (the compiler's recursion-cycle
detection) reuse them through :func:`edges_to_csr` instead of carrying
private SCC implementations.  The dict/set kernels they replaced live on
in the test suite as the oracle they are checked against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.cg.graph import CallGraph

#: dtype of all snapshot index arrays (ids and CSR offsets)
INDEX_DTYPE = np.int32

#: below this many nodes+edges, per-wave numpy dispatch overhead beats
#: the vectorisation win, so :meth:`CallGraph._sweep` traverses the
#: id-set adjacency in plain Python instead of calling :func:`sweep`
VECTOR_MIN_SIZE = 32768


def edges_to_csr(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-sorted ``(indptr, indices)`` CSR from parallel edge arrays.

    Rows appear in id order and each row's targets are sorted, so the
    layout is deterministic regardless of input edge order.  Duplicate
    edges are preserved (graph construction dedupes via sets; ad-hoc
    callers like the compiler tolerate duplicates in the kernels).
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    order = np.argsort((sources << 32) | targets, kind="stable")
    indices = targets[order].astype(INDEX_DTYPE)
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:], dtype=np.int64)
    return indptr, indices


def splice_csr(
    old_indptr: np.ndarray,
    old_indices: np.ndarray,
    rows: Sequence[int],
    row_values: Sequence[np.ndarray],
    n_new: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild ``(indptr, indices)`` with ``rows`` replaced or appended.

    ``rows`` must be sorted ascending, parallel to ``row_values`` (each
    a sorted ``INDEX_DTYPE`` target array); rows at or past the old row
    count are appends.  Untouched row spans are block-copied from the
    old arrays, so the cost is O(touched rows) Python iterations plus
    memcpy — and because :func:`edges_to_csr` lays rows out in id order
    with sorted targets, the result is bit-identical to a from-scratch
    build of the same adjacency.
    """
    old_n = old_indptr.size - 1
    counts = np.zeros(n_new, dtype=np.int64)
    counts[:old_n] = np.diff(old_indptr)
    for row, values in zip(rows, row_values):
        counts[row] = values.size
    indptr = np.zeros(n_new + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:], dtype=np.int64)
    indices = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
    prev = 0
    for row, values in zip(rows, row_values):
        stop = min(row, old_n)
        if stop > prev:
            src0, src1 = old_indptr[prev], old_indptr[stop]
            dst0 = indptr[prev]
            indices[dst0 : dst0 + (src1 - src0)] = old_indices[src0:src1]
        if values.size:
            dst = indptr[row]
            indices[dst : dst + values.size] = values
        prev = row + 1
    if prev < old_n:
        src0, src1 = old_indptr[prev], old_indptr[old_n]
        dst0 = indptr[prev]
        indices[dst0 : dst0 + (src1 - src0)] = old_indices[src0:src1]
    return indptr, indices


def _sorted_row(adjacency: Sequence[set], row: int) -> np.ndarray:
    """One adjacency row as a sorted ``INDEX_DTYPE`` target array."""
    targets = adjacency[row]
    out = np.fromiter(targets, dtype=INDEX_DTYPE, count=len(targets))
    out.sort()
    return out


def _extend(arr: np.ndarray, n: int, fill) -> np.ndarray:
    """``arr`` grown to length ``n`` with ``fill`` (shared when equal)."""
    if arr.shape[0] == n:
        return arr
    out = np.full(n, fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


def _gather(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenated adjacency rows of ``frontier`` (ragged gather)."""
    starts = indptr[frontier].astype(np.int64)
    counts = indptr[frontier + 1].astype(np.int64) - starts
    total = int(counts.sum())
    if total == 0:
        return indices[:0]
    ends = starts + counts
    offsets = np.cumsum(counts)
    take = np.repeat(ends - offsets, counts) + np.arange(total, dtype=np.int64)
    return indices[take]


def sweep(
    indptr: np.ndarray,
    indices: np.ndarray,
    seeds: Iterable[int],
    n: int,
) -> np.ndarray:
    """Frontier-vectorised reachability: boolean visited mask over ids.

    Each iteration gathers the whole frontier's adjacency in one ragged
    numpy gather, drops already-visited targets and dedupes — no
    per-node Python iteration.
    """
    visited = np.zeros(n, dtype=bool)
    frontier = np.unique(np.fromiter(seeds, dtype=np.int64))
    if frontier.size == 0:
        return visited
    visited[frontier] = True
    while frontier.size:
        neighbors = _gather(indptr, indices, frontier)
        neighbors = neighbors[~visited[neighbors]]
        if neighbors.size == 0:
            break
        frontier = np.unique(neighbors.astype(np.int64))
        visited[frontier] = True
    return visited


def bfs_depths(
    indptr: np.ndarray, indices: np.ndarray, root: int, n: int
) -> np.ndarray:
    """Shortest hop count from ``root`` per id; ``-1`` where unreachable.

    Per-frontier vectorised BFS: one ragged gather per level.
    """
    depth = np.full(n, -1, dtype=INDEX_DTYPE)
    depth[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        neighbors = _gather(indptr, indices, frontier)
        neighbors = neighbors[depth[neighbors] == -1]
        if neighbors.size == 0:
            break
        frontier = np.unique(neighbors.astype(np.int64))
        depth[frontier] = level
    return depth


def peel_topological(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    max_waves: int | None = None,
) -> list[np.ndarray] | None:
    """Kahn wave-peeling of the whole graph into topological waves.

    Repeatedly removes every current zero-in-degree node in one
    vectorised wave (indegree updates via ``bincount`` subtraction, new
    frontier via one boolean scan).  Returns the waves — a valid
    topological order with all of a wave's predecessors in earlier
    waves — when the graph is acyclic, or ``None`` when a cycle blocks
    peeling or the wave count exceeds ``max_waves`` (a pathologically
    deep chain, where the sequential Tarjan fallback is cheaper than
    per-wave numpy overhead).
    """
    indegree = np.bincount(indices, minlength=n)
    frontier = np.flatnonzero(indegree == 0)
    remaining = n
    if max_waves is None:
        max_waves = max(512, 4 * int(np.sqrt(n)))
    waves: list[np.ndarray] = []
    while frontier.size:
        if len(waves) >= max_waves:
            return None
        waves.append(frontier)
        remaining -= frontier.size
        targets = _gather(indptr, indices, frontier)
        removed = np.bincount(targets, minlength=n)
        indegree -= removed
        frontier = np.flatnonzero((indegree == 0) & (removed > 0))
    return waves if remaining == 0 else None


def condense(
    snapshot: "CsrSnapshot", root_id: int
) -> tuple[np.ndarray, list[list[int]]]:
    """SCC condensation of the subgraph reachable from ``root_id``.

    Hybrid kernel: when the snapshot's cached wave order proves the
    graph acyclic (the overwhelmingly common call-graph case), every
    reachable node is its own component and the whole condensation is
    one sweep plus a vectorised relabel; otherwise the flat-array
    Tarjan takes over.  Returns ``(comp_of, comp_members)`` like
    :func:`tarjan_scc`.
    """
    indptr, indices = snapshot.succ_indptr, snapshot.succ_indices
    if snapshot.topological_waves() is None:
        return tarjan_scc(indptr, indices, (root_id,), snapshot.n)
    visited = sweep(indptr, indices, (root_id,), snapshot.n)
    order = np.flatnonzero(visited)
    comp_of = np.full(snapshot.n, -1, dtype=INDEX_DTYPE)
    comp_of[order] = np.arange(order.size, dtype=INDEX_DTYPE)
    comp_members = [[nid] for nid in order.tolist()]
    return comp_of, comp_members


def dag_longest_path(
    pred_indptr: np.ndarray,
    pred_indices: np.ndarray,
    waves: Sequence[np.ndarray],
    metric: np.ndarray,
    root: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Longest-path DP from ``root`` straight over an acyclic node graph.

    ``waves`` must be topological waves of the whole graph (from
    :func:`peel_topological`); the condensation is the identity there,
    so the DP pulls over predecessor adjacency wave-by-wave: one ragged
    gather plus segmented ``reduceat`` reductions per wave.  Semantics
    mirror the dict baseline: a node's value is its metric plus the max
    over *reached* predecessors' values, and it joins the reached set
    only when that candidate beats the ``-1`` unreached sentinel
    (strictly) — so negative metrics drop nodes exactly like the
    baseline does.  Arithmetic runs in the metric array's dtype
    (``int64``/``float64``).
    """
    n = pred_indptr.size - 1
    pred_counts = np.diff(pred_indptr)
    best = np.full(n, -1, dtype=metric.dtype)
    best[root] = metric[root]
    reached = np.zeros(n, dtype=bool)
    reached[root] = True
    sentinel = (
        np.iinfo(metric.dtype).min
        if metric.dtype.kind in "iu"
        else -np.inf
    )
    for wave in waves:
        # nodes without predecessors keep their seed value (root) or
        # stay unreached; they must be dropped so reduceat sees no
        # empty segments
        pulling = wave[pred_counts[wave] > 0]
        if pulling.size == 0:
            continue
        preds = _gather(pred_indptr, pred_indices, pulling)
        starts = np.zeros(pulling.size, dtype=np.int64)
        np.cumsum(pred_counts[pulling][:-1], out=starts[1:], dtype=np.int64)
        pred_reached = reached[preds]
        has_reached_pred = np.logical_or.reduceat(pred_reached, starts)
        if not has_reached_pred.any():
            continue
        seg_best = np.maximum.reduceat(
            np.where(pred_reached, best[preds], sentinel), starts
        )
        pulled = pulling[has_reached_pred]
        candidates = metric[pulled] + seg_best[has_reached_pred]
        assigned = candidates > -1
        updated = pulled[assigned]
        best[updated] = candidates[assigned]
        reached[updated] = True
    return best, reached


def tarjan_scc(
    indptr: np.ndarray,
    indices: np.ndarray,
    seeds: Iterable[int],
    n: int,
) -> tuple[np.ndarray, list[list[int]]]:
    """Iterative Tarjan SCC over CSR adjacency, restricted to the
    subgraph reachable from ``seeds``.

    All DFS state lives in flat arrays indexed by node id — ``index``,
    ``low``, ``on_stack`` and the emitted ``comp_of`` labels — with an
    explicit edge-pointer work stack; no per-node dicts or materialised
    children lists.  Returns ``(comp_of, comp_members)`` where
    ``comp_of[nid]`` is the component id (``-1`` for unvisited ids) and
    ``comp_members[cid]`` lists member node ids.  Component ids are
    assigned in emission order (reverse-topological for the visited
    subgraph), but callers must not rely on that — use
    :func:`topo_order`.
    """
    # flat per-id state; plain lists index faster than numpy scalars in
    # the unavoidably sequential DFS loop
    indptr_l: Sequence[int] = indptr.tolist()
    indices_l: Sequence[int] = indices.tolist()
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    comp_of = [-1] * n
    scc_stack: list[int] = []
    comp_members: list[list[int]] = []
    counter = 0
    # DFS work stack as two parallel flat lists: node, next edge offset
    work_node: list[int] = []
    work_edge: list[int] = []

    for seed in seeds:
        if index[seed] != -1:
            continue
        index[seed] = low[seed] = counter
        counter += 1
        scc_stack.append(seed)
        on_stack[seed] = 1
        work_node.append(seed)
        work_edge.append(indptr_l[seed])
        while work_node:
            node = work_node[-1]
            edge = work_edge[-1]
            if edge < indptr_l[node + 1]:
                work_edge[-1] = edge + 1
                child = indices_l[edge]
                child_index = index[child]
                if child_index == -1:
                    index[child] = low[child] = counter
                    counter += 1
                    scc_stack.append(child)
                    on_stack[child] = 1
                    work_node.append(child)
                    work_edge.append(indptr_l[child])
                elif on_stack[child] and child_index < low[node]:
                    low[node] = child_index
            else:
                work_node.pop()
                work_edge.pop()
                lowlink = low[node]
                if work_node:
                    parent = work_node[-1]
                    if lowlink < low[parent]:
                        low[parent] = lowlink
                if lowlink == index[node]:
                    cid = len(comp_members)
                    members: list[int] = []
                    while True:
                        member = scc_stack.pop()
                        on_stack[member] = 0
                        comp_of[member] = cid
                        members.append(member)
                        if member == node:
                            break
                    comp_members.append(members)
    return np.asarray(comp_of, dtype=INDEX_DTYPE), comp_members


def condensation_edges(
    comp_of: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    ncomp: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique cross-component edges of the condensation DAG, as CSR.

    Vectorised id remap: every graph edge is relabelled through
    ``comp_of``, intra-component and unvisited-endpoint edges are masked
    out, and the survivors are deduplicated via ``np.unique`` on packed
    ``(src << 32) | dst`` 64-bit keys.
    """
    counts = np.diff(indptr)
    comp_src = np.repeat(comp_of, counts).astype(np.int64)
    comp_dst = comp_of[indices].astype(np.int64)
    keep = (comp_src >= 0) & (comp_dst >= 0) & (comp_src != comp_dst)
    packed = np.unique((comp_src[keep] << 32) | comp_dst[keep])
    src = (packed >> 32).astype(np.int64)
    dst = (packed & 0xFFFFFFFF).astype(INDEX_DTYPE)
    cindptr = np.zeros(ncomp + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(src, minlength=ncomp), out=cindptr[1:], dtype=np.int64)
    return cindptr, dst


def topo_order(
    cindptr: np.ndarray, cindices: np.ndarray, ncomp: int
) -> list[int]:
    """Kahn topological order (callers first) over condensation CSR.

    Indegrees are computed in one vectorised ``bincount``; the ready
    stack and the relaxation loop run over flat lists.
    """
    indegree = np.bincount(cindices, minlength=ncomp).tolist()
    cindptr_l = cindptr.tolist()
    cindices_l = cindices.tolist()
    ready = [cid for cid in range(ncomp) if indegree[cid] == 0]
    order: list[int] = []
    while ready:
        cid = ready.pop()
        order.append(cid)
        for offset in range(cindptr_l[cid], cindptr_l[cid + 1]):
            target = cindices_l[offset]
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return order


def longest_path_dp(
    cindptr: np.ndarray,
    cindices: np.ndarray,
    order: Sequence[int],
    comp_metric: np.ndarray,
    root_comp: int,
) -> tuple[list[int], bytearray]:
    """Longest-path DP from ``root_comp`` over the condensation DAG.

    Returns ``(best, reached)``: per-component best path sum (flat list
    of Python ints) and the reachability-from-root byte mask.
    Relaxation runs in topological order over flat lists: the
    condensation is typically tiny relative to the graph, where
    per-component numpy slicing costs more than it vectorises, and the
    ``-1`` unreached sentinel semantics of the dict baseline carry over
    exactly (a candidate replaces the incumbent only when strictly
    greater).
    """
    ncomp = len(comp_metric)
    cindptr_l = cindptr.tolist()
    cindices_l = cindices.tolist()
    metric_l = comp_metric.tolist()
    best: list[int] = [-1] * ncomp
    reached = bytearray(ncomp)
    best[root_comp] = metric_l[root_comp]
    reached[root_comp] = 1
    for cid in order:
        if not reached[cid]:
            continue
        base = best[cid]
        for offset in range(cindptr_l[cid], cindptr_l[cid + 1]):
            target = cindices_l[offset]
            candidate = base + metric_l[target]
            if candidate > best[target]:
                best[target] = candidate
                reached[target] = 1
    return best, reached


class CsrSnapshot:
    """Immutable CSR view of one :class:`CallGraph` version.

    Built by :meth:`CallGraph.csr`; every accessor is valid only while
    the graph's ``version`` equals :attr:`version` (the graph-side cache
    guarantees callers never see a stale snapshot, and
    :meth:`meta_column` re-checks defensively).
    """

    __slots__ = (
        "version",
        "n",
        "succ_indptr",
        "succ_indices",
        "pred_indptr",
        "pred_indices",
        "alive",
        "live_ids",
        "analyses",
        "refreshed_from",
        "_graph",
        "_meta_columns",
        "_waves",
    )

    def __init__(self, graph: "CallGraph", *, _base=None, _delta=None):
        self._graph = graph
        self.version = graph.version
        n = graph.id_bound
        self.n = n
        self._meta_columns: dict[str, np.ndarray] = {}
        self._waves: list[np.ndarray] | None | bool = False
        #: root-keyed analysis memo: ``(kind, root_id) -> array/frozenset``
        #: ("reach" mask, "depth" BFS array, "agg" statement totals,
        #: "reachset" id frozenset) — filled by :mod:`repro.cg.analysis`,
        #: carried through :meth:`refresh` when the delta leaves the
        #: root's reachable set untouched
        self.analyses: dict[tuple[str, int], object] = {}
        #: version this snapshot was delta-refreshed from (``None`` for a
        #: from-scratch build) — service stats report on it
        self.refreshed_from: int | None = None
        if _base is not None and _delta is not None:
            self._refresh_from(graph, _base, _delta)
            return
        succ = graph._succ
        counts = np.fromiter((len(s) for s in succ), dtype=np.int64, count=n)
        edge_total = int(counts.sum())
        targets = np.fromiter(
            (t for s in succ for t in s), dtype=np.int64, count=edge_total
        )
        sources = np.repeat(np.arange(n, dtype=np.int64), counts)
        self.succ_indptr, self.succ_indices = edges_to_csr(n, sources, targets)
        self.pred_indptr, self.pred_indices = edges_to_csr(n, targets, sources)
        alive = np.zeros(n, dtype=bool)
        live = np.fromiter(graph._ids.values(), dtype=np.int64, count=len(graph))
        alive[live] = True
        self.alive = alive
        self.live_ids = np.flatnonzero(alive).astype(INDEX_DTYPE)

    def refresh(
        self, graph: "CallGraph", *, max_rows: int | None = None
    ) -> "CsrSnapshot":
        """A snapshot of ``graph``'s *current* version, built incrementally.

        Consumes the mutation journal since this snapshot's version:
        touched CSR rows are re-spliced, new rows appended, the alive
        mask, meta columns and root-keyed analyses extended/patched —
        with every untouched span block-copied (or shared outright), so
        the cost is O(delta), not O(graph).  The hard contract is
        bit-identity: the produced arrays equal a from-scratch
        ``CsrSnapshot(graph)`` at the new version (property-tested).

        Falls back to a full rebuild when the snapshot is already
        current-version-equal (returns ``self``), the journal truncated,
        the snapshot belongs to a different graph, or the delta touches
        more than ``max_rows`` CSR rows (``None`` = no limit).
        """
        if graph is not self._graph:
            return CsrSnapshot(graph)
        if graph.version == self.version:
            return self
        delta = graph.delta_since(self.version)
        if delta is None or (max_rows is not None and delta.row_count > max_rows):
            return CsrSnapshot(graph)
        return CsrSnapshot(graph, _base=self, _delta=delta)

    def _refresh_from(self, graph: "CallGraph", base, delta) -> None:
        self.refreshed_from = base.version
        n, old_n = self.n, base.n
        if delta.succ_rows:
            rows = sorted(delta.succ_rows)
            values = [_sorted_row(graph._succ, r) for r in rows]
            self.succ_indptr, self.succ_indices = splice_csr(
                base.succ_indptr, base.succ_indices, rows, values, n
            )
        else:
            # no succ rows touched implies no new ids either
            self.succ_indptr, self.succ_indices = (
                base.succ_indptr,
                base.succ_indices,
            )
        if delta.pred_rows:
            rows = sorted(delta.pred_rows)
            values = [_sorted_row(graph._pred, r) for r in rows]
            self.pred_indptr, self.pred_indices = splice_csr(
                base.pred_indptr, base.pred_indices, rows, values, n
            )
        else:
            self.pred_indptr, self.pred_indices = (
                base.pred_indptr,
                base.pred_indices,
            )
        if delta.universe_changed:
            alive = np.zeros(n, dtype=bool)
            alive[:old_n] = base.alive
            for nid in delta.added:
                alive[nid] = True
            for nid in delta.removed:
                alive[nid] = False
            self.alive = alive
            self.live_ids = np.flatnonzero(alive).astype(INDEX_DTYPE)
        else:
            self.alive = base.alive
            self.live_ids = base.live_ids
        # waves are a pure function of the succ arrays: share when unchanged
        if self.succ_indptr is base.succ_indptr and base._waves is not False:
            self._waves = base._waves
        # meta columns: extend and patch only the touched ids
        patch = delta.added | delta.meta_touched | delta.removed
        for attr, column in base._meta_columns.items():
            if not patch and n == old_n:
                self._meta_columns[attr] = column
                continue
            new_column = np.zeros(n, dtype=column.dtype)
            new_column[:old_n] = column
            for nid in patch:
                node = graph._nodes[nid]
                value = getattr(node.meta, attr) if node is not None else None
                new_column[nid] = value or 0
            self._meta_columns[attr] = new_column
        # root-keyed analyses: carry those whose supporting reachable set
        # the delta provably left alone (no touched id is reachable; new
        # ids cannot be reachable then — any edge making one reachable
        # would touch an old reachable id)
        touched = [
            t
            for t in (delta.struct_touched | delta.meta_touched)
            if t < old_n
        ]
        touched_arr = np.fromiter(touched, dtype=np.int64, count=len(touched))
        for (kind, root), reach in base.analyses.items():
            if kind != "reach":
                continue
            if touched_arr.size and bool(reach[touched_arr].any()):
                continue
            self.analyses[("reach", root)] = _extend(reach, n, False)
            depth = base.analyses.get(("depth", root))
            if depth is not None:
                self.analyses[("depth", root)] = _extend(depth, n, -1)
            agg = base.analyses.get(("agg", root))
            if agg is not None:
                self.analyses[("agg", root)] = _extend(agg, n, 0)
            reachset = base.analyses.get(("reachset", root))
            if reachset is not None:
                self.analyses[("reachset", root)] = reachset

    @property
    def graph(self) -> "CallGraph":
        """The snapshotted graph, checked to still be at this version.

        The evaluate phase of the compile/evaluate split runs against a
        supplied snapshot (:func:`repro.core.pipeline.evaluate_compiled`)
        and must never silently read a graph that moved on — a stale
        snapshot raises instead of aliasing the live structure.
        """
        if self._graph.version != self.version:
            raise RuntimeError(
                "stale CsrSnapshot: the graph mutated since csr() was taken"
            )
        return self._graph

    @property
    def nbytes(self) -> int:
        """Resident bytes of the snapshot's numpy arrays.

        Used by the service-layer :class:`~repro.service.GraphStore` for
        byte-budgeted LRU eviction.  Includes lazily-built caches (meta
        columns, topological waves) at their current size.
        """
        total = (
            self.succ_indptr.nbytes
            + self.succ_indices.nbytes
            + self.pred_indptr.nbytes
            + self.pred_indices.nbytes
            + self.alive.nbytes
            + self.live_ids.nbytes
        )
        total += sum(column.nbytes for column in self._meta_columns.values())
        total += sum(
            value.nbytes
            for value in self.analyses.values()
            if isinstance(value, np.ndarray)
        )
        if isinstance(self._waves, list):
            total += sum(wave.nbytes for wave in self._waves)
        return total

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.succ_indptr)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.pred_indptr)

    def topological_waves(self) -> list[np.ndarray] | None:
        """Cached global Kahn waves; ``None`` when the graph has a cycle.

        A root-independent structural property of the snapshot (like
        :meth:`meta_column`): computed on first use, then shared by every
        condensation/aggregation over this graph version.
        """
        if self._waves is False:
            self._waves = peel_topological(
                self.succ_indptr, self.succ_indices, self.n
            )
        return self._waves

    def meta_column(self, attr: str, dtype=np.int64) -> np.ndarray:
        """Dense numpy column of one numeric/boolean ``NodeMeta`` attribute.

        Tombstone slots hold 0.  Cached on the snapshot for its lifetime
        (the underlying graph column cannot change while the versions
        match).
        """
        cached = self._meta_columns.get(attr)
        if cached is not None:
            return cached
        if self._graph.version != self.version:
            raise RuntimeError(
                "stale CsrSnapshot: the graph mutated since csr() was taken"
            )
        raw = self._graph.meta_column(attr)
        column = np.fromiter(
            (value or 0 for value in raw), dtype=dtype, count=self.n
        )
        self._meta_columns[attr] = column
        return column
