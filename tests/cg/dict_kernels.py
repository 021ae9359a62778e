"""Dict/set reference implementations of the call-graph kernels.

These are the pre-CSR graph kernels: id-set adjacency walks, a
dict-based iterative Tarjan, set-valued condensation edges, Kahn order
over a list of sets, and the dict longest-path DP.  :mod:`repro.cg.csr`
and :mod:`repro.cg.analysis` replaced them; they are kept here as the
oracle the CSR kernels must agree with bit-for-bit, and as the
baseline the ``analysis`` section of ``benchmarks/bench_selection_scale.py``
times the CSR kernels against.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.cg.graph import CallGraph


def call_depths(graph: CallGraph, root_id: int) -> dict[int, int]:
    """Shortest call depth per reachable id: deque BFS over id sets."""
    depths = {root_id: 0}
    queue = deque([root_id])
    succ = graph.succ_ids
    while queue:
        nid = queue.popleft()
        base = depths[nid] + 1
        for callee in succ(nid):
            if callee not in depths:
                depths[callee] = base
                queue.append(callee)
    return depths


def reachable_ids(
    graph: CallGraph, seeds: Iterable[int], *, reverse: bool = False
) -> set[int]:
    """Reachability: bytearray visited array over id-set adjacency.

    ``reverse`` walks callers instead of callees (the ids from which a
    seed is reachable).
    """
    visited = bytearray(graph.id_bound)
    stack: list[int] = []
    for nid in seeds:
        if not visited[nid]:
            visited[nid] = 1
            stack.append(nid)
    out = list(stack)
    adjacent = graph.pred_ids if reverse else graph.succ_ids
    while stack:
        nid = stack.pop()
        for nxt in adjacent(nid):
            if not visited[nxt]:
                visited[nxt] = 1
                stack.append(nxt)
                out.append(nxt)
    return set(out)


def condense(
    graph: CallGraph, root_id: int
) -> tuple[dict[int, int], list[list[int]]]:
    """Tarjan SCC over the subgraph reachable from ``root_id`` (iterative).

    Returns ``(comp_of, comp_members)`` where ``comp_of`` maps a node id
    to its component id and ``comp_members[cid]`` lists member node ids.
    """
    reachable = reachable_ids(graph, [root_id])
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp_of: dict[int, int] = {}
    comp_members: list[list[int]] = []
    counter = 0

    succ = graph.succ_ids
    call_stack: list[tuple[int, list[int], int]] = []
    for start in reachable:
        if start in index:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        call_stack.append((start, [c for c in succ(start) if c in reachable], 0))
        while call_stack:
            node, children, child_pos = call_stack[-1]
            advanced = False
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if child not in index:
                    call_stack[-1] = (node, children, child_pos)
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    call_stack.append(
                        (child, [c for c in succ(child) if c in reachable], 0)
                    )
                    advanced = True
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            if advanced:
                continue
            call_stack.pop()
            if call_stack:
                parent = call_stack[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                members = []
                cid = len(comp_members)
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.append(member)
                    comp_of[member] = cid
                    if member == node:
                        break
                comp_members.append(members)
    return comp_of, comp_members


def condensation_edges(
    graph: CallGraph, comp_of: dict[int, int], comp_members: list[list[int]]
) -> list[set[int]]:
    """Cross-component successor sets of the condensation DAG."""
    comp_succ: list[set[int]] = [set() for _ in comp_members]
    succ = graph.succ_ids
    get_comp = comp_of.get
    for cid, members in enumerate(comp_members):
        targets = comp_succ[cid]
        for member in members:
            for callee in succ(member):
                tgt = get_comp(callee)
                if tgt is not None and tgt != cid:
                    targets.add(tgt)
    return comp_succ


def topo_order(comp_succ: list[set[int]]) -> list[int]:
    """Explicit topological order of the condensation (callers first).

    Kahn's algorithm over the cross-component edges.  Unlike relying on
    Tarjan's emission order (reverse-topological by construction, but an
    implementation detail of the traversal), this is order-correct for
    any SCC labelling.
    """
    indegree = [0] * len(comp_succ)
    for targets in comp_succ:
        for tgt in targets:
            indegree[tgt] += 1
    ready = [cid for cid, deg in enumerate(indegree) if deg == 0]
    order: list[int] = []
    while ready:
        cid = ready.pop()
        order.append(cid)
        for tgt in comp_succ[cid]:
            indegree[tgt] -= 1
            if indegree[tgt] == 0:
                ready.append(tgt)
    return order


def aggregate_statement_ids(
    graph: CallGraph, root_id: int, *, metric: Callable[[int], int] | None = None
) -> dict[int, int]:
    """Statement aggregation: longest path sums over the condensation.

    ``metric`` defaults to the node's statement count; the kernel tests
    pass other per-id metrics to drive the CSR DP kernels directly.
    """
    metric = metric or (lambda nid: graph.meta_of(nid).statements)
    comp_of, comp_members = condense(graph, root_id)
    comp_metric = [sum(metric(m) for m in members) for members in comp_members]
    comp_succ = condensation_edges(graph, comp_of, comp_members)
    order = topo_order(comp_succ)
    best: dict[int, int] = {}
    root_comp = comp_of[root_id]
    best[root_comp] = comp_metric[root_comp]
    # longest-path DP over the condensation in topological order
    # (callers relaxed before their callees)
    for cid in order:
        if cid not in best:
            continue
        base = best[cid]
        for tgt in comp_succ[cid]:
            cand = base + comp_metric[tgt]
            if cand > best.get(tgt, -1):
                best[tgt] = cand
    return {
        member: best[cid]
        for cid, members in enumerate(comp_members)
        if cid in best
        for member in members
    }
