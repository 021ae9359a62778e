"""Selection + engine-walk scale benchmark with a seed-reference baseline.

Times the interned-id selection pipeline and the memoised execution
engine against a faithful re-implementation of the seed (pre-interning)
code paths:

* **selection baseline** — a string-keyed graph (``dict[str, set[str]]``
  adjacency) evaluated with the seed's copying accessors and
  string-set algebra, selector by selector;
* **engine baseline** — the current engine with every pure-structure
  cache replaced by a write-discarding stand-in (per-invocation target
  resolution, exactly the seed behaviour) plus the seed's linear-scan
  address/sled resolution restored via monkeypatching;
* **analysis baseline** — the pre-CSR dict/set graph kernels kept as
  the test oracle ``tests/cg/dict_kernels.py`` (dict-based Tarjan
  condensation, dict DP, bytearray sweep, deque BFS), timed against the
  CSR flat-array kernels.

Both baselines must produce *identical* results (selected sets,
``t_total``/``t_init`` per Table II cell) — the speedup is asserted on
top of that equivalence.  A ``BENCH_selection.json`` record is written
to the repository root so the performance trajectory is tracked:

    PYTHONPATH=src python benchmarks/bench_selection_scale.py
    PYTHONPATH=src python -m pytest benchmarks/bench_selection_scale.py -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro._util import compare
from repro.apps import PAPER_SPECS
from repro.cg.graph import CallGraph
from repro.core.pipeline import PipelineBuilder, evaluate_pipeline
from repro.core.spec.ast import AllExpr, Assign, CallExpr, RefExpr
from repro.core.spec.modules import load_spec
from repro.execution.engine import ExecutionEngine
from repro.experiments.runner import prepare_app, run_configuration

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_selection.json"

#: the 8k-node bench graph of benchmarks/conftest.py
BENCH_SCALE = 8000

#: acceptance floors (ISSUE 1): selection >=3x, engine walk >=2x
SELECTION_FLOOR = 3.0
ENGINE_FLOOR = 2.0

#: acceptance floor (ISSUE 5): CSR condensation + statement aggregation
#: >=5x over the dict-based kernels at the 8k-node bench graph
ANALYSIS_FLOOR = 5.0

#: acceptance floor (ISSUE 8): batched evaluation of >= SERVICE_BATCH
#: mixed specs over one warm snapshot >= 3x per-query sequential
#: throughput, every batched result bit-identical to sequential
SERVICE_FLOOR = 3.0
SERVICE_BATCH = 32

#: acceptance ceiling (ISSUE 10): the sharded, supervised service —
#: heartbeats, deadline checks, quarantine admission, health accounting
#: — must cost < 10% wall time over the unsupervised single-worker
#: service when no fault fires; the request wave driven per variant
#: (large enough that a run lasts tens of milliseconds — scheduler
#: noise on shorter runs swamps a sub-10% ratio)
SERVICE_SUPERVISION_REQUESTS = 32 * SERVICE_BATCH
SERVICE_SUPERVISION_REPS = 7

#: acceptance floor (ISSUE 9): re-selection after an
#: ``INCREMENTAL_EDITS``-edge delta through the mutation-journal path
#: (delta CSR refresh + support-set cache retention) >= 3x the same
#: edit replayed on a journal-less twin (from-scratch rebuild +
#: wholesale cache drop), results bit-identical
INCREMENTAL_FLOOR = 3.0
INCREMENTAL_EDITS = 16

#: multi-rank engine benchmark shape (serial vs multiprocessing backend)
MULTIRANK_RANKS = 8

#: acceptance ceiling: supervision (deadlines, integrity checks, health
#: accounting) must cost < 10% wall time over the raw multiprocessing
#: backend when no fault fires
SUPERVISED_OVERHEAD_CEILING = 0.10

#: acceptance ceiling: consuming the streaming merge must peak below
#: half the traced memory of loading every rank and merging in memory
TRACE_MEMORY_RATIO_CEILING = 0.5

#: Table II cells exercised for the engine comparison (config kwargs)
ENGINE_CELLS = (
    ("vanilla/-", dict(mode="vanilla")),
    ("inactive/-", dict(mode="inactive")),
    ("full/talp", dict(mode="full", tool="talp")),
    ("full/scorep", dict(mode="full", tool="scorep")),
    ("ic mpi/talp", dict(mode="ic", tool="talp", ic="mpi")),
    ("ic mpi/scorep", dict(mode="ic", tool="scorep", ic="mpi")),
    ("ic kernels/scorep", dict(mode="ic", tool="scorep", ic="kernels")),
    ("ic kernels coarse/talp", dict(mode="ic", tool="talp", ic="kernels coarse")),
)


# -- seed-reference selection -------------------------------------------------------
#
# A faithful re-implementation of the seed's string-keyed data structure
# and per-selector algorithms, evaluated straight off the spec AST.


class SeedGraph:
    """The seed ``CallGraph`` layout: name-keyed dict-of-set adjacency."""

    def __init__(self, graph: CallGraph):
        self.meta = {node.name: node.meta for node in graph.nodes()}
        self.succ: dict[str, set[str]] = {name: set() for name in self.meta}
        self.pred: dict[str, set[str]] = {name: set() for name in self.meta}
        for edge in graph.edges():
            self.succ[edge.caller].add(edge.callee)
            self.pred[edge.callee].add(edge.caller)

    # the seed's copying accessors
    def callees_of(self, name: str) -> set[str]:
        return set(self.succ.get(name, ()))

    def callers_of(self, name: str) -> set[str]:
        return set(self.pred.get(name, ()))

    def reachable_from(self, roots) -> set[str]:
        seen: set[str] = set()
        stack = [r for r in roots if r in self.meta]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.succ[name] - seen)
        return seen

    def reaching(self, targets) -> set[str]:
        seen: set[str] = set()
        stack = [t for t in targets if t in self.meta]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.pred[name] - seen)
        return seen

    def coarse(self, selected: set[str], critical: set[str]) -> set[str]:
        # the seed's top-down BFS, plus the root-seeding fix the CSR
        # selector ships: components without a zero-in-degree node
        # (top-level cycles) get one representative seeded so their
        # single-caller pass-throughs collapse too
        from collections import deque

        result = set(selected)
        order = sorted(self.meta)
        visited: set[str] = set()
        queue = deque(n for n in order if not self.pred[n])
        cursor = 0
        while True:
            while queue:
                name = queue.popleft()
                if name in visited:
                    continue
                visited.add(name)
                for callee in sorted(self.callees_of(name)):
                    if (
                        callee in result
                        and callee not in critical
                        and self.callers_of(callee) == {name}
                    ):
                        result.discard(callee)
                    queue.append(callee)
            while cursor < len(order) and order[cursor] in visited:
                cursor += 1
            if cursor == len(order):
                return result
            queue.append(order[cursor])


_META_FLAGS = {
    "inSystemHeader": "in_system_header",
    "inlineSpecified": "inline_marked",
    "virtual": "is_virtual",
    "defined": "has_body",
}
_METRICS = {
    "flops": lambda g, n: g.meta[n].flops,
    "loopDepth": lambda g, n: g.meta[n].loop_depth,
    "statements": lambda g, n: g.meta[n].statements,
    "callSites": lambda g, n: len(g.succ[n]),
    "callers": lambda g, n: len(g.pred[n]),
}


def seed_reference_select(graph: CallGraph, spec_source: str) -> frozenset[str]:
    """Evaluate a spec with the seed's string-set algorithms."""
    g = SeedGraph(graph)
    spec = load_spec(spec_source)
    named: dict[str, set[str]] = {}

    def ev(expr) -> set[str]:
        if isinstance(expr, AllExpr):
            return set(g.meta)
        if isinstance(expr, RefExpr):
            return set(named[expr.name])
        assert isinstance(expr, CallExpr)
        sel, args = expr.selector, expr.args
        if sel == "join":
            out: set[str] = set()
            for a in args:
                out |= ev(a)
            return out
        if sel == "subtract":
            out = ev(args[0])
            for a in args[1:]:
                out -= ev(a)
            return out
        if sel == "intersect":
            out = ev(args[0])
            for a in args[1:]:
                out &= ev(a)
            return out
        if sel == "complement":
            return set(g.meta) - ev(args[0])
        if sel in _META_FLAGS:
            attr = _META_FLAGS[sel]
            return {n for n in ev(args[0]) if getattr(g.meta[n], attr)}
        if sel in _METRICS:
            op, threshold = args[0].value, args[1].value
            fn = _METRICS[sel]
            return {
                n for n in ev(args[2]) if compare(op, float(fn(g, n)), threshold)
            }
        if sel == "byName":
            rx = re.compile(args[0].value)
            return {n for n in ev(args[1]) if rx.fullmatch(n)}
        if sel == "byPath":
            rx = re.compile(args[0].value)
            return {n for n in ev(args[1]) if rx.search(g.meta[n].source_path)}
        if sel == "onCallPathTo":
            return g.reaching(ev(args[0]))
        if sel == "onCallPathFrom":
            return g.reachable_from(ev(args[0]))
        if sel == "callPath":
            return g.reachable_from(ev(args[0])) & g.reaching(ev(args[1]))
        if sel == "coarse":
            critical = ev(args[1]) if len(args) > 1 else set()
            return g.coarse(ev(args[0]), critical)
        raise NotImplementedError(f"seed reference lacks selector {sel!r}")

    result: set[str] = set()
    for stmt in spec.statements:
        if isinstance(stmt, Assign):
            named[stmt.name] = ev(stmt.expr)
            result = named[stmt.name]
        else:
            result = ev(stmt)
    return frozenset(result)


# -- seed-reference engine mode ---------------------------------------------------


@contextmanager
def seed_execution_mode():
    """Restore the seed's per-call hot-path behaviour process-wide.

    * every engine resolves call targets and rebuilds function records
      per invocation (``defeat_memoization``),
    * Score-P address resolution scans the executable symbol table and
      all injected DSO symbols linearly per event, and
    * XRay ``sleds_of`` scans the whole sled table per query.
    """
    from repro.scorep import resolution
    from repro.xray import runtime as xray_runtime

    orig_post = ExecutionEngine.__post_init__
    orig_resolve = resolution.AddressResolver.resolve
    orig_sleds_of = xray_runtime.RegisteredObject.sleds_of

    def seed_post(self):
        orig_post(self)
        self.defeat_memoization()

    def seed_resolve(self, address):
        exe = self.loader.loaded.get(self.executable_name)
        if exe is not None and exe.region.contains(address):
            for sym in exe.binary.symtab:
                if sym.offset <= address - exe.base < sym.offset + sym.size:
                    self.resolved_queries += 1
                    return sym.name
        for start, (name, size) in self._injected.items():
            if start <= address < start + max(size, 1):
                self.resolved_queries += 1
                return name
        self.unresolved_queries += 1
        return None

    def seed_sleds_of(self, function_id):
        return [s for s in self.sleds if s.record.function_id == function_id]

    ExecutionEngine.__post_init__ = seed_post
    resolution.AddressResolver.resolve = seed_resolve
    xray_runtime.RegisteredObject.sleds_of = seed_sleds_of
    try:
        yield
    finally:
        ExecutionEngine.__post_init__ = orig_post
        resolution.AddressResolver.resolve = orig_resolve
        xray_runtime.RegisteredObject.sleds_of = orig_sleds_of


# -- measurement ------------------------------------------------------------------


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_selection(prepared) -> dict:
    """Per-spec selection timing: interned-id pipeline vs seed reference."""
    graph = prepared.app.graph
    specs = {}
    for name, source in PAPER_SPECS.items():
        entry = PipelineBuilder().build(load_spec(source))[0]
        new_result = evaluate_pipeline(entry, graph)
        ref_selected = seed_reference_select(graph, source)
        if new_result.selected != ref_selected:
            raise AssertionError(
                f"selection mismatch for {name!r}: interned-id and seed "
                f"reference disagree on {len(new_result.selected ^ ref_selected)}"
                " functions"
            )
        t_new = _best_of(lambda: evaluate_pipeline(entry, graph))
        t_ref = _best_of(lambda: seed_reference_select(graph, source))
        specs[name] = {
            "selected": len(new_result.selected),
            "seconds": t_new,
            "seed_seconds": t_ref,
            "speedup": t_ref / t_new,
        }
    total_new = sum(s["seconds"] for s in specs.values())
    total_ref = sum(s["seed_seconds"] for s in specs.values())
    return {
        "graph_nodes": len(graph),
        "graph_edges": graph.edge_count(),
        "specs": specs,
        "seconds": total_new,
        "seed_seconds": total_ref,
        "speedup": total_ref / total_new,
    }


def measure_selection_service(prepared) -> dict:
    """Batched multi-tenant evaluation vs per-query sequential (ISSUE 8).

    Builds a mixed batch of ``SERVICE_BATCH`` queries (the paper's four
    specifications plus the serve harness variants, cycled), evaluates
    it through the service stack — :class:`GraphStore` warm entry +
    :class:`BatchEvaluator` — and compares against evaluating every
    query independently with no shared state, after asserting each
    batched result is bit-identical to its sequential counterpart.
    Records cold (first batch: snapshot + cache build) and warm
    (steady-state) batch timings plus the store's warm/cold hit rates.
    """
    from repro.core.pipeline import compile_spec
    from repro.experiments.serve import spec_mix
    from repro.service import BatchEvaluator, GraphStore

    graph = prepared.app.graph
    mix = spec_mix()
    names = sorted(mix)
    batch_names = [names[i % len(names)] for i in range(SERVICE_BATCH)]
    specs = [compile_spec(mix[name], spec_name=name) for name in batch_names]

    # sequential reference: every query pays the full evaluation
    def sequential():
        return [evaluate_pipeline(spec.entry, graph) for spec in specs]

    seq_results = sequential()
    t_seq = _best_of(sequential)

    store = GraphStore()
    store.admit("bench", graph)
    evaluator = BatchEvaluator()
    t0 = time.perf_counter()
    cold_entry = store.entry("bench")  # cold: snapshot + cache build
    cold = evaluator.evaluate(specs, cold_entry)
    t_cold = time.perf_counter() - t0
    t_warm = _best_of(lambda: evaluator.evaluate(specs, store.entry("bench")))
    warm = evaluator.evaluate(specs, store.entry("bench"))

    for name, seq, batched in zip(batch_names, seq_results, cold.results):
        if seq.selected != batched.selected:
            raise AssertionError(
                f"cold batched result for {name!r} differs from sequential on "
                f"{len(seq.selected ^ batched.selected)} functions"
            )
    for name, seq, batched in zip(batch_names, seq_results, warm.results):
        if seq.selected != batched.selected:
            raise AssertionError(
                f"warm batched result for {name!r} differs from sequential on "
                f"{len(seq.selected ^ batched.selected)} functions"
            )
    return {
        "graph_nodes": len(graph),
        "graph_edges": graph.edge_count(),
        "batch_size": SERVICE_BATCH,
        "unique_specs": len(set(batch_names)),
        "deduped": cold.deduped,
        "cross_hits_cold": cold.cross_hits,
        "cross_hits_warm": warm.cross_hits,
        "sequential_seconds": t_seq,
        "sequential_requests_per_second": SERVICE_BATCH / t_seq,
        "cold_batch_seconds": t_cold,
        "warm_batch_seconds": t_warm,
        "batched_requests_per_second": SERVICE_BATCH / t_warm,
        "speedup": t_seq / t_warm,
        "store": store.stats.as_dict(),
        "bit_identical": True,
    }


def measure_service_supervision(prepared, scale: int = BENCH_SCALE) -> dict:
    """Healthy-path cost of service supervision + sharding (ISSUE 10).

    Drives the same ``SERVICE_SUPERVISION_REQUESTS`` mixed-spec wave
    through an unsupervised single-worker :class:`SelectionService` and
    through the supervised one (heartbeats, deadline checks, quarantine
    admission, health accounting — no fault injected), asserts the
    answers are bit-identical and the supervised health snapshot is
    clean (no restarts, no wedges, no lost requests, nothing
    quarantined), and records the wall-time overhead against
    ``SUPERVISED_OVERHEAD_CEILING``.  Interleaved best-of-
    ``SERVICE_SUPERVISION_REPS`` per variant: the warm per-request cost
    is small, so the ratio needs the scheduler noise squeezed out.

    Also records (no floor) multi-graph shard scaling: four independent
    graphs driven through ``shards=1`` vs ``shards=4``, answers
    asserted identical across shard counts.
    """
    from repro.experiments.runner import prepare_app as _prepare
    from repro.experiments.serve import spec_mix
    from repro.service import GraphStore, SelectionService, shard_of

    graph = prepared.app.graph
    mix = spec_mix()
    names = sorted(mix)
    plan = [names[i % len(names)] for i in range(SERVICE_SUPERVISION_REQUESTS)]

    def drive(service, keys):
        futures = [
            service.submit(
                keys[i % len(keys)],
                mix[name],
                tenant=f"t{i % 4}",
                spec_name=name,
            )
            for i, name in enumerate(plan)
        ]
        return [
            frozenset(f.result(timeout=120.0).selection.selected)
            for f in futures
        ]

    def run_once(supervised: bool):
        store = GraphStore()
        store.admit("bench", graph)
        service = SelectionService(
            store,
            window_seconds=0.0,
            max_batch=SERVICE_BATCH,
            supervised=supervised,
        )
        try:
            t0 = time.perf_counter()
            answers = drive(service, ["bench"])
            elapsed = time.perf_counter() - t0
            return elapsed, answers, service.stats_snapshot()["health"]
        finally:
            service.close()

    t_plain = t_sup = float("inf")
    plain_answers = sup_answers = health = None
    for _ in range(SERVICE_SUPERVISION_REPS):
        elapsed, plain_answers, _ = run_once(False)
        t_plain = min(t_plain, elapsed)
        elapsed, sup_answers, health = run_once(True)
        t_sup = min(t_sup, elapsed)
    if plain_answers != sup_answers:
        raise AssertionError(
            "supervised answers differ from the unsupervised baseline"
        )
    if health["restarts"] or health["wedges"] or health["lost"]:
        raise AssertionError(
            f"healthy supervised run reported faults: {health}"
        )
    quarantine = health["quarantine"]
    if quarantine["opened_total"] or quarantine["tracked"]:
        raise AssertionError(
            f"healthy supervised run quarantined specs: {quarantine}"
        )

    # multi-graph shard scaling: four independent graph objects (a graph
    # is owned by exactly one shard), same wave spread across their keys
    shard_nodes = max(600, scale // 4)
    copies = {
        f"bench-{i}": _prepare.__wrapped__("openfoam", shard_nodes).app.graph
        for i in range(4)
    }
    occupied = len({shard_of(key, 4) for key in copies})

    def run_sharded(shards: int):
        store = GraphStore()
        for key, copy in copies.items():
            store.admit(key, copy)
        service = SelectionService(
            store,
            window_seconds=0.0,
            max_batch=SERVICE_BATCH,
            shards=shards,
            supervised=True,
        )
        try:
            t0 = time.perf_counter()
            answers = drive(service, sorted(copies))
            return time.perf_counter() - t0, answers
        finally:
            service.close()

    t_one = t_four = float("inf")
    one_answers = four_answers = None
    for _ in range(2):
        elapsed, one_answers = run_sharded(1)
        t_one = min(t_one, elapsed)
        elapsed, four_answers = run_sharded(4)
        t_four = min(t_four, elapsed)
    if one_answers != four_answers:
        raise AssertionError("answers changed with the shard count")

    return {
        "requests": SERVICE_SUPERVISION_REQUESTS,
        "max_batch": SERVICE_BATCH,
        "graph_nodes": len(graph),
        "baseline_seconds": t_plain,
        "supervised_seconds": t_sup,
        "overhead": t_sup / t_plain - 1,
        "ceiling": SUPERVISED_OVERHEAD_CEILING,
        "bit_identical": True,
        "healthy": True,
        "shard_scaling": {
            "graphs": len(copies),
            "nodes_per_graph": shard_nodes,
            "requests": SERVICE_SUPERVISION_REQUESTS,
            "occupied_shards": occupied,
            "one_shard_seconds": t_one,
            "four_shard_seconds": t_four,
            "speedup": t_one / t_four,
            "bit_identical": True,
        },
    }


def _fresh_edges(graph):
    """Yield ``(caller, callee)`` pairs absent from ``graph`` — checked
    against the live graph at yield time, so consuming an edge and
    immediately adding it keeps the stream fresh forever.  Deterministic
    (prime-stride pairing), no RNG."""
    names = [node.name for node in graph.nodes()]
    n = len(names)
    stride = 0
    while True:
        stride += 7919  # prime: cycles through all pairings over time
        for i in range(n):
            j = (i + stride) % n
            if i == j:
                continue
            caller_id = graph.id_of(names[i])
            callee_id = graph.id_of(names[j])
            if callee_id in graph.succ_ids(caller_id):
                continue
            yield names[i], names[j]


def measure_incremental(prepared, edits: int = INCREMENTAL_EDITS) -> dict:
    """Delta refresh + re-selection vs full rebuild after a small edit.

    Two identical copies of the bench graph serve the paper's spec mix
    through warm :class:`GraphStore` entries.  Each rep applies the same
    ``edits`` fresh call edges to both copies and re-evaluates every
    spec: the *incremental* copy repairs its snapshot through the
    mutation journal and keeps every cross-run result whose recorded
    support set the delta provably missed; the *full* copy carries a
    zero-capacity journal (``copy(max_delta_entries=0)``), so the same
    edit forces a from-scratch CSR rebuild and a wholesale cache drop —
    the pre-ISSUE-9 behaviour.  Results must be bit-identical per rep
    (and, on the last rep, bit-identical to a cache-free fresh
    evaluation); the speedup floor is ``INCREMENTAL_FLOOR``.
    """
    from repro.core.pipeline import compile_spec
    from repro.experiments.serve import spec_mix
    from repro.service import BatchEvaluator, GraphStore

    inc_graph = prepared.app.graph.copy()
    full_graph = prepared.app.graph.copy(max_delta_entries=0)
    mix = spec_mix()
    specs = [compile_spec(mix[name], spec_name=name) for name in sorted(mix)]

    inc_store, full_store = GraphStore(), GraphStore()
    inc_store.admit("bench", inc_graph)
    full_store.admit("bench", full_graph)
    evaluator = BatchEvaluator()
    # warm both stores: snapshot built, cross-run caches populated
    evaluator.evaluate(specs, inc_store.entry("bench"))
    evaluator.evaluate(specs, full_store.entry("bench"))

    stream = _fresh_edges(inc_graph)
    reps = 3
    t_inc = t_full = float("inf")
    inc_batch = full_batch = None
    for _ in range(reps):
        for caller, callee in (next(stream) for _ in range(edits)):
            inc_graph.add_edge(caller, callee)
            full_graph.add_edge(caller, callee)
        t0 = time.perf_counter()
        inc_batch = evaluator.evaluate(specs, inc_store.entry("bench"))
        t_inc = min(t_inc, time.perf_counter() - t0)
        t0 = time.perf_counter()
        full_batch = evaluator.evaluate(specs, full_store.entry("bench"))
        t_full = min(t_full, time.perf_counter() - t0)
        for spec, inc_res, full_res in zip(
            specs, inc_batch.results, full_batch.results
        ):
            if inc_res.selected != full_res.selected:
                raise AssertionError(
                    f"incremental result for {spec.spec_name!r} differs from "
                    f"full rebuild on "
                    f"{len(inc_res.selected ^ full_res.selected)} functions"
                )
    # the delta paths must actually have engaged: every stale access on
    # the incremental store repaired through the journal, never on the
    # journal-less twin
    inc_stats, full_stats = inc_store.stats, full_store.stats
    if inc_stats.delta_refreshes != reps:
        raise AssertionError(
            f"journal answered {inc_stats.delta_refreshes} of {reps} "
            "incremental refreshes"
        )
    if full_stats.delta_refreshes != 0 or full_stats.cache_retained != 0:
        raise AssertionError("zero-capacity journal still served a delta")
    # last rep vs a cache-free fresh evaluation — selector purity gate
    for spec, inc_res in zip(specs, inc_batch.results):
        fresh = evaluate_pipeline(spec.entry, inc_graph)
        if inc_res.selected != fresh.selected:
            raise AssertionError(
                f"incremental result for {spec.spec_name!r} differs from a "
                f"fresh evaluation on "
                f"{len(inc_res.selected ^ fresh.selected)} functions"
            )
    touched = inc_stats.cache_retained + inc_stats.cache_dropped
    return {
        "graph_nodes": len(inc_graph),
        "graph_edges": inc_graph.edge_count(),
        "edits_per_delta": edits,
        "reps": reps,
        "specs": len(specs),
        "incremental_seconds": t_inc,
        "full_rebuild_seconds": t_full,
        "speedup": t_full / t_inc,
        "delta_refreshes": inc_stats.delta_refreshes,
        "cache_retained": inc_stats.cache_retained,
        "cache_dropped": inc_stats.cache_dropped,
        "retention_rate": inc_stats.cache_retained / touched if touched else 0.0,
        "bit_identical": True,
    }


def measure_analysis(prepared) -> dict:
    """Graph-kernel timing: CSR flat-array kernels vs the dict baseline.

    Times condensation (SCC partition of the subgraph reachable from
    ``main``), the statement-aggregation DP, the reachability sweep and
    BFS call depths, each against the pre-CSR dict/set implementations
    kept in the test oracle ``tests/cg/dict_kernels.py`` — after
    asserting the results are bit-for-bit identical.  Aggregation totals
    and call depths are memoised on the snapshot, so each timed CSR call
    clears the snapshot's analysis memo first and pays the full kernel.
    The acceptance floor applies to the combined condensation +
    aggregation speedup (``ANALYSIS_FLOOR``).
    """
    oracle_dir = str(REPO_ROOT / "tests" / "cg")
    if oracle_dir not in sys.path:
        sys.path.insert(0, oracle_dir)
    import dict_kernels

    from repro.cg import analysis
    from repro.cg import csr as csr_kernels

    graph = prepared.app.graph
    root_id = graph.id_of("main")
    snapshot = graph.csr()
    snapshot.topological_waves()  # structural caches warm, like meta columns

    def cold(fn):
        def run():
            snapshot.analyses.clear()
            return fn(graph, root_id)

        return run

    # equality gates: aggregation totals, partition, depths, sweep
    dict_agg = dict_kernels.aggregate_statement_ids(graph, root_id)
    csr_agg = cold(analysis.aggregate_statement_ids)()
    if dict_agg != csr_agg:
        raise AssertionError(
            "CSR aggregation differs from the dict baseline on "
            f"{len(set(dict_agg.items()) ^ set(csr_agg.items()))} entries"
        )
    dict_comp, dict_members = dict_kernels.condense(graph, root_id)
    _, csr_members = csr_kernels.condense(snapshot, root_id)
    if sorted(tuple(sorted(m)) for m in dict_members) != sorted(
        tuple(sorted(m)) for m in csr_members
    ):
        raise AssertionError("CSR condensation partition differs from baseline")

    if dict_kernels.call_depths(graph, root_id) != cold(
        analysis.call_depth_ids_from
    )():
        raise AssertionError("CSR call depths differ from baseline")
    if dict_kernels.reachable_ids(graph, [root_id]) != graph.reachable_ids(
        [root_id]
    ):
        raise AssertionError("CSR reachability sweep differs from baseline")

    def dict_condensation():
        comp_of, members = dict_kernels.condense(graph, root_id)
        comp_succ = dict_kernels.condensation_edges(graph, comp_of, members)
        dict_kernels.topo_order(comp_succ)

    entries = {
        "condensation": (
            lambda: csr_kernels.condense(snapshot, root_id),
            dict_condensation,
        ),
        "aggregate_statement_ids": (
            cold(analysis.aggregate_statement_ids),
            lambda: dict_kernels.aggregate_statement_ids(graph, root_id),
        ),
        "reachability_sweep": (
            lambda: graph.reachable_ids([root_id]),
            lambda: dict_kernels.reachable_ids(graph, [root_id]),
        ),
        "call_depths": (
            cold(analysis.call_depth_ids_from),
            lambda: dict_kernels.call_depths(graph, root_id),
        ),
    }
    kernels = {}
    for name, (csr_fn, dict_fn) in entries.items():
        t_csr = _best_of(csr_fn)
        t_dict = _best_of(dict_fn)
        kernels[name] = {
            "seconds": t_csr,
            "seed_seconds": t_dict,
            "speedup": t_dict / t_csr,
        }
    floored = ("condensation", "aggregate_statement_ids")
    total_csr = sum(kernels[name]["seconds"] for name in floored)
    total_dict = sum(kernels[name]["seed_seconds"] for name in floored)
    return {
        "graph_nodes": len(graph),
        "graph_edges": graph.edge_count(),
        "reachable_from_main": len(graph.reachable_ids([root_id])),
        "kernels": kernels,
        "seconds": total_csr,
        "seed_seconds": total_dict,
        "speedup": total_dict / total_csr,
        "results_identical": True,
    }


def measure_engine(prepared) -> dict:
    """Table II cell timing: memoised engine vs seed-mode engine."""
    ics = {k: v.ic for k, v in prepared.select_all().items()}

    def run_cell(spec):
        kwargs = dict(spec)
        ic_name = kwargs.pop("ic", None)
        if ic_name is not None:
            kwargs["ic"] = ics[ic_name]
        return run_configuration(prepared, **kwargs).result

    cells = {}
    for cell_name, spec in ENGINE_CELLS:
        t0 = time.perf_counter()
        new_result = run_cell(spec)
        t_new = time.perf_counter() - t0
        with seed_execution_mode():
            t0 = time.perf_counter()
            ref_result = run_cell(spec)
            t_ref = time.perf_counter() - t0
        for field_name in ("t_total", "t_init", "entry_events", "mpi_calls"):
            new_v = getattr(new_result, field_name)
            ref_v = getattr(ref_result, field_name)
            if new_v != ref_v:
                raise AssertionError(
                    f"engine mismatch in cell {cell_name!r}: {field_name} "
                    f"memoised={new_v!r} seed={ref_v!r}"
                )
        cells[cell_name] = {
            "t_total_virtual": new_result.t_total,
            "t_init_virtual": new_result.t_init,
            "seconds": t_new,
            "seed_seconds": t_ref,
            "speedup": t_ref / t_new,
        }
    total_new = sum(c["seconds"] for c in cells.values())
    total_ref = sum(c["seed_seconds"] for c in cells.values())
    return {
        "cells": cells,
        "seconds": total_new,
        "seed_seconds": total_ref,
        "speedup": total_ref / total_new,
    }


def measure_multirank(prepared, ranks: int = MULTIRANK_RANKS) -> dict:
    """Multi-rank engine benchmark: serial vs multiprocessing backend.

    Runs one imbalanced ``ic mpi/scorep`` configuration across ``ranks``
    simulated ranks with both backends, asserts the merged profile and
    the POP metrics are bit-identical, and records both wall times.  On
    a single-core container the pool adds overhead instead of speedup —
    the record keeps both numbers so the trajectory is visible once the
    bench runs on real cores; equality is the hard requirement.
    """
    from repro.multirank import ImbalanceSpec, flatten_merged
    from repro.workflow import run_app

    ic = prepared.select_all()["mpi"].ic
    spec = ImbalanceSpec(imbalance=0.3, seed=17)

    def run_cell(backend: str):
        return run_app(
            prepared.app,
            mode="ic",
            tool="scorep",
            ic=ic,
            ranks=ranks,
            imbalance=spec,
            backend=backend,
            config_name="bench-multirank",
        )

    t0 = time.perf_counter()
    serial = run_cell("serial")
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_cell("multiprocessing")
    t_parallel = time.perf_counter() - t0
    if serial.pop.app != parallel.pop.app:
        raise AssertionError("serial and multiprocessing POP metrics differ")
    if flatten_merged(serial.merged_profile) != flatten_merged(
        parallel.merged_profile
    ):
        raise AssertionError("serial and multiprocessing merged profiles differ")
    pop = serial.pop.app
    return {
        "ranks": ranks,
        "serial_seconds": t_serial,
        "multiprocessing_seconds": t_parallel,
        "speedup": t_serial / t_parallel,
        "elapsed_virtual": serial.result.t_total,
        "pop": {
            "load_balance": pop.load_balance,
            "communication_efficiency": pop.communication_efficiency,
            "parallel_efficiency": pop.parallel_efficiency,
        },
        "backends_identical": True,
    }


def measure_supervised_overhead(prepared, ranks: int = MULTIRANK_RANKS) -> dict:
    """Healthy-path cost of supervision over the raw mp backend.

    Runs the multi-rank bench cell with the plain multiprocessing
    backend and with ``SupervisedBackend`` wrapping it (same pool shape,
    no fault injected), asserts the POP metrics and merged profiles are
    bit-identical and that every rank reports a clean single-attempt
    health record, then records the wall-time overhead.  Best-of-2 per
    backend to keep scheduler noise out of the ratio; the acceptance
    ceiling is ``SUPERVISED_OVERHEAD_CEILING``.
    """
    from repro.multirank import ImbalanceSpec, flatten_merged
    from repro.workflow import run_app

    ic = prepared.select_all()["mpi"].ic
    spec = ImbalanceSpec(imbalance=0.3, seed=17)

    def run_cell(backend: str):
        return run_app(
            prepared.app,
            mode="ic",
            tool="scorep",
            ic=ic,
            ranks=ranks,
            imbalance=spec,
            backend=backend,
            config_name="bench-supervised",
        )

    t_raw = float("inf")
    t_sup = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        raw = run_cell("multiprocessing")
        t_raw = min(t_raw, time.perf_counter() - t0)
        t0 = time.perf_counter()
        supervised = run_cell("supervised:multiprocessing")
        t_sup = min(t_sup, time.perf_counter() - t0)
    if raw.pop.app != supervised.pop.app:
        raise AssertionError("supervised and raw mp POP metrics differ")
    if flatten_merged(raw.merged_profile) != flatten_merged(
        supervised.merged_profile
    ):
        raise AssertionError("supervised and raw mp merged profiles differ")
    health = supervised.health
    if health.per_rank is None or any(
        h.lost or h.retried for h in health.per_rank
    ):
        raise AssertionError(
            f"healthy supervised run reported failures: {health.render()}"
        )
    return {
        "ranks": ranks,
        "raw_mp_seconds": t_raw,
        "supervised_seconds": t_sup,
        "overhead": t_sup / t_raw - 1,
        "ceiling": SUPERVISED_OVERHEAD_CEILING,
        "results_identical": True,
        "all_ranks_healthy": True,
    }


def measure_dlb_rebalance(prepared, ranks: int = MULTIRANK_RANKS) -> dict:
    """DLB feedback-loop benchmark: convergence speed and POP gain.

    Runs the ``straggler-rescue`` scenario (one rank at 2× load) through
    ``run_rebalanced`` and records the iterations the LeWI loop took to
    converge plus the before/after POP metrics.  Improvement is the
    hard requirement; iteration count and wall time are the trajectory.
    """
    from repro.apps import scenario
    from repro.multirank.dlb import DlbPolicy
    from repro.multirank.scheduler import run_rebalanced

    ic = prepared.select_all()["mpi"].ic
    t0 = time.perf_counter()
    rebalanced = run_rebalanced(
        prepared.app,
        ranks=ranks,
        imbalance=scenario("straggler-rescue"),
        dlb=DlbPolicy(),
        max_iterations=6,
        mode="ic",
        tool="talp",
        ic=ic,
        config_name="bench-dlb",
    )
    seconds = time.perf_counter() - t0
    before = rebalanced.baseline.pop.app
    after = rebalanced.final.pop.app
    if after.parallel_efficiency <= before.parallel_efficiency:
        raise AssertionError(
            "DLB rebalancing failed to improve parallel efficiency: "
            f"{before.parallel_efficiency} -> {after.parallel_efficiency}"
        )
    if not rebalanced.converged:
        raise AssertionError("DLB rebalancing did not converge in 6 iterations")
    return {
        "ranks": ranks,
        "scenario": "straggler-rescue",
        "iterations": rebalanced.iterations,
        "converged": rebalanced.converged,
        "seconds": seconds,
        "pop_before": {
            "load_balance": before.load_balance,
            "communication_efficiency": before.communication_efficiency,
            "parallel_efficiency": before.parallel_efficiency,
        },
        "pop_after": {
            "load_balance": after.load_balance,
            "communication_efficiency": after.communication_efficiency,
            "parallel_efficiency": after.parallel_efficiency,
        },
    }


def measure_trace_pipeline(prepared, ranks: int = MULTIRANK_RANKS) -> dict:
    """Durable trace pipeline: write throughput, streaming-merge memory.

    Runs one traced multi-rank cell with ``trace_dir=`` persistence,
    asserts the streamed-from-disk timeline is bit-identical to the
    in-memory merge and that the watchdog stays silent on the healthy
    archive, then measures (a) location-write throughput (events/s
    through :class:`TraceWriter`) and (b) peak traced memory of
    consuming the streaming merge vs. loading + merging in memory —
    the bounded-memory claim, asserted as a ratio ceiling.  The
    archive's collective-wait fraction is recorded as
    ``healthy_wait_fraction``: the watchdog's regression baseline.
    """
    import tempfile
    import tracemalloc

    from repro.multirank import ImbalanceSpec, merge_rank_traces
    from repro.trace import load_location, open_merged_trace, scan_run
    from repro.trace.store import TraceWriter
    from repro.workflow import run_app

    ic = prepared.select_all()["mpi"].ic
    spec = ImbalanceSpec(imbalance=0.3, seed=17)
    with tempfile.TemporaryDirectory() as td:
        t0 = time.perf_counter()
        out = run_app(
            prepared.app,
            mode="ic",
            tool="scorep",
            ic=ic,
            ranks=ranks,
            imbalance=spec,
            backend="serial",
            tracing=True,
            trace_dir=td,
            config_name="bench-trace",
        )
        run_seconds = time.perf_counter() - t0
        streamed = open_merged_trace(td)
        if list(streamed.events()) != list(out.merged_trace.events):
            raise AssertionError(
                "streamed-from-disk merge differs from the in-memory timeline"
            )
        if scan_run(td):
            raise AssertionError("watchdog alerted on a healthy bench archive")
        total_events = sum(streamed.events_per_rank)
        wait_fraction = (
            sum(streamed.rank_offsets)
            / (streamed.ranks * streamed.elapsed_cycles)
            if streamed.elapsed_cycles > 0
            else 0.0
        )

        # write throughput: stream rank 0's events through a fresh writer
        events = load_location(td, 0)
        with tempfile.TemporaryDirectory() as wtd:
            def rewrite():
                writer = TraceWriter(wtd, 0)
                writer.write_events(events)
                writer.close()

            write_seconds = _best_of(rewrite)
        write_throughput = len(events) / write_seconds

        # peak traced memory: load-everything-and-merge vs streaming
        rank_ids = streamed.rank_ids
        del out, streamed, events
        tracemalloc.start()
        streams = [load_location(td, rank) for rank in rank_ids]
        merged = merge_rank_traces(streams, rank_ids=rank_ids)
        _, in_memory_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del merged, streams
        tracemalloc.start()
        consumed = 0
        for _ in open_merged_trace(td).events():
            consumed += 1
        _, streaming_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if consumed != total_events:
            raise AssertionError(
                f"streaming merge yielded {consumed} of {total_events} events"
            )
    memory_ratio = streaming_peak / in_memory_peak
    return {
        "ranks": ranks,
        "events": total_events,
        "run_seconds": run_seconds,
        "write_events_per_second": write_throughput,
        "in_memory_peak_bytes": in_memory_peak,
        "streaming_peak_bytes": streaming_peak,
        "memory_ratio": memory_ratio,
        "memory_ratio_ceiling": TRACE_MEMORY_RATIO_CEILING,
        "healthy_wait_fraction": wait_fraction,
        "bit_identical": True,
        "watchdog_silent": True,
    }


def collect_record(scale: int = BENCH_SCALE, ranks: int = MULTIRANK_RANKS) -> dict:
    prepared = prepare_app("openfoam", scale)
    selection = measure_selection(prepared)
    selection_service = measure_selection_service(prepared)
    service_supervision = measure_service_supervision(prepared, scale)
    incremental = measure_incremental(prepared)
    analysis = measure_analysis(prepared)
    engine = measure_engine(prepared)
    multirank = measure_multirank(prepared, ranks)
    supervised = measure_supervised_overhead(prepared, ranks)
    dlb_rebalance = measure_dlb_rebalance(prepared, ranks)
    trace_pipeline = measure_trace_pipeline(prepared, ranks)
    return {
        "benchmark": "bench_selection_scale",
        "app": "openfoam",
        "scale": scale,
        "selection": selection,
        "selection_service": selection_service,
        "service_supervision": service_supervision,
        "incremental": incremental,
        "analysis": analysis,
        "engine": engine,
        "multirank": multirank,
        "supervised_overhead": supervised,
        "dlb_rebalance": dlb_rebalance,
        "trace_pipeline": trace_pipeline,
        "floors": {
            "selection": SELECTION_FLOOR,
            "selection_service": SERVICE_FLOOR,
            "incremental": INCREMENTAL_FLOOR,
            "engine": ENGINE_FLOOR,
            "analysis": ANALYSIS_FLOOR,
            "supervised_overhead_ceiling": SUPERVISED_OVERHEAD_CEILING,
            "service_supervision_overhead_ceiling": SUPERVISED_OVERHEAD_CEILING,
            "trace_memory_ratio_ceiling": TRACE_MEMORY_RATIO_CEILING,
        },
    }


def write_record(record: dict, path: Path = RECORD_PATH) -> Path:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


# -- pytest entry points ----------------------------------------------------------


def test_selection_scale_speedup_and_record(benchmark, openfoam_prepared):
    """Selection >=3x and engine walk >=2x over the seed implementation,
    identical selected sets and Table II virtual timings; emits the
    BENCH_selection.json perf-trajectory record."""
    record = collect_record(BENCH_SCALE)
    write_record(record)
    assert record["selection"]["speedup"] >= SELECTION_FLOOR, record["selection"]
    svc = record["selection_service"]
    assert svc["bit_identical"], svc
    assert svc["batch_size"] >= SERVICE_BATCH, svc
    assert svc["speedup"] >= SERVICE_FLOOR, svc
    ssup = record["service_supervision"]
    assert ssup["bit_identical"] and ssup["healthy"], ssup
    assert ssup["overhead"] < SUPERVISED_OVERHEAD_CEILING, ssup
    assert ssup["shard_scaling"]["bit_identical"], ssup
    inc = record["incremental"]
    assert inc["bit_identical"], inc
    assert inc["delta_refreshes"] == inc["reps"], inc
    assert inc["speedup"] >= INCREMENTAL_FLOOR, inc
    assert record["engine"]["speedup"] >= ENGINE_FLOOR, record["engine"]
    assert record["analysis"]["speedup"] >= ANALYSIS_FLOOR, record["analysis"]
    assert record["analysis"]["results_identical"], record["analysis"]
    assert record["multirank"]["backends_identical"], record["multirank"]
    assert record["multirank"]["pop"]["load_balance"] < 1.0
    sup = record["supervised_overhead"]
    assert sup["results_identical"] and sup["all_ranks_healthy"], sup
    assert sup["overhead"] < SUPERVISED_OVERHEAD_CEILING, sup
    dlb = record["dlb_rebalance"]
    assert dlb["converged"], dlb
    assert (
        dlb["pop_after"]["parallel_efficiency"]
        > dlb["pop_before"]["parallel_efficiency"]
    ), dlb
    tp = record["trace_pipeline"]
    assert tp["bit_identical"] and tp["watchdog_silent"], tp
    assert tp["memory_ratio"] < TRACE_MEMORY_RATIO_CEILING, tp
    graph = openfoam_prepared.app.graph
    entry = PipelineBuilder().build(load_spec(PAPER_SPECS["mpi"]))[0]
    result = benchmark(lambda: evaluate_pipeline(entry, graph))
    assert len(result.selected) > 0


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=int,
        default=BENCH_SCALE,
        help=f"openfoam graph size (default {BENCH_SCALE}; paper scale 410666)",
    )
    parser.add_argument("--output", type=Path, default=RECORD_PATH)
    parser.add_argument(
        "--ranks",
        type=int,
        default=MULTIRANK_RANKS,
        help=f"multi-rank bench world size (default {MULTIRANK_RANKS})",
    )
    args = parser.parse_args()
    record = collect_record(args.scale, args.ranks)
    path = write_record(record, args.output)
    sel, eng, mr = record["selection"], record["engine"], record["multirank"]
    ana = record["analysis"]
    print(f"selection: {sel['seed_seconds']:.3f}s -> {sel['seconds']:.3f}s "
          f"({sel['speedup']:.1f}x, floor {SELECTION_FLOOR}x)")
    svc = record["selection_service"]
    print(f"service:   batch of {svc['batch_size']} mixed specs "
          f"({svc['unique_specs']} unique): sequential "
          f"{svc['sequential_requests_per_second']:,.0f} req/s -> batched "
          f"{svc['batched_requests_per_second']:,.0f} req/s "
          f"({svc['speedup']:.1f}x, floor {SERVICE_FLOOR}x), warm hit rate "
          f"{100 * svc['store']['hit_rate']:.0f}%, bit-identical")
    ssup = record["service_supervision"]
    sscale = ssup["shard_scaling"]
    print(f"service supervision: {ssup['requests']} requests, unsupervised "
          f"{ssup['baseline_seconds']:.3f}s -> supervised "
          f"{ssup['supervised_seconds']:.3f}s ({100 * ssup['overhead']:+.1f}%, "
          f"ceiling +{100 * SUPERVISED_OVERHEAD_CEILING:.0f}%); "
          f"{sscale['graphs']} graphs on {sscale['occupied_shards']} shards "
          f"{sscale['one_shard_seconds']:.3f}s -> "
          f"{sscale['four_shard_seconds']:.3f}s "
          f"({sscale['speedup']:.2f}x, recorded), bit-identical")
    inc = record["incremental"]
    print(f"incremental: {inc['edits_per_delta']}-edge delta, re-selection "
          f"{inc['full_rebuild_seconds'] * 1e3:.2f}ms full -> "
          f"{inc['incremental_seconds'] * 1e3:.2f}ms journal "
          f"({inc['speedup']:.1f}x, floor {INCREMENTAL_FLOOR}x), "
          f"{100 * inc['retention_rate']:.0f}% cache retained, bit-identical")
    print(f"analysis:  {ana['seed_seconds']:.3f}s -> {ana['seconds']:.3f}s "
          f"({ana['speedup']:.1f}x, floor {ANALYSIS_FLOOR}x; "
          f"{ana['reachable_from_main']} nodes reachable from main)")
    print(f"engine:    {eng['seed_seconds']:.3f}s -> {eng['seconds']:.3f}s "
          f"({eng['speedup']:.1f}x, floor {ENGINE_FLOOR}x)")
    print(f"multirank: {mr['ranks']} ranks, serial {mr['serial_seconds']:.3f}s, "
          f"mp {mr['multiprocessing_seconds']:.3f}s ({mr['speedup']:.2f}x), "
          f"LB {mr['pop']['load_balance']:.3f}, backends identical")
    sup = record["supervised_overhead"]
    print(f"supervised: raw mp {sup['raw_mp_seconds']:.3f}s, supervised "
          f"{sup['supervised_seconds']:.3f}s ({100 * sup['overhead']:+.1f}%, "
          f"ceiling +{100 * SUPERVISED_OVERHEAD_CEILING:.0f}%), "
          f"results identical, all ranks healthy")
    dlb = record["dlb_rebalance"]
    print(f"dlb:       {dlb['scenario']}, PE "
          f"{dlb['pop_before']['parallel_efficiency']:.3f} -> "
          f"{dlb['pop_after']['parallel_efficiency']:.3f} in "
          f"{dlb['iterations']} iteration(s) ({dlb['seconds']:.3f}s)")
    tp = record["trace_pipeline"]
    print(f"trace:     {tp['events']} events, write "
          f"{tp['write_events_per_second']:,.0f} ev/s, streaming peak "
          f"{tp['streaming_peak_bytes'] / 1e6:.1f}MB vs in-memory "
          f"{tp['in_memory_peak_bytes'] / 1e6:.1f}MB "
          f"(ratio {tp['memory_ratio']:.2f}, ceiling "
          f"{TRACE_MEMORY_RATIO_CEILING}), wait fraction "
          f"{tp['healthy_wait_fraction']:.4f}, bit-identical")
    print(f"record written to {path}")
    ok = (
        sel["speedup"] >= SELECTION_FLOOR
        and svc["speedup"] >= SERVICE_FLOOR
        and svc["bit_identical"]
        and ssup["overhead"] < SUPERVISED_OVERHEAD_CEILING
        and ssup["bit_identical"]
        and ssup["healthy"]
        and inc["speedup"] >= INCREMENTAL_FLOOR
        and inc["bit_identical"]
        and eng["speedup"] >= ENGINE_FLOOR
        and ana["speedup"] >= ANALYSIS_FLOOR
        and sup["overhead"] < SUPERVISED_OVERHEAD_CEILING
        and tp["memory_ratio"] < TRACE_MEMORY_RATIO_CEILING
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
