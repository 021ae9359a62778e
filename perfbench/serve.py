"""The serve-mixed workload: a closed loop against the selection service.

One client thread keeps :data:`OUTSTANDING` queries in flight against a
``serve_selection`` service over LULESH (3,360 nodes + 581 edges, below
the kernels' vectorisation threshold) and OpenFOAM at 20k (33,754, above
it), one shard.  A closed loop models callers that each wait for their
answer: a slower service receives proportionally less load, so
throughput equals outstanding requests over latency.

Queries are drawn from a spec pool made from the workload seed: the four
paper specs plus ``flops``/``callDepth``/``onCallPathTo``/``intersect``
variants whose thresholds give distinct structural cache keys.  Every
:data:`EDIT_EVERY`-th submission also grafts a hot kernel under ``main``
of one graph, so writes (journal, delta CSR refresh, invalidation) run
beside the reads.  Answers are checked afterwards by :mod:`perfbench.oracle`.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from perfbench.layers import install_probes, pass_layer_values
from perfbench.oracle import Answer, EditRecord, check_answers
from perfbench.spans import Tracer
from perfbench.stats import median, percentile

LULESH_NODES = 3360
OPENFOAM_NODES = 20_000
OUTSTANDING = 16
EDIT_EVERY = 50
#: completed queries per block: the serve workload's unit for wall_s/cpu_s
BLOCK = 256
WARMUP_SECONDS = 1.0
#: share of queries whose answer is kept for the oracle (seeded draw)
KEEP_SHARE = 1 / 64
#: answers per run re-derived by the oracle
ORACLE_SAMPLE = 32
VARIANTS_PER_FAMILY = 16


def spec_pool(seed: int) -> list[tuple[str, str]]:
    """(name, source) pairs: the paper's four specs plus seeded variants.

    Each family's thresholds are stratified: one seeded draw from each of
    :data:`VARIANTS_PER_FAMILY` equal slices of its range.  Seeds change
    the structural keys (and so which results are shared) but hardly the
    pool's mix of cheap and expensive selections.
    """
    from repro.apps import PAPER_SPECS

    rng = random.Random(f"serve-mixed-specs:{seed}")
    pool = list(PAPER_SPECS.items())
    families = (
        ("flops", 1, 200, 'flops(">=", {}, %%)'),
        ("depth", 1, 25, 'callDepth("<=", {}, %%)'),
        ("path-to-kernel", 1, 150,
         'onCallPathTo(flops(">=", {}, loopDepth(">=", 1, %%)))'),
        ("main-and-flops", 1, 150,
         'intersect(onCallPathFrom(byName("main", %%)), flops(">=", {}, %%))'),
    )
    for family, low, high, template in families:
        step = (high - low) / VARIANTS_PER_FAMILY
        for i in range(VARIANTS_PER_FAMILY):
            value = low + int(step * i) + rng.randrange(max(1, int(step)))
            pool.append((f"{family}-{value}", template.format(value)))
    return pool


def graft(index: int):
    """An edit adding a hot kernel ``bench_graft_<index>`` under ``main``."""
    from repro.cg.graph import NodeMeta

    def mutate(graph) -> None:
        name = f"bench_graft_{index}"
        graph.add_node(
            name, NodeMeta(flops=64, loop_depth=2, statements=12, has_body=True)
        )
        graph.add_edge("main", name)

    return mutate


@dataclass
class _Edit:
    submitted: float
    graph_key: str
    mutate: object
    future: object
    done: float = 0.0


@dataclass
class Window:
    """One stretch of the closed loop and what its queries returned."""

    start: float
    end: float = 0.0
    #: when every query submitted in the window had resolved
    drained: float = 0.0
    #: (perf_counter, process_time) at the start and after every BLOCK completions
    marks: list[tuple[float, float]] = field(default_factory=list)
    completed_in_window: int = 0
    attempted: int = 0
    #: submit-to-result latency of every query submitted in the window
    latencies: array = field(default_factory=lambda: array("d"))
    errors: list[BaseException] = field(default_factory=list)
    #: (graph key, spec index, graph version, selected) of the kept answers;
    #: only a seeded share is kept, so memory does not grow with throughput
    kept: list[tuple] = field(default_factory=list)


class ClosedLoop:
    """One client thread keeping ``OUTSTANDING`` queries in flight."""

    def __init__(self, service, pool, keys, seed: int) -> None:
        self.service = service
        self.pool = pool
        self.keys = keys
        self.rng = random.Random(f"serve-mixed-draws:{seed}")
        self.keep_rng = random.Random(f"serve-mixed-keep:{seed}")
        self.slots = threading.Semaphore(OUTSTANDING)
        self.lock = threading.Lock()
        self.edits: list[_Edit] = []
        self.submitted = 0
        #: the window whose completions mark blocks, while it is open
        self.current: Window | None = None

    def run(self, seconds: float) -> Window:
        """Submit for ``seconds``, then wait for everything in flight."""
        window = Window(start=time.perf_counter())
        window.marks.append((window.start, time.process_time()))
        self.current = window
        end = window.start + seconds
        while time.perf_counter() < end:
            self.slots.acquire()
            self.submitted += 1
            if self.submitted % EDIT_EVERY == 0:
                self._submit_edit()
            key = self.rng.choice(self.keys)
            spec = self.rng.randrange(len(self.pool))
            name, source = self.pool[spec]
            done = partial(
                self._done, window, key, spec,
                self.keep_rng.random() < KEEP_SHARE, time.perf_counter(),
            )
            self.service.submit(key, source, tenant="client", spec_name=name)\
                .add_done_callback(done)
            window.attempted += 1
        with self.lock:
            window.end = time.perf_counter()
            self.current = None
        self.drain()
        window.drained = time.perf_counter()
        return window

    def _submit_edit(self) -> None:
        key = self.rng.choice(self.keys)
        mutate = graft(len(self.edits))
        edit = _Edit(time.perf_counter(), key, mutate, None)
        edit.future = self.service.submit_edit(key, mutate)
        self.edits.append(edit)
        edit.future.add_done_callback(
            lambda _f, e=edit: setattr(e, "done", time.perf_counter())
        )

    def _done(self, window, key, spec, keep, submitted, future) -> None:
        done = time.perf_counter()
        error = future.exception()
        with self.lock:
            window.latencies.append(done - submitted)
            if error is not None:
                window.errors.append(error)
            elif keep:
                response = future.result()
                window.kept.append(
                    (key, spec, response.graph_version, response.selection.selected)
                )
            if self.current is window:
                window.completed_in_window += 1
                if window.completed_in_window % BLOCK == 0:
                    window.marks.append((done, time.process_time()))
        self.slots.release()

    def drain(self) -> None:
        """Wait until every query and edit submitted so far has resolved."""
        for _ in range(OUTSTANDING):
            self.slots.acquire()
        for _ in range(OUTSTANDING):
            self.slots.release()
        for edit in self.edits:
            edit.future.exception(timeout=60.0)


def _blocks(window: Window) -> tuple[list[float], list[float]]:
    walls, cpus = [], []
    for (t0, c0), (t1, c1) in zip(window.marks, window.marks[1:]):
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
    return walls, cpus


class ServeMixed:
    name = "serve-mixed"
    op = "query"
    ops = "queries"
    setups = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.pool = spec_pool(seed)
        self.apps = None
        self.service = None

    def setup(self) -> None:
        """Build both apps, admit them, and answer every pool spec once, cold."""
        import repro.apps
        import repro.workflow

        apps = {
            "lulesh": repro.workflow.build_app(
                repro.apps.build_lulesh(target_nodes=LULESH_NODES)
            ),
            "openfoam": repro.workflow.build_app(
                repro.apps.build_openfoam(target_nodes=OPENFOAM_NODES)
            ),
        }
        service = repro.workflow.serve_selection(apps, shards=1, seed=self.seed)
        cold = [
            service.submit(key, source, tenant="setup", spec_name=name)
            for key in apps
            for name, source in self.pool
        ]
        for future in cold:
            future.result(timeout=120.0)
        self.apps, self.service = apps, service

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        self.apps = self.service = None

    def run(self, seconds: float, *, trace: bool) -> dict:
        """Drive the closed loop; returns the measurements and the checks."""
        keys = sorted(self.apps)
        gc.collect()
        # the oracle's private pre-edit copies (outside every timed window)
        pristine = {key: self.apps[key].graph.copy() for key in keys}
        base_versions = {key: self.apps[key].graph.version for key in keys}
        loop = ClosedLoop(self.service, self.pool, keys, self.seed)
        loop.run(WARMUP_SECONDS)
        out: dict = {"tracers": []}
        if not trace:
            windows = [loop.run(seconds)]
            out["e2e"] = _end_to_end(windows[0])
        else:
            untraced = loop.run(seconds / 2)
            tracer = Tracer()
            before = _service_counters(self.service)
            edits_before = len(loop.edits)
            install_probes(tracer)
            try:
                traced = loop.run(seconds / 2)
            finally:
                tracer.restore()
            after = _service_counters(self.service)
            windows = [untraced, traced]
            out["tracers"].append(("traced", tracer))
            # per-layer values are per BLOCK queries served, drain included
            blocks = traced.attempted / BLOCK
            measured = _service_layer_values(before, after, blocks)
            edit_latencies = [e.done - e.submitted for e in loop.edits[edits_before:]]
            if edit_latencies:
                measured["service.edit_latency_p50_ms"] = (
                    1e3 * percentile(edit_latencies, 50).value
                )
            out["layers"] = pass_layer_values(
                tracer,
                wall=(traced.drained - traced.start) / blocks,
                blocks=blocks,
                measured=measured,
            )
            out["trace_overhead"] = median(_blocks(traced)[0]) / median(
                _blocks(untraced)[0]
            )
        errors = [e for w in windows for e in w.errors]
        problems = [f"query failed: {type(e).__name__}: {e}" for e in errors[:5]]
        kept = [answer for w in windows for answer in w.kept]
        rng = random.Random(f"serve-mixed-oracle:{self.seed}")
        answers = [
            Answer(
                graph_key=key,
                source=self.pool[spec][1],
                graph_version=version,
                selected=selected,
            )
            for key, spec, version, selected in rng.sample(
                kept, min(ORACLE_SAMPLE, len(kept))
            )
        ]
        edits = [
            EditRecord(e.graph_key, e.future.result(), e.mutate) for e in loop.edits
        ]
        wrong = check_answers(pristine, base_versions, edits, answers)
        out["attempted"] = sum(w.attempted for w in windows)
        out["failed"] = len(errors) + len(wrong)
        out["problems"] = problems + wrong
        out["oracle_checked"] = len(answers)
        return out


def _end_to_end(window: Window) -> dict:
    """End-to-end metrics of one untraced window: name -> (value, samples, note)."""
    walls, cpus = _blocks(window)
    p50, p99 = percentile(window.latencies, 50), percentile(window.latencies, 99)
    return {
        "wall_s": (median(walls), len(walls), f"per block of {BLOCK} queries"),
        "cpu_s": (median(cpus), len(cpus), f"per block of {BLOCK} queries"),
        "throughput_qps": (
            window.completed_in_window / (window.end - window.start),
            window.completed_in_window,
            f"{OUTSTANDING} outstanding, closed loop",
        ),
        "latency_p50_ms": (1e3 * p50.value, p50.n, p50.describe("s")),
        "latency_p99_ms": (1e3 * p99.value, p99.n, p99.describe("s")),
    }


def _service_counters(service) -> dict[str, int]:
    s, store = service.stats, service.store.stats
    return {
        "compile_hits": s.compile_hits,
        "compile_misses": s.compile_misses,
        "batches": s.batches,
        "batched_requests": s.batched_requests,
        "deduped": s.deduped,
        "warm_hits": store.warm_hits,
        "cold_builds": store.cold_builds,
        "invalidations": store.invalidations,
        "delta_refreshes": store.delta_refreshes,
    }


def _service_layer_values(before: dict, after: dict, blocks: float) -> dict[str, float]:
    d = {k: after[k] - before[k] for k in after}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "service.compile_hit_ratio": ratio(
            d["compile_hits"], d["compile_hits"] + d["compile_misses"]
        ),
        "service.cold_builds": d["cold_builds"] / blocks,
        "service.delta_refreshes": d["delta_refreshes"] / blocks,
        "service.invalidations": d["invalidations"] / blocks,
        "service.warm_hit_rate": ratio(
            d["warm_hits"], d["warm_hits"] + d["cold_builds"]
        ),
        "service.batches": d["batches"] / blocks,
        "service.mean_batch_size": ratio(d["batched_requests"], d["batches"]),
        "service.dedup_ratio": ratio(d["deduped"], d["batched_requests"]),
    }
