"""Layer probes and the per-layer values computed from their spans.

:func:`install_probes` patches one public boundary of each of the repo's
modules (``program``, ``cg``, ``core``, ``dyncapi``, ``xray``,
``execution``, ``scorep``, ``talp``, ``multirank``, ``trace``,
``service``) so a :class:`~perfbench.spans.Tracer` records a span per
call.  Methods are patched on their class; functions are patched on the
module where their caller looks them up (``repro.workflow.build_report``,
``repro.service.service.compile_spec``, ...).  The metrics themselves,
and what each should move, are defined in :mod:`perfbench.metrics`.
"""

from __future__ import annotations

import time

from perfbench.metrics import LAYER_METRICS
from perfbench.spans import Tracer
from perfbench.stats import percentile

#: per-layer time metric → the span names whose self time it sums
SELF_TIME_SPANS: dict[str, tuple[str, ...]] = {
    "program.load_s": ("program.load",),
    "program.map_region_s": ("program.map_region",),
    "dyncapi.startup_s": ("dyncapi.startup",),
    "xray.patch_s": ("xray.patch",),
    "xray.sled_fire_s": ("xray.sled_fire",),
    "execution.engine_s": ("execution.engine",),
    "scorep.handler_s": ("scorep.handler",),
    "scorep.finalize_s": ("scorep.finalize",),
    "talp.handler_s": ("talp.handler",),
    "talp.report_s": ("talp.report",),
    "multirank.reduce_s": ("multirank.reduce",),
    "trace.write_s": ("trace.write",),
    "trace.merge_s": ("trace.merge",),
    "trace.stream_merge_s": ("trace.stream_merge",),
    "trace.analysis_s": ("trace.analysis",),
    "core.compile_s": ("core.compile",),
    "cg.csr_s": ("cg.csr",),
    "core.evaluate_s": ("core.evaluate",),
    "service.batch_s": ("service.batch",),
}

#: set-up metric → span names whose self time it sums during set-up
SETUP_SPANS: dict[str, tuple[str, ...]] = {
    "apps.generate_s": ("apps.generate",),
    "program.compile_s": ("program.compile",),
    "program.link_s": ("program.link",),
    "cg.build_s": ("cg.build",),
    # cold selection: one-shot CaPI selection or the service's first queries
    "core.select_cold_s": (
        "core.select", "core.compile", "core.evaluate", "cg.csr", "service.batch",
    ),
    "service.admit_s": ("service.admit",),
}


def install_probes(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark traces; undo with ``restore``."""
    import repro.apps
    import repro.experiments.runner
    import repro.experiments.table2
    import repro.multirank.backends
    import repro.multirank.scheduler
    import repro.service.service
    import repro.trace.store
    import repro.workflow
    from repro.cg.graph import CallGraph
    from repro.core.capi import Capi
    from repro.core.selectors.base import EvalContext
    from repro.dyncapi.runtime import DynCapi
    from repro.dyncapi.scorep_bridge import ScorePBridge
    from repro.dyncapi.talp_bridge import TalpBridge
    from repro.execution.engine import ExecutionEngine
    from repro.program.compiler import Compiler
    from repro.program.linker import Linker
    from repro.program.loader import DynamicLoader
    from repro.program.memory import ProcessImage
    from repro.scorep.measurement import ScorePMeasurement
    from repro.service.batch import BatchEvaluator
    from repro.service.service import SelectionService
    from repro.xray.runtime import XRayRuntime

    def span(name: str, **kwargs):
        return lambda fn: tracer.wrap(fn, name, **kwargs)

    patch = tracer.patch
    # set-up: generate -> compile -> link -> MetaCG -> selection / admission
    for owner in (repro.apps, repro.experiments.runner):
        patch(owner, "build_lulesh", span("apps.generate"))
        patch(owner, "build_openfoam", span("apps.generate"))
    patch(Compiler, "compile", span("program.compile"))
    patch(Linker, "link", span("program.link"))
    patch(repro.workflow, "build_whole_program_cg", span("cg.build"))
    patch(Capi, "select", span("core.select"))
    patch(repro.workflow, "serve_selection", span("service.admit"))
    # image
    patch(DynamicLoader, "load_program", span("program.load"))
    patch(ProcessImage, "map_region", lambda fn: _map_region_probe(tracer, fn))
    patch(ProcessImage, "region_at", lambda fn: tracer.counting(fn, "program.region_at"))
    # startup and patching
    patch(DynCapi, "startup", lambda fn: _startup_probe(tracer, fn))
    patch(DynCapi, "startup_inactive", lambda fn: _startup_probe(tracer, fn))
    patch(XRayRuntime, "patch_function", span("xray.patch"))
    # engine and measurement
    patch(repro.experiments.table2, "run_configuration", tracer.with_rid)
    patch(XRayRuntime, "fire_sled", span("xray.sled_fire"))
    patch(ExecutionEngine, "run", span("execution.engine"))
    patch(ScorePBridge, "handler", span("scorep.handler"))
    patch(ScorePMeasurement, "finalize", span("scorep.finalize"))
    patch(ScorePMeasurement, "profile", span("scorep.finalize"))
    patch(TalpBridge, "handler", span("talp.handler"))
    patch(repro.workflow, "build_report", span("talp.report"))
    # ranks and traces
    patch(repro.multirank.backends, "execute_rank", span("multirank.rank", new_rid=True))
    patch(repro.multirank.scheduler, "merge_profiles", span("multirank.reduce"))
    patch(repro.multirank.scheduler, "build_pop_report", span("multirank.reduce"))
    patch(repro.trace.store.TraceWriter, "write_events", span("trace.write"))
    patch(repro.trace.store.TraceWriter, "close", span("trace.write"))
    patch(repro.trace.store, "write_definitions", span("trace.write"))
    patch(repro.trace.store, "write_health_record", span("trace.write"))
    patch(repro.multirank.scheduler, "merge_rank_traces", span("trace.merge"))
    patch(repro.trace.store, "load_location", span("trace.merge"))
    # selection service
    patch(repro.service.service, "compile_spec", span("core.compile"))
    patch(SelectionService, "_compile", lambda fn: _queue_wait_probe(tracer, fn))
    patch(CallGraph, "csr", span("cg.csr"))
    patch(EvalContext, "evaluate", span("core.evaluate"))
    patch(BatchEvaluator, "evaluate", span("service.batch"))


def _map_region_probe(tracer: Tracer, original):
    traced = tracer.wrap(original, "program.map_region")

    def map_region(self, name, size):
        region = traced(self, name, size)
        tracer.add("program.mapped_bytes", region.end - region.base)
        return region

    return map_region


def _startup_probe(tracer: Tracer, original):
    """DynCaPI startup span plus the XRay patch counters it moved."""
    traced = tracer.wrap(original, "dyncapi.startup")

    def startup(self, *args, **kwargs):
        before = self.xray.patcher.stats.mprotect_calls
        report = traced(self, *args, **kwargs)
        tracer.add(
            "xray.mprotect_calls", self.xray.patcher.stats.mprotect_calls - before
        )
        tracer.add("dyncapi.patched_functions", report.patched_functions)
        return report

    return startup


def _queue_wait_probe(tracer: Tracer, original):
    """Per-request queue wait, read where the shard starts work on a request.

    ``SelectionService._compile`` is the first call a request makes once a
    shard has gathered it; the parent commit has no public hook there.
    It records no span of its own (its self time stays unattributed) and
    scopes the request's compile span under one request id.
    """
    scoped = tracer.with_rid(original)

    def _compile(self, request):
        tracer.sample("service.queue_wait", time.monotonic() - request.enqueued_at)
        return scoped(self, request)

    return _compile


def pass_layer_values(
    tracer: Tracer, *, wall: float, blocks: float = 1, measured: dict | None = None
) -> dict[str, float]:
    """Per-layer values of one traced pass (or ``blocks`` served blocks).

    Times and counts are per pass (per block on serve-mixed); ``measured``
    supplies what the workload observed itself (rusage deltas,
    archive sizes, service statistics) and overrides the defaults.
    """
    own = tracer.self_by_name()
    calls = tracer.calls_by_name()
    values = {m.name: 0.0 for m in LAYER_METRICS}
    for name in SETUP_SPANS:
        values.pop(name)
    for metric, names in SELF_TIME_SPANS.items():
        values[metric] = sum(own.get(n, 0.0) for n in names) / blocks
    values["program.mapped_mb"] = tracer.totals["program.mapped_bytes"] / 2**20 / blocks
    values["dyncapi.patched_functions"] = tracer.totals["dyncapi.patched_functions"] / blocks
    values["xray.mprotect_calls"] = tracer.totals["xray.mprotect_calls"] / blocks
    values["xray.sled_fires"] = calls["xray.sled_fire"] / blocks
    values["program.region_at_calls"] = tracer.counts["program.region_at"] / blocks
    ranks = tracer.durations("multirank.rank")
    values["multirank.rank_s"] = sum(ranks) / blocks
    values["multirank.rank_max_s"] = max(ranks, default=0.0)
    values["multirank.ranks"] = len(ranks) / blocks
    values["core.compile_calls"] = calls["core.compile"] / blocks
    values["cg.csr_calls"] = calls["cg.csr"] / blocks
    waits = tracer.samples.get("service.queue_wait")
    if waits:
        values["service.queue_wait_p50_ms"] = 1e3 * percentile(waits, 50).value
        values["service.queue_wait_p99_ms"] = 1e3 * percentile(waits, 99).value
    values["other_s"] = wall - sum(own.values()) / blocks
    values.update(measured or {})
    return values


def setup_layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced set-up."""
    own = tracer.self_by_name()
    return {
        metric: sum(own.get(n, 0.0) for n in names)
        for metric, names in SETUP_SPANS.items()
    }
