"""What the benchmark measures, and what each layer metric should move.

:data:`END_TO_END` are the metrics a user of the system sees, with the
share of the parent's median by which each may worsen before a change is
rejected (the bounds in ``BENCHMARK.json``).  Every workload reports
every one of them; an *operation* is a Table II cell on
``table2-lulesh``, a traced world run on ``traces-openfoam`` and a
query on ``serve-mixed``.

:data:`LAYER_METRICS` lists every per-layer metric with the end-to-end
metric it should move and on which workload (the prediction written down
before anything is optimised), and marks the exact counts: those repeat
bit for bit from run to run, so a change in one is a behaviour change.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEndMetric:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: tuple[EndToEndMetric, ...] = (
    EndToEndMetric(
        "setup_s", "s", "lower", 0.25,
        "median set-up: generate, compile, link, MetaCG, cold selection or admission",
    ),
    EndToEndMetric(
        "wall_s", "s", "lower", 0.25,
        "median seconds per pass (serve-mixed: per block of served queries)",
    ),
    EndToEndMetric(
        "cpu_s", "s", "lower", 0.25,
        "median user+sys CPU seconds per pass or block",
    ),
    EndToEndMetric(
        "peak_rss_mb", "MiB", "lower", 0.1,
        "high-water resident memory of the benchmark process",
    ),
    EndToEndMetric(
        "throughput_qps", "1/s", "higher", 0.25,
        "operations completed per second",
    ),
    EndToEndMetric(
        "latency_p50_ms", "ms", "lower", 0.25,
        "median operation latency (serve-mixed: submit to result)",
    ),
    EndToEndMetric(
        "latency_p99_ms", "ms", "lower", 0.25,
        "99th-percentile operation latency, reported with its sample count",
    ),
)

SETUP_S = "setup_s on every workload"
IMAGE = (
    "wall_s, cpu_s and peak_rss_mb: mostly on table2-lulesh, slightly on "
    "traces-openfoam, not at all on serve-mixed"
)
STARTUP = "wall_s: most on traces-openfoam (repeated per rank), then table2-lulesh"
ENGINE = (
    "wall_s on table2-lulesh and traces-openfoam; the full and IC cells of "
    "table2-lulesh weigh most"
)
RANKS = "wall_s on traces-openfoam only (rank_max_s bounds a parallel backend)"
SERVICE_P50 = "throughput_qps and latency_p50_ms on serve-mixed; elsewhere only setup_s"
SERVICE_P99 = "latency_p99_ms on serve-mixed (queue wait sets the tail)"
WHOLE = "wall_s on every workload (time no span covers)"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: the end-to-end metric and workload this layer metric should move
    moves: str
    #: an exact count: must repeat bit for bit between runs of one commit
    exact: bool = False


LAYER_METRICS: tuple[LayerMetric, ...] = (
    # set-up layers (median over the run's set-ups)
    LayerMetric("apps.generate_s", "s", "lower", SETUP_S),
    LayerMetric("program.compile_s", "s", "lower", SETUP_S),
    LayerMetric("program.link_s", "s", "lower", SETUP_S),
    LayerMetric("cg.build_s", "s", "lower", SETUP_S),
    LayerMetric("core.select_cold_s", "s", "lower", SETUP_S),
    LayerMetric("service.admit_s", "s", "lower", SETUP_S),
    # image
    LayerMetric("program.load_s", "s", "lower", IMAGE),
    LayerMetric("program.map_region_s", "s", "lower", IMAGE),
    LayerMetric("program.mapped_mb", "MiB", "lower", IMAGE, exact=True),
    LayerMetric("program.minor_faults", "count", "lower", IMAGE),
    # startup and patching
    LayerMetric("dyncapi.startup_s", "s", "lower", STARTUP),
    LayerMetric("dyncapi.patched_functions", "count", "lower", STARTUP, exact=True),
    LayerMetric("xray.patch_s", "s", "lower", STARTUP),
    LayerMetric(
        "xray.mprotect_calls", "count", "lower",
        STARTUP + "; feeds the virtual cost model, so it must never change",
        exact=True,
    ),
    # engine and measurement
    LayerMetric("xray.sled_fires", "count", "lower", ENGINE, exact=True),
    LayerMetric("xray.sled_fire_s", "s", "lower", ENGINE),
    LayerMetric("program.region_at_calls", "count", "lower", ENGINE),
    LayerMetric("execution.engine_s", "s", "lower", ENGINE),
    LayerMetric("scorep.handler_s", "s", "lower", ENGINE),
    LayerMetric("scorep.finalize_s", "s", "lower", ENGINE),
    LayerMetric("talp.handler_s", "s", "lower", ENGINE),
    LayerMetric("talp.report_s", "s", "lower", ENGINE),
    # ranks and traces
    LayerMetric("multirank.rank_s", "s", "lower", RANKS),
    LayerMetric("multirank.rank_max_s", "s", "lower", RANKS),
    LayerMetric("multirank.ranks", "count", "lower", RANKS),
    LayerMetric("multirank.reduce_s", "s", "lower", RANKS),
    LayerMetric("trace.write_s", "s", "lower", RANKS),
    LayerMetric("trace.events", "count", "lower", RANKS, exact=True),
    LayerMetric("trace.archive_mb", "MiB", "lower", RANKS),
    LayerMetric("trace.merge_s", "s", "lower", RANKS),
    LayerMetric("trace.stream_merge_s", "s", "lower", RANKS),
    LayerMetric("trace.analysis_s", "s", "lower", RANKS),
    # selection service (per block of served queries)
    LayerMetric("core.compile_s", "s", "lower", SERVICE_P50),
    LayerMetric("core.compile_calls", "count", "lower", SERVICE_P50),
    LayerMetric("service.compile_hit_ratio", "ratio", "higher", SERVICE_P50),
    LayerMetric("cg.csr_s", "s", "lower", SERVICE_P50),
    LayerMetric("cg.csr_calls", "count", "lower", SERVICE_P50),
    LayerMetric("service.cold_builds", "count", "lower", SERVICE_P50),
    LayerMetric("service.delta_refreshes", "count", "higher", SERVICE_P50),
    LayerMetric("service.invalidations", "count", "lower", SERVICE_P50),
    LayerMetric("service.warm_hit_rate", "ratio", "higher", SERVICE_P50),
    LayerMetric("core.evaluate_s", "s", "lower", SERVICE_P50),
    LayerMetric("service.batch_s", "s", "lower", SERVICE_P50),
    LayerMetric("service.batches", "count", "lower", SERVICE_P50),
    LayerMetric("service.mean_batch_size", "count", "higher", SERVICE_P50),
    LayerMetric("service.dedup_ratio", "ratio", "higher", SERVICE_P50),
    LayerMetric("service.queue_wait_p50_ms", "ms", "lower", SERVICE_P99),
    LayerMetric("service.queue_wait_p99_ms", "ms", "lower", SERVICE_P99),
    LayerMetric("service.edit_latency_p50_ms", "ms", "lower", SERVICE_P50),
    # whole pass
    LayerMetric("other_s", "s", "lower", WHOLE),
    LayerMetric(
        "trace_overhead", "ratio", "lower",
        "none: traced pass wall over untraced pass wall, the cost of the probes",
    ),
    LayerMetric(
        "error_rate", "ratio", "lower",
        "every workload: failed or wrong operations over operations attempted",
    ),
)
