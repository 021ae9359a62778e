"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table2-lulesh --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads one after another, each in
its own process (so each reports its own memory high-water mark).

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``table2-lulesh`` — one pass is ``compute_table2_app`` on LULESH;
* ``traces-openfoam`` — one pass is a traced 8-rank OpenFOAM world,
  its streaming merge and the wait-state / critical-path analyses;
* ``serve-mixed`` — a closed loop of selection queries and graph edits.

A run sets the workload up several times (``setup_s`` is the median), then
measures for ``--seconds`` and checks every output it measured.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones.  A human-readable table comes first; the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``.  A full record (environment stamp, every sample count, the
layer -> end-to-end prediction of each per-layer metric) is written to
``perfbench/out/``, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# run as a script: import the repo's sources and this package by name,
# never the script's own directory as a top-level module path
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.batch import Table2Lulesh, TracesOpenfoam  # noqa: E402
from perfbench.hostspeed import loop_ms  # noqa: E402
from perfbench.layers import (  # noqa: E402
    install_probes,
    pass_layer_values,
    setup_layer_values,
)
from perfbench.metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from perfbench.serve import ServeMixed  # noqa: E402
from perfbench.spans import Tracer, write_spans  # noqa: E402
from perfbench.stamp import environment_stamp  # noqa: E402
from perfbench.stats import median, percentile  # noqa: E402

WORKLOADS = {w.name: w for w in (Table2Lulesh, TracesOpenfoam, ServeMixed)}

#: batch passes per run, whatever --seconds allows (a median needs three)
MIN_PASSES = 3

OUT = HERE / "out"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_setups(workload, *, trace: bool) -> tuple[list[float], list[dict], list]:
    times, layers, tracers = [], [], []
    for i in range(workload.setups):
        # the previous set-up's teardown and garbage are not this one's cost
        workload.close()
        gc.collect()
        tracer = Tracer() if trace else None
        if tracer is not None:
            install_probes(tracer)
        start = time.perf_counter()
        try:
            workload.setup()
        finally:
            if tracer is not None:
                tracer.restore()
        times.append(time.perf_counter() - start)
        if tracer is not None:
            layers.append(setup_layer_values(tracer))
            tracers.append((f"setup-{i}", tracer))
    return times, layers, tracers


def run_batch(workload, seconds: float, *, trace: bool) -> dict:
    """Passes until ``seconds`` have elapsed; alternates tracing when asked."""
    passes = []
    tracers = []
    attempted = failed = 0
    problems: list[str] = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        tracer = Tracer() if traced else None
        if tracer is not None:
            install_probes(tracer)
        faults, cpu, start = _minor_faults(), time.process_time(), time.perf_counter()
        try:
            output = workload.run_pass(tracer)
        finally:
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
            faults = _minor_faults() - faults
            if tracer is not None:
                tracer.restore()
        verdict = workload.check(output)
        attempted += verdict.ops
        failed += verdict.failed
        problems.extend(verdict.problems)
        record = {
            "wall": wall,
            "cpu": cpu,
            "traced": traced,
            "ops": verdict.ops,
            "op_latencies": output.op_latencies or [wall],
        }
        if tracer is not None:
            measured = dict(verdict.measured)
            measured["program.minor_faults"] = float(faults)
            record["layers"] = pass_layer_values(tracer, wall=wall, measured=measured)
            tracers.append((f"pass-{len(passes)}", tracer))
        passes.append(record)
    out: dict = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "tracers": tracers,
        "passes": [{k: p[k] for k in ("wall", "cpu", "traced", "ops")} for p in passes],
    }
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        out["layers"] = {
            name: median([p["layers"][name] for p in traced_passes])
            for name in traced_passes[0]["layers"]
        }
        out["trace_overhead"] = median([p["wall"] for p in traced_passes]) / median(
            [p["wall"] for p in plain]
        )
        return out
    latencies = [t for p in plain for t in p["op_latencies"]]
    p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
    op = workload.op
    out["e2e"] = {
        "wall_s": (median([p["wall"] for p in plain]), len(plain), "per pass"),
        "cpu_s": (median([p["cpu"] for p in plain]), len(plain), "per pass"),
        "throughput_qps": (
            sum(p["ops"] for p in plain) / sum(p["wall"] for p in plain),
            sum(p["ops"] for p in plain),
            f"{workload.ops} per second",
        ),
        "latency_p50_ms": (1e3 * p50.value, p50.n, f"per {op}: " + p50.describe("s")),
        "latency_p99_ms": (1e3 * p99.value, p99.n, f"per {op}: " + p99.describe("s")),
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return max(
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        )
    trace = bool(args.trace)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stamp = environment_stamp(ROOT, workload=args.workload, seed=args.seed)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    host_loop_ms = [loop_ms()]
    try:
        setup_times, setup_layers, setup_tracers = run_setups(workload, trace=trace)
        if isinstance(workload, ServeMixed):
            result = workload.run(args.seconds, trace=trace)
        else:
            result = run_batch(workload, args.seconds, trace=trace)
        peak_rss = _peak_rss_mb()
        host_loop_ms.append(loop_ms())
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    error_rate = failed / attempted if attempted else 1.0
    if trace:
        layers = dict(result["layers"])
        for name in setup_layers[0]:
            layers[name] = median([s[name] for s in setup_layers])
        layers["trace_overhead"] = result["trace_overhead"]
        layers["error_rate"] = error_rate
        table = {
            m.name: (layers[m.name], m.unit, m.moves + (" [exact]" if m.exact else ""))
            for m in LAYER_METRICS
        }
    else:
        e2e = dict(result["e2e"])
        e2e["setup_s"] = (median(setup_times), len(setup_times), "median set-up")
        e2e["peak_rss_mb"] = (peak_rss, 1, "process high-water mark")
        table = {
            m.name: (e2e[m.name][0], m.unit, f"n={e2e[m.name][1]}; {e2e[m.name][2]}")
            for m in END_TO_END
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(
        "host reference loop (ms) at start and end: "
        + ", ".join(f"{ms:.3f}" for ms in host_loop_ms)
    )
    for name, (value, unit, note) in table.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    print(
        f"  {failed} failed of {attempted} {workload.ops} attempted "
        f"(error_rate {error_rate:.6g})"
    )
    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")

    record = {
        "stamp": stamp,
        "trace": trace,
        "seconds": args.seconds,
        "setup_seconds": setup_times,
        "host_loop_ms": host_loop_ms,
        "attempted": attempted,
        "failed": failed,
        "problems": result["problems"],
        "passes": result.get("passes"),
        "oracle_checked": result.get("oracle_checked"),
        "metrics": {
            name: {"value": value, "unit": unit, "note": note}
            for name, (value, unit, note) in table.items()
        },
        "meanings": {m.name: m.meaning for m in END_TO_END},
    }
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{suffix}.json").write_text(json.dumps(record, indent=1))
    if trace:
        written = write_spans(
            OUT / f"spans-{args.workload}.jsonl.gz",
            setup_tracers + result["tracers"],
        )
        print(f"  {written} spans written to {OUT.relative_to(ROOT)}/spans-{args.workload}.jsonl.gz")

    print(
        json.dumps(
            {
                "correct": failed == 0 and not result["problems"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in table.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
