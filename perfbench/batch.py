"""The two batch workloads: a Table II regeneration and a traced 8-rank world.

A batch workload is built once per set-up and then run pass after pass.
Each pass is timed by ``perfbench/run.py``; its outputs are
checked afterwards, outside the timed window, by :meth:`check`.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spans import Tracer

REFERENCE = Path(__file__).resolve().parent / "reference" / "reference.json"

LULESH_NODES = 3360
OPENFOAM_TRACE_NODES = 8000
TRACE_RANKS = 8
TRACE_SCENARIO = "trace-straggler"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


@dataclass
class PassOutput:
    """What one pass produced, kept for the untimed correctness check."""

    payload: object
    #: latencies of the pass's operations; ``None`` when the pass is one operation
    op_latencies: list[float] | None = None


@dataclass
class Verdict:
    ops: int
    failed: int
    problems: list[str] = field(default_factory=list)
    #: per-layer values the workload observed itself (exact counts, sizes)
    measured: dict[str, float] = field(default_factory=dict)


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _cell_of(row) -> tuple[str, str]:
    # the inactive cell runs once and yields one row per tool
    if row.config == "xray inactive":
        return ("*", row.config)
    return (row.tool, row.config)


class Table2Lulesh:
    """``compute_table2_app`` on LULESH: 12 single-rank cells, 13 rows."""

    name = "table2-lulesh"
    op = "cell"
    ops = "cells"
    setups = 5

    def __init__(self, seed: int, workdir: Path) -> None:
        # Table II's inputs are the paper's: the seed is recorded, not used
        self.seed = seed
        self.prepared = None

    def setup(self) -> None:
        from repro.experiments.runner import prepare_app

        prepared = prepare_app.__wrapped__("lulesh", LULESH_NODES)
        prepared.select_all()
        self.prepared = prepared

    def close(self) -> None:
        self.prepared = None

    def run_pass(self, tracer: Tracer | None) -> PassOutput:
        import repro.experiments.table2 as table2

        cell_times: list[float] = []
        current = table2.run_configuration

        def timed_cell(*args, **kwargs):
            start = time.perf_counter()
            try:
                return current(*args, **kwargs)
            finally:
                cell_times.append(time.perf_counter() - start)

        table2.run_configuration = timed_cell
        try:
            rows = table2.compute_table2_app(self.prepared)
        finally:
            table2.run_configuration = current
        return PassOutput(payload=rows, op_latencies=cell_times)

    def check(self, output: PassOutput) -> Verdict:
        reference = {
            (r["tool"], r["config"]): (r["t_init"], r["t_total"])
            for r in load_reference()["table2-lulesh"]["rows"]
        }
        rows = output.payload
        cells: dict[tuple[str, str], bool] = {}
        problems: list[str] = []
        for row in rows:
            key = (row.tool, row.config)
            ok = reference.get(key) == (_hex(row.t_init), _hex(row.t_total))
            if not ok:
                problems.append(
                    f"row {key}: t_init={row.t_init!r} t_total={row.t_total!r} "
                    f"differs from the reference"
                )
            cell = _cell_of(row)
            cells[cell] = cells.get(cell, True) and ok
        if len(rows) != len(reference):
            problems.append(f"{len(rows)} rows, reference has {len(reference)}")
        attempted = len(output.op_latencies or ())
        failed = sum(1 for ok in cells.values() if not ok)
        if len(cells) != attempted:
            problems.append(f"{attempted} cells ran but rows name {len(cells)}")
            failed = max(failed, 1)
        return Verdict(ops=max(attempted, 1), failed=failed, problems=problems)


class TracesOpenfoam:
    """8-rank OpenFOAM world with per-rank traces, streaming merge, analyses."""

    name = "traces-openfoam"
    op = "world run"
    ops = "world runs"
    setups = 5

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.prepared = None
        self.ic = None
        self._passes = 0

    def setup(self) -> None:
        from repro.experiments.runner import prepare_app

        prepared = prepare_app.__wrapped__("openfoam", OPENFOAM_TRACE_NODES)
        self.ic = prepared.select("mpi").ic
        self.prepared = prepared

    def close(self) -> None:
        self.prepared = self.ic = None

    def run_pass(self, tracer: Tracer | None) -> PassOutput:
        from repro.apps import scenario
        from repro.experiments.runner import DEFAULT_WORKLOAD
        from repro.trace import classify_wait_states, open_merged_trace
        from repro.workflow import run_app

        self._passes += 1
        trace_dir = self.workdir / f"archive-{self._passes}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        outcome = run_app(
            self.prepared.app,
            mode="ic",
            tool="scorep",
            ic=self.ic,
            ranks=TRACE_RANKS,
            imbalance=scenario(TRACE_SCENARIO),
            backend="serial",
            tracing=True,
            workload=DEFAULT_WORKLOAD,
            config_name=f"trace-{TRACE_SCENARIO}",
            trace_dir=str(trace_dir),
        )
        stream_merge = tracer.span("trace.stream_merge") if tracer else nullcontext()
        with stream_merge:
            streamed = open_merged_trace(str(trace_dir))
            events = list(streamed.events())
        analysis = tracer.span("trace.analysis") if tracer else nullcontext()
        with analysis:
            waits = classify_wait_states(streamed)
            path = streamed.critical_path()
        return PassOutput(payload=(trace_dir, outcome, streamed, events, waits, path))

    def check(self, output: PassOutput) -> Verdict:
        trace_dir, outcome, streamed, events, waits, path = output.payload
        problems: list[str] = []
        merged = outcome.merged_trace
        for label, issues in (
            ("in-memory merge", merged.validate()),
            ("streaming merge", streamed.validate()),
        ):
            if issues:
                problems.append(f"{label}: {len(issues)} issue(s), first: {issues[0]}")
        if events != list(merged.events):
            problems.append("streaming merge differs from the in-memory merge")
        if _hex(outcome.result.t_total) != load_reference()["traces-openfoam"]["t_total"]:
            problems.append(
                f"t_total={outcome.result.t_total!r} differs from the reference"
            )
        if not path:
            problems.append("critical path is empty")
        archive_bytes = sum(
            p.stat().st_size for p in trace_dir.rglob("*") if p.is_file()
        )
        shutil.rmtree(trace_dir, ignore_errors=True)
        return Verdict(
            ops=1,
            failed=1 if problems else 0,
            problems=problems,
            measured={
                "trace.events": float(len(events)),
                "trace.archive_mb": archive_bytes / 2**20,
            },
        )

