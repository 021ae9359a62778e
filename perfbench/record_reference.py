"""Record the virtual-time reference the batch workloads are checked against.

    python3 perfbench/record_reference.py

The paper's Tinit/Ttotal are the reproduction's results: any wall-clock
optimisation must leave them bit-identical, so the benchmark compares
every pass against values recorded once, as ``float.hex`` strings, from
the commit that introduced the benchmark.  Re-recording is a deliberate
change of results and belongs in its own change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[0:1] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench.batch import (  # noqa: E402
    LULESH_NODES,
    OPENFOAM_TRACE_NODES,
    REFERENCE,
    TRACE_RANKS,
    TRACE_SCENARIO,
    TracesOpenfoam,
    _hex,
)


def main() -> int:
    from repro.experiments.runner import prepare_app
    from repro.experiments.table2 import compute_table2_app

    rows = compute_table2_app(prepare_app("lulesh", LULESH_NODES))
    workdir = HERE / "out" / "record-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        traces = TracesOpenfoam(seed=0, workdir=workdir)
        traces.setup()
        _, outcome, _, events, _, _ = traces.run_pass(None).payload
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {
        "table2-lulesh": {
            "nodes": LULESH_NODES,
            "rows": [
                {
                    "tool": r.tool,
                    "config": r.config,
                    "t_init": _hex(r.t_init),
                    "t_total": _hex(r.t_total),
                }
                for r in rows
            ],
        },
        "traces-openfoam": {
            "nodes": OPENFOAM_TRACE_NODES,
            "ranks": TRACE_RANKS,
            "scenario": TRACE_SCENARIO,
            "t_total": _hex(outcome.result.t_total),
            "events": len(events),
        },
    }
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
