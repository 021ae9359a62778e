"""BENCHMARK.json names exactly the metrics the benchmark reports."""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, LAYER_METRICS  # noqa: E402


def test_benchmark_json_matches_the_metric_definitions():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert config["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert config["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
