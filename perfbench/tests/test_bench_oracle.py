"""The serve oracle flags wrong answers by re-deriving them uncached."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.oracle import Answer, EditRecord, check_answers  # noqa: E402
from perfbench.serve import graft  # noqa: E402
from repro.cg.graph import CallGraph, NodeMeta  # noqa: E402

HOT = 'flops(">=", 10, %%)'


def _tiny_graph() -> CallGraph:
    graph = CallGraph()
    graph.add_node("main", NodeMeta(has_body=True, statements=3))
    graph.add_node("kernel", NodeMeta(has_body=True, flops=50, loop_depth=1))
    graph.add_node("helper", NodeMeta(has_body=True, statements=2))
    graph.add_edge("main", "kernel")
    graph.add_edge("main", "helper")
    return graph


def test_oracle_accepts_right_and_flags_wrong_answers():
    graph = _tiny_graph()
    answers = [
        Answer("g", HOT, graph.version, frozenset({"kernel"})),
        Answer("g", HOT, graph.version, frozenset({"kernel", "helper"})),
    ]
    problems = check_answers({"g": graph.copy()}, {"g": graph.version}, [], answers)
    assert len(problems) == 1
    assert "1 differ" in problems[0]


def test_oracle_replays_edits_to_the_answers_version():
    live = _tiny_graph()
    pristine, base = live.copy(), live.version
    mutate = graft(0)
    mutate(live)
    edits = [EditRecord("g", live.version, mutate)]
    after = frozenset({"kernel", "bench_graft_0"})
    answers = [
        Answer("g", HOT, base, frozenset({"kernel"})),
        Answer("g", HOT, live.version, after),
        # a stale answer served at the post-edit version is wrong
        Answer("g", HOT, live.version, frozenset({"kernel"})),
        # no recorded edit leads to this version
        Answer("g", HOT, live.version + 1, after),
    ]
    problems = check_answers({"g": pristine}, {"g": base}, edits, answers)
    assert len(problems) == 2
    assert any("differ" in p for p in problems)
    assert any("matches no recorded edit" in p for p in problems)
