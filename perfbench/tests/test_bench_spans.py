"""Self-time arithmetic and probe patching of the benchmark's span recorder."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import Tracer, layer_self_times, self_times  # noqa: E402


def _span(sid, name, start, end, parent):
    return (sid, name, start, end, parent, 1, -1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "outer", 0.0, 10.0, -1),
        _span(1, "mid", 1.0, 6.0, 0),
        _span(2, "leaf", 2.0, 3.0, 1),
        _span(3, "leaf", 4.0, 5.5, 1),
        _span(4, "mid", 7.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.5, 2: 1.0, 3: 1.5, 4: 2.0}
    by_name = layer_self_times(spans)
    assert by_name == {"outer": 3.0, "mid": 4.5, "leaf": 2.5}
    # self times of one tree partition the root's wall time
    assert sum(by_name.values()) == 10.0


def test_child_coverage_is_an_interval_union_clipped_to_the_parent():
    spans = [
        _span(0, "parent", 0.0, 10.0, -1),
        _span(1, "child", 2.0, 6.0, 0),
        _span(2, "child", 4.0, 8.0, 0),  # overlaps the first child
        _span(3, "child", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    # covered: [2, 8] and [9, 10] -> 7 of the parent's 10 seconds
    assert self_times(spans)[0] == 3.0


def test_tracer_records_nesting_parents_and_request_ids():
    ticks = iter([0.0, 1.0, 3.0, 6.0, 7.0, 8.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return "x"

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(lambda: traced_inner(), "outer", new_rid=True)
    assert traced_outer() == "x"
    with tracer.span("after"):
        pass
    inner_span, outer_span, after_span = tracer.spans
    assert inner_span[1:5] == ("inner", 1.0, 3.0, outer_span[0])
    assert outer_span[1:5] == ("outer", 0.0, 6.0, -1)
    # the inner span inherits the request id its caller opened
    assert inner_span[6] == outer_span[6] != after_span[6]
    assert tracer.self_by_name() == {"outer": 4.0, "inner": 2.0, "after": 1.0}


def test_patch_restores_originals_and_rejects_missing_targets():
    class Layer:
        def work(self):
            return 1

    class Derived(Layer):
        pass

    tracer = Tracer()
    original = Layer.__dict__["work"]
    tracer.patch(Layer, "work", lambda fn: tracer.wrap(fn, "layer.work"))
    tracer.patch(Derived, "work", lambda fn: tracer.counting(fn, "derived.work"))
    assert Derived().work() == 1
    assert tracer.counts["derived.work"] == 1
    assert [s[1] for s in tracer.spans] == ["layer.work"]
    tracer.restore()
    assert Layer.__dict__["work"] is original
    assert "work" not in Derived.__dict__
    with pytest.raises(AttributeError, match="does not exist"):
        tracer.patch(Layer, "renamed", lambda fn: fn)
