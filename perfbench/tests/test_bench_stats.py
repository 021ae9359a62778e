"""The percentile-with-sample-count rule the benchmark reports by."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import MIN_BEYOND, percentile  # noqa: E402


def test_p99_of_a_hundred_samples_is_unresolved():
    p = percentile(list(range(1, 101)), 99)
    assert (p.value, p.n, p.beyond) == (99, 100, 1)
    assert not p.resolved
    assert "n=100" in p.describe("ms") and "unresolved" in p.describe("ms")


def test_p99_resolves_once_ten_samples_lie_beyond_it():
    p = percentile(list(range(1, 1001)), 99)
    assert (p.value, p.n, p.beyond) == (990, 1000, MIN_BEYOND)
    assert p.resolved
    assert "unresolved" not in p.describe("ms")


def test_percentile_is_always_a_measured_sample():
    samples = [0.3, 0.1, 0.7, 0.2]
    assert percentile(samples, 50).value == 0.2
    assert percentile(samples, 99).value == 0.7
    assert percentile([5.0], 50).value == 5.0


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_ranks_outside_0_100(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)
