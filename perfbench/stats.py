"""Order statistics the benchmark reports.

A tail percentile is only as good as the samples behind it, so every
percentile travels with its sample count and the number of samples that
lie beyond it.  Following the rule the benchmark reports by, a tail
percentile is *resolved* only when at least :data:`MIN_BEYOND` samples lie
beyond it; an unresolved one is still reported (the result line needs a
number) but is flagged in the human-readable table.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: samples that must lie beyond a tail percentile for it to be resolved
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """The ``q``-th percentile of ``n`` samples (nearest-rank)."""

    q: float
    value: float
    n: int
    #: samples strictly after the percentile's rank
    beyond: int

    @property
    def resolved(self) -> bool:
        return self.beyond >= MIN_BEYOND

    def describe(self, unit: str) -> str:
        note = "" if self.resolved else f", unresolved: <{MIN_BEYOND} beyond"
        return (
            f"p{self.q:g}={self.value:.6g} {unit} "
            f"(n={self.n}, {self.beyond} beyond{note})"
        )


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below it.

    The value is always one of the samples, never an interpolation.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100 * n))
    return Percentile(q=q, value=ordered[rank - 1], n=n, beyond=n - rank)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)

