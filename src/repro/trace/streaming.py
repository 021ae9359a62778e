"""Streaming merge over an on-disk trace archive.

:class:`StreamingTrace` is the on-disk view of the one merged-trace
core in :mod:`repro.multirank.tracing`: the alignment, the k-way
``(timestamp, rank)`` merge and every analysis are the core's; only
the event source differs.  Each rank's events come from
:func:`~repro.trace.store.iter_location` instead of an in-memory list,
so the view holds O(ranks × chunk) memory:

1. **Alignment pass** (at construction) — each location file is read
   once, streaming, for its sync sequence, event count and last
   timestamp; the core solves the logical clocks from those.
2. **Every later pass** — :meth:`StreamingTrace.rank_stream` re-reads
   a location file and re-aligns it; :meth:`StreamingTrace.events`
   merges those readers, each holding one decoded chunk of lines.

The disk round trip is lossless (timestamps are bit-exact JSON
doubles), so ``open_merged_trace(d)`` agrees with
``merge_rank_traces([load_location(d, r) for r in ranks])`` on events,
sync points, waits, critical path and validation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

from repro.multirank.tracing import AlignedTrace, align_stream
from repro.scorep.tracing import RankedTraceEvent, TraceEvent
from repro.trace.store import (
    TraceStoreError,
    discover_ranks,
    iter_location,
    read_definitions,
)


class StreamingTrace(AlignedTrace):
    """Lazy view of an on-disk multi-rank trace archive.

    ``events()`` is a generator re-reading the location files on every
    call, so the resident set stays bounded by the readers' buffers.
    """

    def __init__(
        self, trace_dir: str | Path, rank_ids: Sequence[int], *, strict: bool = True
    ) -> None:
        self.trace_dir = str(trace_dir)
        self.strict = strict
        super().__init__([self._read(rank) for rank in rank_ids], rank_ids)

    def _read(self, rank: int) -> Iterator[TraceEvent]:
        return iter_location(self.trace_dir, rank, strict=self.strict)

    def rank_stream(self, pos: int) -> Iterator[RankedTraceEvent]:
        rank = self.rank_ids[pos]
        return align_stream(rank, self._read(rank), self.schedule[pos])

    def events(self) -> Iterator[RankedTraceEvent]:
        """The merged global timeline, streamed in ``(t, rank)`` order."""
        return self._timeline()


def open_merged_trace(
    trace_dir: str | Path,
    *,
    rank_ids: "Sequence[int] | None" = None,
    strict: bool = True,
) -> StreamingTrace:
    """Open an on-disk archive as a streaming merged trace.

    ``rank_ids`` defaults to the archive's definitions file (or, absent
    one, the discovered location files) — pass it explicitly to merge a
    subset.  The alignment pass runs here; event access stays lazy.
    """
    if rank_ids is None:
        try:
            rank_ids = list(read_definitions(trace_dir).locations)
        except TraceStoreError:
            rank_ids = discover_ranks(trace_dir)
    if not rank_ids:
        raise TraceStoreError(f"no trace locations found in {trace_dir}")
    return StreamingTrace(trace_dir, rank_ids, strict=strict)
