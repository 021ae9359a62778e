"""Scalasca-style wait-state classification over merged traces.

Three wait patterns (Scalasca's classic taxonomy, paper §I's "automatic
analysis" tool family):

* **imbalance-at-collective** — a rank reached a synchronizing
  collective early and blocked for the latest arriver ("Wait at
  Barrier / NxN").  Detected from the alignment sync points.
* **late-sender** — a receive was posted before the matching send:
  the receiver blocks from its recv until the send appears.
* **late-receiver** — the matching receive was posted *after* a
  (synchronous) send: the sender blocks from its send until the
  receive appears.

Point-to-point matching uses the message ids stamped by
:class:`repro.simmpi.messages.MessageMatcher` (SPMD ring pairing:
send ``k`` on rank ``r`` ↔ recv ``k`` on rank ``(r+1) % world``), all
in aligned logical time so cross-rank comparisons are meaningful.
Works over either view of the merged-trace core through its
``rank_stream`` hook — the walk is a single pass per rank stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.scorep.tracing import RankedTraceEvent, TraceEventKind
from repro.simmpi.messages import RECV_OPS, SEND_OPS, ring_partner

#: classification kinds, stable for CI assertions
LATE_SENDER = "late-sender"
LATE_RECEIVER = "late-receiver"
COLLECTIVE_IMBALANCE = "imbalance-at-collective"


@dataclass(frozen=True)
class ClassifiedWait:
    """One classified wait interval, in aligned time."""

    kind: str
    #: the waiting rank
    rank: int
    op: str
    begin_cycles: float
    end_cycles: float
    #: enclosing source region on the waiting rank (None at top level)
    region: str | None = None
    #: peer rank for point-to-point waits
    partner_rank: int | None = None
    #: matched message id for point-to-point waits
    message_id: int | None = None
    #: sync-point index for collective waits
    sync_index: int | None = None

    @property
    def wait_cycles(self) -> float:
        return self.end_cycles - self.begin_cycles


@dataclass(frozen=True)
class _P2PEvent:
    rank: int
    mid: int
    op: str
    aligned_cycles: float
    region: str | None


def _walk_rank(
    rank: int, events: Iterable[RankedTraceEvent]
) -> tuple[list[_P2PEvent], list[_P2PEvent], dict[tuple[int, float, str], str | None]]:
    """One pass over a rank's aligned stream.

    Collects its sends, its receives, and the enclosing region of each
    synchronisation event keyed by ``(rank, aligned time, op)`` — by
    the alignment rule a rank's anchor event lands exactly at the sync
    point's aligned timestamp, so the key is exact, not fuzzy.
    """
    sends: list[_P2PEvent] = []
    recvs: list[_P2PEvent] = []
    sync_regions: dict[tuple[int, float, str], str | None] = {}
    stack: list[str] = []
    for ev in events:
        if ev.kind is TraceEventKind.ENTER:
            stack.append(ev.region)
        elif ev.kind is TraceEventKind.LEAVE:
            if stack and stack[-1] == ev.region:
                stack.pop()
            elif ev.region in stack:
                while stack and stack[-1] != ev.region:
                    stack.pop()
                if stack:
                    stack.pop()
        elif ev.kind is TraceEventKind.MPI:
            region = stack[-1] if stack else None
            if ev.mid is not None and ev.region in SEND_OPS:
                sends.append(
                    _P2PEvent(rank, ev.mid, ev.region, ev.timestamp_cycles, region)
                )
            elif ev.mid is not None and ev.region in RECV_OPS:
                recvs.append(
                    _P2PEvent(rank, ev.mid, ev.region, ev.timestamp_cycles, region)
                )
            else:
                sync_regions[(rank, ev.timestamp_cycles, ev.region)] = region
    return sends, recvs, sync_regions


def classify_wait_states(
    trace,
    *,
    min_wait_cycles: float = 0.0,
    world_ranks: int | None = None,
) -> list[ClassifiedWait]:
    """Classify every wait in a merged trace, largest first.

    ``trace`` is either view of the merged-trace core
    (:class:`~repro.multirank.tracing.MergedTrace` or
    :class:`~repro.trace.streaming.StreamingTrace`).  ``world_ranks`` names the original
    world size for degraded runs so ring partners resolve to true rank
    ids; defaults to ``max(rank_labels) + 1``.
    """
    labels = tuple(trace.rank_labels)
    if world_ranks is None:
        world_ranks = (max(labels) + 1) if labels else 0
    present = set(labels)

    sends_by_key: dict[tuple[int, int], _P2PEvent] = {}
    recvs_by_key: dict[tuple[int, int], _P2PEvent] = {}
    sync_regions: dict[tuple[int, float, str], str | None] = {}
    for pos, rank in enumerate(labels):
        sends, recvs, regions = _walk_rank(rank, trace.rank_stream(pos))
        for s in sends:
            sends_by_key[(s.rank, s.mid)] = s
        for r in recvs:
            recvs_by_key[(r.rank, r.mid)] = r
        sync_regions.update(regions)

    waits: list[ClassifiedWait] = []

    # collective imbalance: straight from the alignment sync points
    for w in trace.wait_states(min_wait_cycles=min_wait_cycles):
        waits.append(
            ClassifiedWait(
                kind=COLLECTIVE_IMBALANCE,
                rank=w.rank,
                op=w.op,
                begin_cycles=w.begin_cycles,
                end_cycles=w.end_cycles,
                region=sync_regions.get((w.rank, w.end_cycles, w.op)),
                sync_index=w.sync_index,
            )
        )

    # point-to-point: pair recv k on rank r with send k on its ring
    # neighbour; whoever acted first waits for the other
    for (rank, mid), recv in recvs_by_key.items():
        sender = ring_partner(rank, world_ranks)
        if sender not in present:
            continue  # degraded world: the partner's trace is gone
        send = sends_by_key.get((sender, mid))
        if send is None:
            continue  # ragged tail: send never happened
        if send.aligned_cycles > recv.aligned_cycles + min_wait_cycles:
            waits.append(
                ClassifiedWait(
                    kind=LATE_SENDER,
                    rank=rank,
                    op=recv.op,
                    begin_cycles=recv.aligned_cycles,
                    end_cycles=send.aligned_cycles,
                    region=recv.region,
                    partner_rank=sender,
                    message_id=mid,
                )
            )
        elif recv.aligned_cycles > send.aligned_cycles + min_wait_cycles:
            waits.append(
                ClassifiedWait(
                    kind=LATE_RECEIVER,
                    rank=sender,
                    op=send.op,
                    begin_cycles=send.aligned_cycles,
                    end_cycles=recv.aligned_cycles,
                    region=send.region,
                    partner_rank=rank,
                    message_id=mid,
                )
            )

    waits.sort(
        key=lambda w: (-w.wait_cycles, w.rank, w.begin_cycles, w.kind)
    )
    return waits


# -- summaries -------------------------------------------------------------------


def summarize_by_rank(waits: Iterable[ClassifiedWait]) -> dict[int, dict[str, float]]:
    """Total wait cycles per rank per kind."""
    out: dict[int, dict[str, float]] = {}
    for w in waits:
        acc = out.setdefault(w.rank, {})
        acc[w.kind] = acc.get(w.kind, 0.0) + w.wait_cycles
    return out


def summarize_by_region(
    waits: Iterable[ClassifiedWait],
) -> dict[str, dict[str, float]]:
    """Total wait cycles per enclosing source region per kind."""
    out: dict[str, dict[str, float]] = {}
    for w in waits:
        acc = out.setdefault(w.region or "<top>", {})
        acc[w.kind] = acc.get(w.kind, 0.0) + w.wait_cycles
    return out


def render_wait_state_report(
    waits: list[ClassifiedWait], *, max_rows: int = 12
) -> str:
    """Human rendering: top waits plus per-rank and per-region totals."""
    lines = [
        "=" * 64,
        f"Wait-state classification — {len(waits)} wait(s)",
        "=" * 64,
    ]
    for w in waits[:max_rows]:
        where = f" in {w.region}" if w.region else ""
        peer = f" partner=rank {w.partner_rank}" if w.partner_rank is not None else ""
        lines.append(
            f"  {w.kind:<26} rank {w.rank} at {w.op}{where}: "
            f"{w.wait_cycles:.0f} cycles{peer}"
        )
    by_rank = summarize_by_rank(waits)
    if by_rank:
        lines.append("  totals by rank:")
        for rank in sorted(by_rank):
            parts = ", ".join(
                f"{kind}={cycles:.0f}"
                for kind, cycles in sorted(by_rank[rank].items())
            )
            lines.append(f"    rank {rank}: {parts}")
    by_region = summarize_by_region(waits)
    if by_region:
        lines.append("  totals by region:")
        for region in sorted(by_region):
            parts = ", ".join(
                f"{kind}={cycles:.0f}"
                for kind, cycles in sorted(by_region[region].items())
            )
            lines.append(f"    {region}: {parts}")
    return "\n".join(lines)
