"""Score-P tracing mode: timestamped event streams (OTF2 stand-in).

Score-P is "a widely used profiling **and tracing** infrastructure"
(paper §I).  Besides the call-path profile, the measurement runtime can
record a full event trace — enter/leave per region plus MPI operation
markers — which downstream tools (Vampir, Scalasca) consume as OTF2.
We model the event stream here; :mod:`repro.trace.store` persists it.

Tracing costs more per event than profiling (buffer writes, timestamp
acquisition); the cost model charges ``TRACE_EVENT_EXTRA`` on top of the
normal handler cost, which is why production measurements filter first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.errors import CapiError
from repro.execution.clock import VirtualClock

#: additional per-event cycles for trace-buffer writes
TRACE_EVENT_EXTRA = 110.0


class TraceEventKind(enum.Enum):
    ENTER = "ENTER"
    LEAVE = "LEAVE"
    MPI = "MPI"


class TraceEvent(NamedTuple):
    kind: TraceEventKind
    region: str
    timestamp_cycles: float
    #: matched message id for point-to-point MPI markers: the k-th send
    #: on a rank carries mid=k, pairing with the k-th receive on its
    #: SPMD ring partner (see :mod:`repro.simmpi.messages`).  ``None``
    #: for non-message events.
    mid: "int | None" = None


class RankedTraceEvent(NamedTuple):
    """One trace event tagged with its origin rank (OTF2 location).

    The multi-rank merge works on these: the rank tag is what lets a
    Vampir-style timeline keep per-rank lanes after the per-rank streams
    are interleaved into one global event order.

    Both event types are named tuples: immutable, picklable, and built
    at tuple cost, which matters because trace readers build one per
    decoded line.  Their different lengths keep a ranked event from
    ever comparing equal to an untagged one.
    """

    rank: int
    kind: TraceEventKind
    region: str
    timestamp_cycles: float
    mid: "int | None" = None

    def untagged(self) -> TraceEvent:
        return TraceEvent(self.kind, self.region, self.timestamp_cycles, self.mid)


@dataclass
class ScorePTracer:
    """Event-trace recorder, attachable next to the profile measurement.

    When a ``writer`` is attached (see :class:`repro.trace.store.TraceWriter`)
    full buffers spill to disk instead of accumulating in ``flushed``:
    memory stays bounded at ``buffer_size`` events and the complete
    stream only exists in the location file.  ``all_events()`` is then
    unavailable — read the trace back via the store.
    """

    clock: VirtualClock
    events: list[TraceEvent] = field(default_factory=list)
    #: flush threshold: a full buffer is flushed to `flushed` wholesale
    buffer_size: int = 1 << 16
    flushed: list[TraceEvent] = field(default_factory=list)
    flush_count: int = 0
    #: optional on-disk sink (duck-typed: write_events / close)
    writer: object | None = None
    #: events spilled to the writer so far
    spilled: int = 0

    # -- recording --------------------------------------------------------------

    def enter(self, region: str) -> None:
        self._record(TraceEventKind.ENTER, region)

    def leave(self, region: str) -> None:
        self._record(TraceEventKind.LEAVE, region)

    def mpi(self, op: str, *, mid: int | None = None) -> None:
        self._record(TraceEventKind.MPI, op, mid=mid)

    def _record(
        self, kind: TraceEventKind, region: str, mid: int | None = None
    ) -> None:
        self.clock.advance(TRACE_EVENT_EXTRA)
        self.events.append(TraceEvent(kind, region, self.clock.now(), mid))
        if len(self.events) >= self.buffer_size:
            if self.writer is not None:
                self.writer.write_events(self.events)
                self.spilled += len(self.events)
            else:
                self.flushed.extend(self.events)
            self.events.clear()
            self.flush_count += 1

    # -- results ----------------------------------------------------------------

    def all_events(self) -> list[TraceEvent]:
        if self.writer is not None:
            raise CapiError(
                "trace events were spilled to disk; read them back via "
                "repro.trace.store instead of all_events()"
            )
        return [*self.flushed, *self.events]

    def close_writer(self):
        """Flush the tail buffer and close the attached on-disk writer.

        Returns the writer's :class:`~repro.trace.store.LocationMeta`.
        """
        if self.writer is None:
            raise CapiError("no trace writer attached")
        if self.events:
            self.writer.write_events(self.events)
            self.spilled += len(self.events)
            self.events.clear()
        return self.writer.close()


@dataclass(frozen=True)
class TraceIssue:
    """One machine-readable defect found by trace validation.

    ``code`` is stable (CI asserts on it); ``detail`` is the human
    rendering, and ``str(issue)`` returns it so legacy string handling
    keeps working.  ``rank`` is filled in by the multi-rank validators.
    """

    code: str
    region: str
    detail: str
    rank: int | None = None

    def __str__(self) -> str:
        return self.detail


def validate_trace(events: Iterable[TraceEvent]) -> list[TraceIssue]:
    """Consistency checks a trace analyser would run.

    Returns a list of :class:`TraceIssue` records: non-monotonic
    timestamps and unbalanced enter/leave nesting per region stream.
    Each defect is reported exactly once: a LEAVE whose region sits
    deeper in the stack resynchronises by popping through it (the
    skipped inner regions are implicitly closed, like stack unwinding),
    so one out-of-order LEAVE no longer leaves the mismatched region on
    the stack forever and floods the report with spurious
    ``unclosed-region`` entries for every frame above it.
    """
    problems: list[TraceIssue] = []
    last_t = -1.0
    stack: list[str] = []
    for ev in events:
        if ev.timestamp_cycles < last_t:
            problems.append(
                TraceIssue(
                    "timestamp-regression", ev.region,
                    f"timestamp regression at {ev.region}",
                )
            )
        last_t = ev.timestamp_cycles
        if ev.kind is TraceEventKind.ENTER:
            stack.append(ev.region)
        elif ev.kind is TraceEventKind.LEAVE:
            if stack and stack[-1] == ev.region:
                stack.pop()
            elif ev.region in stack:
                # out-of-order LEAVE of an outer region: resync by
                # unwinding to it so later events validate normally
                skipped = 0
                while stack[-1] != ev.region:
                    stack.pop()
                    skipped += 1
                stack.pop()
                problems.append(
                    TraceIssue(
                        "unbalanced-leave-resync", ev.region,
                        f"unbalanced LEAVE {ev.region} "
                        f"(implicitly closed {skipped} inner region(s))",
                    )
                )
            else:
                problems.append(
                    TraceIssue(
                        "unbalanced-leave", ev.region,
                        f"unbalanced LEAVE {ev.region}",
                    )
                )
    problems.extend(
        TraceIssue("unclosed-region", r, f"unclosed region {r}") for r in stack
    )
    return problems
