"""OTF2-shaped on-disk trace store.

An OTF2 archive is a directory of per-*location* event files (one per
rank/thread) plus global definition tables (region names, location
ids, clock properties).  We mirror that shape:

    <trace_dir>/
        definitions.json     global tables: ranks, regions, clock, meta
        rank-00000.evt       location 0 event stream (JSON-lines)
        rank-00001.evt       location 1 event stream
        health.json          optional supervision record (fault PRs)

Each ``.evt`` file is append-only JSON-lines, every line one small
JSON array:

    ["H", 1, rank]            header: format version + location id
    ["D", region_id, name]    region definition, interned at first use
    [kind, region_id, t]      event (kind 0=ENTER 1=LEAVE 2=MPI)
    [kind, region_id, t, mid] event carrying a matched message id
    ["F", n_events]           footer: clean-close marker + event count

Readers decode a file a chunk of lines at a time (``_CHUNK_BYTES``,
one ``json.loads`` per chunk, per-line decoding only for a chunk that
is not all well-formed lines), so memory stays O(chunk) in trace
length.  The writer formats event lines itself, byte for byte what
``json.dumps`` of each record gives.

The footer doubles as a truncation detector: a crashed or corrupted
writer leaves no footer (or a count that disagrees), which strict
readers surface as :class:`TraceStoreError` and the watchdog turns
into a ``trace-truncated`` alert.

Writers are crash-consistent: they stream to a pid-suffixed ``.wip``
file and ``os.replace`` it into place on close.  That also makes the
zombie-worker race benign — a hung attempt the supervisor abandoned
may finish late and publish concurrently with its retry, but both
produce identical deterministic content and each replace is atomic,
so last-wins never exposes a torn file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import CapiError
from repro.scorep.tracing import TraceEvent, TraceEventKind

FORMAT_VERSION = 1

_KIND_CODE = {
    TraceEventKind.ENTER: 0,
    TraceEventKind.LEAVE: 1,
    TraceEventKind.MPI: 2,
}
_CODE_KIND = {code: kind for kind, code in _KIND_CODE.items()}
#: what ``json`` decodes a number to
_STAMP_TYPES = frozenset({int, float})

#: ``readlines`` size hint: the reader decodes this many bytes of lines
#: per ``json.loads`` call
_CHUNK_BYTES = 1 << 16

DEFINITIONS_NAME = "definitions.json"
HEALTH_NAME = "health.json"


class TraceStoreError(CapiError):
    """Raised for malformed, truncated, or missing on-disk traces."""


def location_path(trace_dir: str | Path, rank: int) -> Path:
    return Path(trace_dir) / f"rank-{rank:05d}.evt"


def discover_ranks(trace_dir: str | Path) -> list[int]:
    """Ranks with a published location file, ascending."""
    ranks = []
    for entry in Path(trace_dir).glob("rank-*.evt"):
        stem = entry.stem[len("rank-"):]
        if stem.isdigit():
            ranks.append(int(stem))
    return sorted(ranks)


# -- location writer -------------------------------------------------------------


@dataclass(frozen=True)
class LocationMeta:
    """Summary of one closed location file (picklable across workers)."""

    rank: int
    path: str
    events: int
    flushes: int
    regions: tuple[str, ...]


class TraceWriter:
    """Append-only writer for one location's event stream.

    Buffers at most ``buffer_events`` encoded lines before writing
    them out, so tracer memory stays O(buffer) regardless of trace
    length.  Satisfies the duck-type ``ScorePTracer.writer`` expects:
    ``write_events(events)`` and ``close() -> LocationMeta``.
    """

    def __init__(
        self,
        trace_dir: str | Path,
        rank: int,
        *,
        buffer_events: int = 4096,
    ) -> None:
        if rank < 0:
            raise TraceStoreError(f"location rank must be >= 0, got {rank}")
        if buffer_events < 1:
            raise TraceStoreError("buffer_events must be >= 1")
        self.trace_dir = Path(trace_dir)
        self.rank = rank
        self.buffer_events = buffer_events
        self.path = location_path(self.trace_dir, rank)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        # pid suffix: an abandoned zombie attempt and its retry may
        # write concurrently; distinct wip names keep them from
        # clobbering each other mid-stream
        self._wip = self.path.with_name(f"{self.path.name}.wip-{os.getpid()}")
        self._fh = open(self._wip, "w")
        self._pending: list[str] = []
        self._regions: dict[str, int] = {}
        self.events_written = 0
        self.flushes = 0
        self.closed = False
        self._emit(json.dumps(["H", FORMAT_VERSION, rank]))

    def _emit(self, line: str) -> None:
        self._pending.append(line)
        if len(self._pending) >= self.buffer_events:
            self.flush()

    def _region_id(self, name: str) -> int:
        region_id = self._regions.get(name)
        if region_id is None:
            region_id = len(self._regions)
            self._regions[name] = region_id
            self._emit(json.dumps(["D", region_id, name]))
        return region_id

    def write(self, event: TraceEvent) -> None:
        self.write_events((event,))

    def write_events(self, events: Iterable[TraceEvent]) -> None:
        """Append events, formatting each line as ``json.dumps`` would.

        Finite float timestamps with an ``int`` or absent ``mid`` are
        formatted directly (``float.__repr__`` is what ``json`` uses);
        anything else goes through ``json.dumps``, so the bytes never
        depend on which path wrote them.
        """
        if self.closed:
            raise TraceStoreError(f"writer for rank {self.rank} already closed")
        for kind, region, t, mid in events:
            code = _KIND_CODE[kind]
            region_id = self._region_id(region)
            plain = isinstance(t, float) and isfinite(t)
            if plain and mid is None:
                line = f"[{code}, {region_id}, {float.__repr__(t)}]"
            elif plain and type(mid) is int:
                line = f"[{code}, {region_id}, {float.__repr__(t)}, {mid}]"
            else:
                record = [code, region_id, t]
                line = json.dumps(record if mid is None else [*record, mid])
            self._emit(line)
            self.events_written += 1

    def flush(self) -> None:
        if self._pending:
            self._fh.write("\n".join(self._pending) + "\n")
            self._pending.clear()
            self.flushes += 1

    def close(self) -> LocationMeta:
        if self.closed:
            raise TraceStoreError(f"writer for rank {self.rank} already closed")
        self._emit(json.dumps(["F", self.events_written]))
        self.flush()
        self._fh.close()
        os.replace(self._wip, self.path)
        self.closed = True
        return LocationMeta(
            rank=self.rank,
            path=str(self.path),
            events=self.events_written,
            flushes=self.flushes,
            regions=tuple(self._regions),
        )

    def abort(self) -> None:
        """Discard the in-progress file without publishing it."""
        if not self.closed:
            self._fh.close()
            self._wip.unlink(missing_ok=True)
            self.closed = True


# -- location readers ------------------------------------------------------------


def iter_location_file(
    path: str | Path, *, strict: bool = True
) -> Iterator[TraceEvent]:
    """Stream one location file back as :class:`TraceEvent`s.

    Reads ``_CHUNK_BYTES`` of lines at a time, so memory stays
    O(chunk) in trace length.  With ``strict=True`` an undecodable
    line, or a missing or count-mismatched footer, raises
    :class:`TraceStoreError`; events before the fault are still
    yielded first, so callers can salvage a prefix by catching the
    error.  ``strict=False`` stops quietly at the first undecodable
    line instead.  A decodable but malformed record (undefined region
    or kind, missing field, non-numeric timestamp, non-integer ``mid``)
    raises in either mode.
    """
    path = Path(path)
    if not path.exists():
        raise TraceStoreError(f"missing location file {path}")
    regions: dict[int, str] = {}
    count = 0
    footer_count: int | None = None
    saw_header = False
    lines_read = 0
    # surrogateescape: a corrupt byte fails its line's JSON decode
    # (typed, with a line number) instead of the text layer
    with open(path, errors="surrogateescape") as fh:
        while lines := fh.readlines(_CHUNK_BYTES):
            numbered, bad = _decode_chunk(lines, lines_read)
            lines_read += len(lines)
            for lineno, record in numbered:
                try:
                    kind = _CODE_KIND.get(record[0])
                    if kind is not None:
                        t = record[2]
                        mid = record[3] if len(record) > 3 else None
                        if type(t) not in _STAMP_TYPES or not (
                            mid is None or type(mid) is int
                        ):
                            raise TypeError("timestamp or mid of the wrong type")
                        # tuple.__new__ skips the Python frame of the
                        # named tuple's generated __new__
                        event = tuple.__new__(
                            TraceEvent, (kind, regions[record[1]], t, mid)
                        )
                    elif record[0] == "D":
                        regions[record[1]] = record[2]
                        continue
                    elif record[0] == "H":
                        if record[1] != FORMAT_VERSION:
                            raise TraceStoreError(
                                f"{path}: unsupported format version {record[1]}"
                            )
                        saw_header = True
                        continue
                    elif record[0] == "F":
                        footer_count = record[1]
                        continue
                    else:
                        raise KeyError(record[0])
                except (KeyError, IndexError, TypeError) as exc:
                    raise TraceStoreError(
                        f"{path}:{lineno}: malformed record {record!r} "
                        "(undefined region or kind, or a missing or mistyped field)"
                    ) from exc
                count += 1
                yield event
            if bad is not None:
                if not strict:
                    return
                bad_lineno, exc = bad
                raise TraceStoreError(
                    f"{path}:{bad_lineno}: undecodable line ({exc})"
                ) from exc
    if strict:
        if not saw_header:
            raise TraceStoreError(f"{path}: missing header line")
        if footer_count is None:
            raise TraceStoreError(
                f"{path}: missing footer (truncated write?) after "
                f"{count} event(s)"
            )
        if footer_count != count:
            raise TraceStoreError(
                f"{path}: footer declares {footer_count} event(s) "
                f"but {count} were read"
            )


def _decode_chunk(
    lines: list[str], lineno: int
) -> "tuple[Iterable[tuple[int, object]], tuple[int, Exception] | None]":
    """Decode a chunk of lines that follows line ``lineno``.

    Returns the ``(line number, record)`` pairs and, if a line failed
    to decode, ``(its line number, the error)``; the pairs are then
    the records before it.

    A chunk whose every line starts with ``[`` and ends with ``]``,
    with no other ``[`` anywhere, is decoded with one ``json.loads``.
    If that succeeds, each line was exactly one JSON array: no record
    can open on one line and close on another, nor share a line (its
    closing ``]`` would end the outer list early).  Any other chunk is
    decoded line by line, skipping blank lines.
    """
    text = ",".join(lines)
    if (
        text.count("[") == len(lines)
        and text.count("]\n,[") == len(lines) - 1
        and text.startswith("[")
        and text.endswith(("]", "]\n"))
    ):
        try:
            return enumerate(json.loads(f"[{text}]"), lineno + 1), None
        except ValueError:
            pass
    numbered = []
    for lineno, line in enumerate(lines, lineno + 1):
        line = line.strip()
        if not line:
            continue
        try:
            numbered.append((lineno, json.loads(line)))
        except (ValueError, RecursionError) as exc:
            return numbered, (lineno, exc)
    return numbered, None


def iter_location(
    trace_dir: str | Path, rank: int, *, strict: bool = True
) -> Iterator[TraceEvent]:
    return iter_location_file(location_path(trace_dir, rank), strict=strict)


def load_location(
    trace_dir: str | Path, rank: int, *, strict: bool = True
) -> list[TraceEvent]:
    return list(iter_location(trace_dir, rank, strict=strict))


def load_location_file(
    path: str | Path, *, strict: bool = True
) -> list[TraceEvent]:
    return list(iter_location_file(path, strict=strict))


def count_location_events(path: str | Path) -> int:
    """Event count of a location file, streaming; raises
    :class:`TraceStoreError` on a truncated or damaged file."""
    return sum(1 for _ in iter_location_file(path))


# -- global definitions ----------------------------------------------------------


@dataclass(frozen=True)
class TraceDefinitions:
    """Global definition tables for one archive (OTF2 GlobalDefs)."""

    world_ranks: int
    locations: tuple[int, ...]
    events_per_location: tuple[int, ...]
    frequency: float
    meta: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return len(self.locations) < self.world_ranks


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(f"{path.name}.wip-{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def write_definitions(
    trace_dir: str | Path,
    *,
    world_ranks: int,
    locations: Iterable[LocationMeta],
    frequency: float,
    meta: dict | None = None,
) -> Path:
    """Publish the archive's global definitions file (atomic)."""
    locations = sorted(locations, key=lambda m: m.rank)
    path = Path(trace_dir) / DEFINITIONS_NAME
    payload = {
        "format_version": FORMAT_VERSION,
        "world_ranks": world_ranks,
        "locations": [
            {
                "rank": m.rank,
                "file": Path(m.path).name,
                "events": m.events,
                "flushes": m.flushes,
                "regions": list(m.regions),
            }
            for m in locations
        ],
        "clock": {"frequency": frequency, "unit": "cycles"},
        "meta": dict(meta or {}),
    }
    _atomic_write_json(path, payload)
    return path


def read_definitions(trace_dir: str | Path) -> TraceDefinitions:
    path = Path(trace_dir) / DEFINITIONS_NAME
    if not path.exists():
        raise TraceStoreError(f"missing {DEFINITIONS_NAME} in {trace_dir}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TraceStoreError(f"{path}: undecodable definitions") from exc
    if payload.get("format_version") != FORMAT_VERSION:
        raise TraceStoreError(
            f"{path}: unsupported format version "
            f"{payload.get('format_version')!r}"
        )
    locations = payload.get("locations", [])
    return TraceDefinitions(
        world_ranks=payload["world_ranks"],
        locations=tuple(loc["rank"] for loc in locations),
        events_per_location=tuple(loc["events"] for loc in locations),
        frequency=payload.get("clock", {}).get("frequency", 0.0),
        meta=payload.get("meta", {}),
    )


# -- supervision record ----------------------------------------------------------


def write_health_record(
    trace_dir: str | Path, health, *, extra: dict | None = None
) -> Path:
    """Persist a :class:`~repro.multirank.faults.HealthReport` next to
    the trace so the watchdog can alert on retries/losses after the
    run is gone."""
    per_rank = None
    if health.per_rank is not None:
        per_rank = [
            {
                "rank": h.rank,
                "outcome": h.outcome,
                "attempts": h.attempts,
                "latency_seconds": h.latency_seconds,
                "failures": list(h.failures),
            }
            for h in health.per_rank
        ]
    payload = {
        "ranks": health.ranks,
        "missing_ranks": list(health.missing_ranks),
        "per_rank": per_rank,
        **(extra or {}),
    }
    path = Path(trace_dir) / HEALTH_NAME
    _atomic_write_json(path, payload)
    return path


def read_health_record(trace_dir: str | Path):
    """Load ``health.json`` back into a ``HealthReport`` (or ``None``)."""
    path = Path(trace_dir) / HEALTH_NAME
    if not path.exists():
        return None
    from repro.multirank.faults import HealthReport, RankHealth

    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TraceStoreError(f"{path}: undecodable health record") from exc
    per_rank = payload.get("per_rank")
    if per_rank is not None:
        per_rank = tuple(
            RankHealth(
                rank=h["rank"],
                outcome=h["outcome"],
                attempts=h["attempts"],
                latency_seconds=h["latency_seconds"],
                failures=tuple(h.get("failures", ())),
            )
            for h in per_rank
        )
    return HealthReport(
        ranks=payload["ranks"],
        per_rank=per_rank,
        missing_ranks=tuple(payload.get("missing_ranks", ())),
    )
