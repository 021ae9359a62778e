"""On-disk OTF2-shaped store: writer round-trips, truncation detection,
definition tables, and the health record."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.clock import VirtualClock
from repro.multirank.faults import HealthReport, RankHealth
from repro.scorep.tracing import ScorePTracer, TraceEvent, TraceEventKind
from repro.trace import (
    TraceStoreError,
    TraceWriter,
    discover_ranks,
    load_location,
    load_location_file,
    location_path,
    read_definitions,
    read_health_record,
    write_definitions,
    write_health_record,
)
from repro.trace.store import iter_location_file
from tests.trace.conftest import E, L, M, ev


def sample_events(n=10):
    out = []
    t = 0.0
    for i in range(n // 2):
        t += 1.5
        out.append(ev(E, f"region{i % 3}", t))
        t += 2.25
        out.append(ev(L, f"region{i % 3}", t))
    return out


class TestWriterRoundTrip:
    def test_events_read_back_bit_identical(self, tmp_path):
        events = sample_events(20)
        writer = TraceWriter(tmp_path, 0)
        writer.write_events(events)
        meta = writer.close()
        assert meta.rank == 0
        assert meta.events == 20
        assert load_location(tmp_path, 0) == events

    def test_float_timestamps_survive_exactly(self, tmp_path):
        """JSON round-trips doubles exactly — the bit-identity bedrock."""
        events = [
            ev(E, "a", 0.1 + 0.2),  # the classic 0.30000000000000004
            ev(M, "MPI_Allreduce", 1e9 / 3.0),
            ev(L, "a", 2**53 - 1.0),
        ]
        writer = TraceWriter(tmp_path, 3)
        writer.write_events(events)
        writer.close()
        loaded = load_location(tmp_path, 3)
        assert [e.timestamp_cycles for e in loaded] == [
            e.timestamp_cycles for e in events
        ]

    def test_message_ids_preserved(self, tmp_path):
        events = [
            ev(M, "MPI_Isend", 5.0, mid=0),
            ev(M, "MPI_Irecv", 6.0, mid=0),
            ev(M, "MPI_Allreduce", 7.0),
        ]
        writer = TraceWriter(tmp_path, 0)
        writer.write_events(events)
        writer.close()
        loaded = load_location(tmp_path, 0)
        assert [e.mid for e in loaded] == [0, 0, None]

    def test_buffer_flush_crossing_trace(self, tmp_path):
        """A trace larger than the write buffer spans several flushes
        and still reads back bit-identical."""
        events = sample_events(100)
        writer = TraceWriter(tmp_path, 1, buffer_events=7)
        writer.write_events(events)
        meta = writer.close()
        assert meta.flushes > 3
        assert load_location(tmp_path, 1) == events

    def test_regions_interned_once(self, tmp_path):
        writer = TraceWriter(tmp_path, 0)
        for _ in range(5):
            writer.write(ev(E, "hot", 1.0))
            writer.write(ev(L, "hot", 2.0))
        meta = writer.close()
        assert meta.regions == ("hot",)
        lines = location_path(tmp_path, 0).read_text().splitlines()
        assert sum(1 for ln in lines if json.loads(ln)[0] == "D") == 1

    def test_writer_spills_from_tracer(self, tmp_path):
        """ScorePTracer with a writer streams events to disk instead of
        accumulating them, and refuses in-memory access."""
        writer = TraceWriter(tmp_path, 0, buffer_events=4)
        tracer = ScorePTracer(clock=VirtualClock(), writer=writer)
        for i in range(10):
            tracer.enter(f"r{i % 2}")
            tracer.leave(f"r{i % 2}")
        with pytest.raises(Exception):
            tracer.all_events()
        meta = tracer.close_writer()
        assert meta.events == 20
        loaded = load_location(tmp_path, 0)
        assert len(loaded) == 20
        assert loaded[0].kind is TraceEventKind.ENTER

    def test_closed_writer_rejects_writes(self, tmp_path):
        writer = TraceWriter(tmp_path, 0)
        writer.close()
        with pytest.raises(TraceStoreError, match="already closed"):
            writer.write(ev(E, "a", 1.0))

    def test_abort_publishes_nothing(self, tmp_path):
        writer = TraceWriter(tmp_path, 4)
        writer.write(ev(E, "a", 1.0))
        writer.abort()
        assert not location_path(tmp_path, 4).exists()
        assert discover_ranks(tmp_path) == []

    def test_discover_ranks_sorted(self, tmp_path):
        for rank in (3, 0, 7):
            w = TraceWriter(tmp_path, rank)
            w.close()
        assert discover_ranks(tmp_path) == [0, 3, 7]


class TestTruncationDetection:
    def _published(self, tmp_path, n=30):
        writer = TraceWriter(tmp_path, 0)
        writer.write_events(sample_events(n))
        writer.close()
        return location_path(tmp_path, 0)

    def test_missing_footer_raises_strict(self, tmp_path):
        path = self._published(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceStoreError, match="missing footer"):
            load_location_file(path)

    def test_byte_truncation_raises_strict(self, tmp_path):
        path = self._published(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceStoreError):
            load_location_file(path)

    def test_count_mismatch_raises_strict(self, tmp_path):
        path = self._published(tmp_path, n=10)
        lines = path.read_text().splitlines()
        # drop one event line but keep the footer
        event_idx = next(
            i for i, ln in enumerate(lines)
            if isinstance(json.loads(ln)[0], int)
        )
        del lines[event_idx]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceStoreError, match="footer declares"):
            load_location_file(path)

    def test_prefix_salvageable_before_error(self, tmp_path):
        """Strict readers yield the intact prefix first, then raise —
        callers can salvage what survived."""
        path = self._published(tmp_path, n=10)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        salvaged = []
        with pytest.raises(TraceStoreError):
            for event in iter_location_file(path):
                salvaged.append(event)
        assert 0 < len(salvaged) < 10

    def test_lenient_count_of_truncated_file(self, tmp_path):
        path = self._published(tmp_path, n=10)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert 0 < sum(1 for _ in iter_location_file(path, strict=False)) < 10

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceStoreError, match="missing location"):
            load_location(tmp_path, 9)

    @pytest.mark.parametrize("damage", [b"\xff", b"[" * 100_000])
    def test_damaged_line_is_undecodable(self, tmp_path, damage):
        """A corrupt byte or runaway nesting fails typed, at its line."""
        path = self._published(tmp_path, n=4)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[3] = damage + lines[3]
        path.write_bytes(b"".join(lines))
        with pytest.raises(TraceStoreError, match=r":4: undecodable line"):
            load_location_file(path)
        assert len(load_location_file(path, strict=False)) == 1


#: decodable but malformed lines (with region 0 defined)
MALFORMED = [
    "5", "[]", '["H"]', '["D", 0]', "[0, 0]", "[0, [1], 1.0]",
    '[0, 0, "x"]', "[0, 0, 1.0, [2]]",
]


class TestMalformedRecords:
    @pytest.mark.parametrize("line", MALFORMED)
    @pytest.mark.parametrize("strict", [True, False])
    def test_typed_error_after_the_good_prefix(self, tmp_path, line, strict):
        writer = TraceWriter(tmp_path, 0)
        writer.write_events(sample_events(4))
        path = Path(writer.close().path)
        lines = path.read_text().splitlines()
        lines.insert(len(lines) - 1, line)  # after the events, before the footer
        path.write_text("\n".join(lines) + "\n")
        salvaged = []
        with pytest.raises(
            TraceStoreError, match=rf"rank-00000.evt:{len(lines) - 1}: malformed record"
        ):
            for event in iter_location_file(path, strict=strict):
                salvaged.append(event)
        assert salvaged == sample_events(4)


#: region names that need JSON escapes
escaped_names = st.sampled_from(
    ["main", 'q"uote', "back\\slash", "new\nline", "tab\t", "région", "\u2028", "ok[]"]
)
finite_stamps = st.floats(allow_nan=False, allow_infinity=False)
stamps = st.one_of(
    finite_stamps,
    finite_stamps.map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
streams = st.lists(
    st.builds(
        TraceEvent,
        st.sampled_from(list(TraceEventKind)),
        escaped_names,
        stamps,
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
    ),
    max_size=40,
)


def json_dumps_lines(rank, events):
    """The location file as one ``json.dumps`` per record."""
    kind_code = {TraceEventKind.ENTER: 0, TraceEventKind.LEAVE: 1, TraceEventKind.MPI: 2}
    lines = [json.dumps(["H", 1, rank])]
    regions = {}
    for event in events:
        if event.region not in regions:
            regions[event.region] = len(regions)
            lines.append(json.dumps(["D", regions[event.region], event.region]))
        record = [kind_code[event.kind], regions[event.region], event.timestamp_cycles]
        if event.mid is not None:
            record.append(event.mid)
        lines.append(json.dumps(record))
    lines.append(json.dumps(["F", len(events)]))
    return "".join(line + "\n" for line in lines).encode()


class TestWriterBytes:
    @settings(max_examples=150, deadline=None)
    @given(events=streams, buffer_events=st.integers(min_value=1, max_value=8))
    def test_matches_json_dumps_per_record(self, tmp_path_factory, events, buffer_events):
        trace_dir = tmp_path_factory.mktemp("bytes")
        writer = TraceWriter(trace_dir, 2, buffer_events=buffer_events)
        writer.write_events(events)
        writer.close()
        assert location_path(trace_dir, 2).read_bytes() == json_dumps_lines(2, events)

    @pytest.mark.parametrize(
        "stamp, text", [(math.inf, "Infinity"), (-math.inf, "-Infinity"), (math.nan, "NaN")]
    )
    def test_non_finite_stamp_is_json_spelled(self, tmp_path, stamp, text):
        writer = TraceWriter(tmp_path, 0)
        writer.write(ev(E, "a", stamp, mid=3))
        writer.close()
        assert location_path(tmp_path, 0).read_text().splitlines()[2] == f"[0, 0, {text}, 3]"


class TestDefinitions:
    def test_round_trip(self, tmp_path):
        metas = []
        for rank in (0, 1):
            w = TraceWriter(tmp_path, rank)
            w.write_events(sample_events(6))
            metas.append(w.close())
        write_definitions(
            tmp_path, world_ranks=2, locations=metas, frequency=2.5e9,
            meta={"app": "demo"},
        )
        defs = read_definitions(tmp_path)
        assert defs.world_ranks == 2
        assert defs.locations == (0, 1)
        assert defs.events_per_location == (6, 6)
        assert defs.frequency == 2.5e9
        assert defs.meta["app"] == "demo"
        assert not defs.degraded

    def test_degraded_when_locations_missing(self, tmp_path):
        w = TraceWriter(tmp_path, 1)
        meta = w.close()
        write_definitions(
            tmp_path, world_ranks=4, locations=[meta], frequency=1e9
        )
        assert read_definitions(tmp_path).degraded

    def test_missing_definitions_raises(self, tmp_path):
        with pytest.raises(TraceStoreError, match="missing definitions.json"):
            read_definitions(tmp_path)


class TestHealthRecord:
    def test_round_trip(self, tmp_path):
        health = HealthReport(
            ranks=3,
            per_rank=(
                RankHealth(rank=0, outcome="ok", attempts=1, latency_seconds=0.5),
                RankHealth(
                    rank=1, outcome="ok", attempts=2, latency_seconds=1.0,
                    failures=("crash",),
                ),
                RankHealth(
                    rank=2, outcome="lost", attempts=3, latency_seconds=2.0,
                    failures=("crash", "crash", "crash"),
                ),
            ),
            missing_ranks=(2,),
        )
        write_health_record(tmp_path, health)
        loaded = read_health_record(tmp_path)
        assert loaded == health

    def test_absent_record_is_none(self, tmp_path):
        assert read_health_record(tmp_path) is None
