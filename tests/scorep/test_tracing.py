"""Tests for Score-P tracing mode."""

import pickle

import pytest

from repro.execution.clock import VirtualClock
from repro.scorep.tracing import (
    RankedTraceEvent,
    ScorePTracer,
    TraceEvent,
    TraceEventKind,
    validate_trace,
)
from repro.trace.store import TraceWriter, iter_location_file


@pytest.fixture
def tracer():
    return ScorePTracer(clock=VirtualClock())


class TestRecording:
    def test_events_timestamped_monotonically(self, tracer):
        tracer.enter("main")
        tracer.clock.advance(100)
        tracer.enter("solve")
        tracer.leave("solve")
        tracer.leave("main")
        events = tracer.all_events()
        stamps = [e.timestamp_cycles for e in events]
        assert stamps == sorted(stamps)
        assert [e.kind for e in events] == [
            TraceEventKind.ENTER,
            TraceEventKind.ENTER,
            TraceEventKind.LEAVE,
            TraceEventKind.LEAVE,
        ]

    def test_recording_costs_cycles(self, tracer):
        before = tracer.clock.cycles
        tracer.enter("x")
        assert tracer.clock.cycles > before

    def test_mpi_markers(self, tracer):
        tracer.enter("comm")
        tracer.mpi("MPI_Allreduce")
        tracer.leave("comm")
        kinds = [e.kind for e in tracer.all_events()]
        assert TraceEventKind.MPI in kinds

    def test_buffer_flushing(self):
        tracer = ScorePTracer(clock=VirtualClock(), buffer_size=4)
        for i in range(10):
            tracer.enter(f"r{i}")
        assert tracer.flush_count >= 2
        assert len(tracer.all_events()) == 10


def write_and_read_back(events, trace_dir):
    """Publish ``events`` as one location file and stream it back."""
    writer = TraceWriter(trace_dir, 0)
    writer.write_events(events)
    meta = writer.close()
    return meta, list(iter_location_file(meta.path))


class TestPersistence:
    """Tracer output survives the on-disk location format unchanged."""

    def test_save_load_roundtrip(self, tracer, tmp_path):
        tracer.enter("main")
        tracer.mpi("MPI_Send", mid=4)
        tracer.leave("main")
        meta, loaded = write_and_read_back(tracer.all_events(), tmp_path)
        assert meta.events == 3
        assert loaded == tracer.all_events()
        assert loaded[1].mid == 4

    def test_roundtrip_preserves_kinds_and_timestamps_exactly(
        self, tracer, tmp_path
    ):
        tracer.enter("main")
        tracer.clock.advance(123.456)
        tracer.enter("solve")
        tracer.mpi("MPI_Allreduce")
        tracer.leave("solve")
        tracer.clock.advance(0.25)
        tracer.leave("main")
        _, loaded = write_and_read_back(tracer.all_events(), tmp_path)
        original = tracer.all_events()
        assert len(loaded) == len(original)
        assert [e.kind for e in loaded] == [e.kind for e in original]
        assert [e.region for e in loaded] == [e.region for e in original]
        # timestamps must survive bit-exactly (JSON floats round-trip)
        assert [e.timestamp_cycles for e in loaded] == [
            e.timestamp_cycles for e in original
        ]

    def test_roundtrip_across_buffer_flush_threshold(self, tmp_path):
        """A tracer whose buffer spills to the writer mid-run publishes
        spilled + live events in recording order, and the count
        survives exactly."""

        def record(tracer):
            for i in range(10):
                tracer.enter(f"r{i}")
                tracer.mpi("MPI_Barrier")
                tracer.leave(f"r{i}")

        reference = ScorePTracer(clock=VirtualClock())
        record(reference)
        tracer = ScorePTracer(
            clock=VirtualClock(),
            buffer_size=8,
            writer=TraceWriter(tmp_path, 0, buffer_events=5),
        )
        record(tracer)
        assert tracer.flush_count >= 3
        assert tracer.events  # live tail not yet spilled
        meta = tracer.close_writer()
        assert meta.events == 30
        loaded = list(iter_location_file(meta.path))
        assert loaded == reference.all_events()
        stamps = [e.timestamp_cycles for e in loaded]
        assert stamps == sorted(stamps)


class TestValidation:
    def test_clean_trace(self, tracer):
        tracer.enter("a")
        tracer.enter("b")
        tracer.leave("b")
        tracer.leave("a")
        assert validate_trace(tracer.all_events()) == []

    def test_unbalanced_leave_detected(self, tracer):
        tracer.enter("a")
        tracer.leave("b")
        problems = validate_trace(tracer.all_events())
        codes = {p.code for p in problems}
        assert any(code.startswith("unbalanced-leave") for code in codes)
        assert "unclosed-region" in codes

    def test_out_of_order_leave_resyncs_no_cascade(self, tracer):
        """Regression: one LEAVE of an outer region used to leave the
        mismatched frame on the stack forever, flooding the report with
        one spurious 'unclosed region' per open ancestor."""
        tracer.enter("main")
        tracer.enter("solve")
        tracer.enter("kernel")
        tracer.leave("main")  # the single defect: closes over 2 frames
        for i in range(5):  # clean traffic after the defect
            tracer.enter(f"r{i}")
            tracer.leave(f"r{i}")
        problems = validate_trace(tracer.all_events())
        assert len(problems) == 1
        assert problems[0].code == "unbalanced-leave-resync"
        assert problems[0].region == "main"
        assert "unbalanced LEAVE main" in str(problems[0])

    def test_stray_leave_still_single_report(self, tracer):
        """A LEAVE of a never-entered region reports once and does not
        disturb the surrounding balanced nesting."""
        tracer.enter("main")
        tracer.leave("ghost")
        tracer.enter("kernel")
        tracer.leave("kernel")
        tracer.leave("main")
        problems = validate_trace(tracer.all_events())
        assert [str(p) for p in problems] == ["unbalanced LEAVE ghost"]
        assert problems[0].code == "unbalanced-leave"
        assert problems[0].rank is None

    def test_each_unclosed_region_reported_once(self, tracer):
        tracer.enter("a")
        tracer.enter("b")
        problems = validate_trace(tracer.all_events())
        assert sorted(str(p) for p in problems) == [
            "unclosed region a",
            "unclosed region b",
        ]
        assert {p.code for p in problems} == {"unclosed-region"}


class TestRankTaggedStreams:
    def test_ranked_event_is_hashable_value_object(self):
        ev = RankedTraceEvent(0, TraceEventKind.MPI, "MPI_Barrier", 7.0)
        assert ev == RankedTraceEvent(0, TraceEventKind.MPI, "MPI_Barrier", 7.0)
        assert hash(ev) == hash(
            RankedTraceEvent(0, TraceEventKind.MPI, "MPI_Barrier", 7.0)
        )


class TestEventSemantics:
    """Both event types are value objects: named fields in a fixed
    order, ``mid`` defaulting to ``None``, immutable and picklable (the
    ``mp`` backend ships them between processes)."""

    def test_field_names_order_and_defaults(self):
        assert TraceEvent._fields == ("kind", "region", "timestamp_cycles", "mid")
        assert RankedTraceEvent._fields == (
            "rank", "kind", "region", "timestamp_cycles", "mid",
        )
        ev = TraceEvent(TraceEventKind.ENTER, "main", 1.5)
        assert ev.mid is None
        assert RankedTraceEvent(2, TraceEventKind.ENTER, "main", 1.5).mid is None
        assert ev == TraceEvent(
            kind=TraceEventKind.ENTER, region="main", timestamp_cycles=1.5, mid=None
        )

    @pytest.mark.parametrize(
        "ev",
        [
            TraceEvent(TraceEventKind.MPI, "MPI_Isend", 3.0, 4),
            RankedTraceEvent(1, TraceEventKind.MPI, "MPI_Isend", 3.0, 4),
        ],
    )
    def test_immutable(self, ev):
        with pytest.raises(AttributeError):
            ev.timestamp_cycles = 9.0
        with pytest.raises(TypeError):
            ev[0] = None

    @pytest.mark.parametrize(
        "ev",
        [
            TraceEvent(TraceEventKind.LEAVE, "solve", 0.1 + 0.2),
            RankedTraceEvent(3, TraceEventKind.MPI, "MPI_Irecv", 2.0**60, 7),
        ],
    )
    def test_pickle_round_trip(self, ev):
        back = pickle.loads(pickle.dumps(ev))
        assert back == ev
        assert type(back) is type(ev)
        assert back.kind is ev.kind

    def test_untagged_drops_only_the_rank(self):
        ranked = RankedTraceEvent(5, TraceEventKind.MPI, "MPI_Isend", 3.0, 4)
        plain = ranked.untagged()
        assert type(plain) is TraceEvent
        assert plain == TraceEvent(TraceEventKind.MPI, "MPI_Isend", 3.0, 4)

    def test_ranked_never_equals_untagged(self):
        for rank in (0, 1):
            ranked = RankedTraceEvent(rank, TraceEventKind.ENTER, "main", 1.0)
            assert ranked != ranked.untagged()
            assert ranked.untagged() != ranked
