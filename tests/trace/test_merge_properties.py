"""Property: on generated archives the streaming view agrees with the
in-memory merge of the loaded locations, bit for bit.

Generated worlds have nested enter/leave regions, a rank-scaled number
of loop iterations (ragged collective sequences), ring ``mid``-stamped
point-to-point markers, a closing ``MPI_Finalize``, cross-rank
timestamp ties, and sometimes only an ascending subset of the world's
ranks (a degraded run).
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multirank import merge_rank_traces
from repro.trace import classify_wait_states, load_location, open_merged_trace
from tests.trace.conftest import E, L, M, ev, write_archive
from tests.trace.test_streaming import assert_equivalent

#: gaps between consecutive events: small integers make cross-rank
#: timestamp ties likely, arbitrary floats exercise bit-exact storage
gaps = st.one_of(
    st.integers(min_value=1, max_value=4).map(float),
    st.floats(min_value=0.25, max_value=50.0, allow_nan=False),
)


@st.composite
def rank_stream(draw):
    """One rank: init, ``iterations`` loop bodies, finalize."""
    iterations = draw(st.integers(min_value=0, max_value=3))
    events = [(M, "MPI_Init", None), (E, "main", None)]
    for i in range(iterations):
        events.append((E, "solve", None))
        if draw(st.booleans()):
            events += [(E, "kernel", None), (L, "kernel", None)]
        events += [(M, "MPI_Isend", i), (M, "MPI_Irecv", i), (L, "solve", None)]
        events.append((M, "MPI_Allreduce", None))
    events += [(L, "main", None), (M, "MPI_Finalize", None)]
    t = 0.0
    stream = []
    for kind, region, mid in events:
        t += draw(gaps)
        stream.append(ev(kind, region, t, mid=mid))
    return stream


@st.composite
def worlds(draw):
    """``(world size, {rank: stream})`` over a full or degraded world."""
    world = draw(st.integers(min_value=1, max_value=4))
    ranks = draw(
        st.one_of(
            st.just(list(range(world))),
            st.lists(
                st.integers(min_value=0, max_value=world - 1),
                min_size=1,
                unique=True,
            ).map(sorted),
        )
    )
    return world, {rank: draw(rank_stream()) for rank in ranks}


@settings(max_examples=60, deadline=None)
@given(worlds(), st.integers(min_value=1, max_value=8))
def test_streaming_view_matches_in_memory_merge(world_and_streams, buffer_events):
    world, streams = world_and_streams
    with tempfile.TemporaryDirectory() as trace_dir:
        write_archive(
            trace_dir, streams, world_ranks=world, buffer_events=buffer_events
        )
        streamed = open_merged_trace(trace_dir)
        ids = list(streamed.rank_ids)
        assert ids == sorted(streams)
        loaded = [load_location(trace_dir, rank) for rank in ids]
        assert loaded == [streams[rank] for rank in ids]
        merged = merge_rank_traces(loaded, rank_ids=ids)
        assert_equivalent(streamed, merged)
        assert streamed.elapsed_cycles == merged.elapsed_cycles
        assert classify_wait_states(
            streamed, world_ranks=world
        ) == classify_wait_states(merged, world_ranks=world)
