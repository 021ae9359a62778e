"""Unit tests for the page-protected process memory model."""

import pytest
from dense_memory import DenseProcessImage, DenseRegion
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LoaderError, SegmentationFault
from repro.program.memory import (
    PAGE_SIZE,
    MappedRegion,
    ProcessImage,
    page_of,
    page_range,
)


class TestPageMath:
    def test_page_of(self):
        assert page_of(0) == 0
        assert page_of(PAGE_SIZE - 1) == 0
        assert page_of(PAGE_SIZE) == 1

    def test_page_range_spanning(self):
        pages = list(page_range(PAGE_SIZE - 1, 2))
        assert pages == [0, 1]

    def test_page_range_empty(self):
        assert list(page_range(100, 0)) == []


class TestMapping:
    def test_map_and_read_back(self):
        img = ProcessImage()
        region = img.map_region("exe", 100)
        assert img.read(region.base, 100) == bytes(100)

    def test_mappings_do_not_overlap(self):
        img = ProcessImage()
        a = img.map_region("a", PAGE_SIZE * 2)
        b = img.map_region("b", PAGE_SIZE)
        assert a.end <= b.base

    def test_empty_region_rejected(self):
        with pytest.raises(LoaderError):
            ProcessImage().map_region("a", 0)

    def test_unmap_then_access_faults(self):
        img = ProcessImage()
        region = img.map_region("a", 64)
        img.unmap(region)
        with pytest.raises(SegmentationFault):
            img.read(region.base, 1)

    def test_unmap_unknown_region_rejected(self):
        img = ProcessImage()
        region = img.map_region("a", 64)
        img.unmap(region)
        with pytest.raises(LoaderError):
            img.unmap(region)


class TestProtection:
    def test_write_without_mprotect_faults(self):
        img = ProcessImage()
        region = img.map_region("a", 64)
        with pytest.raises(SegmentationFault, match="mprotect"):
            img.write(region.base, b"hi")

    def test_write_after_mprotect_succeeds(self):
        img = ProcessImage()
        region = img.map_region("a", 64)
        img.mprotect(region.base, 2, writable=True)
        img.write(region.base, b"hi")
        assert img.read(region.base, 2) == b"hi"

    def test_protection_is_page_granular(self):
        img = ProcessImage()
        region = img.map_region("a", PAGE_SIZE)
        img.mprotect(region.base, 1, writable=True)
        # the whole page becomes writable, like the real syscall
        img.write(region.base + 100, b"x")

    def test_reprotect_readonly_blocks_writes(self):
        img = ProcessImage()
        region = img.map_region("a", 64)
        img.mprotect(region.base, 64, writable=True)
        img.mprotect(region.base, 64, writable=False)
        with pytest.raises(SegmentationFault):
            img.write(region.base, b"x")

    def test_mprotect_unmapped_faults(self):
        img = ProcessImage()
        with pytest.raises(SegmentationFault):
            img.mprotect(0xDEAD0000, 4, writable=True)


class TestBounds:
    def test_read_across_region_end_faults(self):
        img = ProcessImage()
        region = img.map_region("a", 16)
        with pytest.raises(SegmentationFault):
            img.read(region.base + 10, 10)

    def test_write_across_region_end_faults(self):
        img = ProcessImage()
        region = img.map_region("a", 16)
        img.mprotect(region.base, 16, writable=True)
        with pytest.raises(SegmentationFault):
            img.write(region.base + 10, b"0123456789")


class TestSparsePages:
    def test_access_across_page_boundary(self):
        img = ProcessImage()
        region = img.map_region("a", PAGE_SIZE * 3)
        addr = region.base + PAGE_SIZE - 3
        img.mprotect(addr, 8, writable=True)
        img.write(addr, b"01234567")
        assert img.read(addr - 1, 10) == b"\x0001234567\x00"
        assert sorted(region.pages) == [0, 1]

    def test_untouched_pages_cost_nothing(self):
        img = ProcessImage()
        region = img.map_region("a", 1 << 30)
        assert img.read(region.end - 16, 16) == bytes(16)
        assert region.pages == {}

    def test_region_at_bisects_to_the_covering_region(self):
        img = ProcessImage()
        regions = [img.map_region(str(i), PAGE_SIZE * (i + 1)) for i in range(5)]
        img.unmap(regions[2])
        for region in (regions[0], regions[1], regions[3], regions[4]):
            assert img.region_at(region.base) is region
            assert img.region_at(region.end - 1) is region
            with pytest.raises(SegmentationFault):
                img.region_at(region.end)  # the guard page
        with pytest.raises(SegmentationFault):
            img.region_at(regions[2].base)
        with pytest.raises(SegmentationFault):
            img.region_at(regions[0].base - 1)

    def test_template_pages_are_copy_on_write(self):
        template = {1: bytes([0x90]) * PAGE_SIZE}
        img = ProcessImage()
        a = img.map_region("a", PAGE_SIZE * 2)
        b = img.map_region("b", PAGE_SIZE * 2)
        a.share_pages(template)
        b.share_pages(template)
        img.mprotect(a.base + PAGE_SIZE, 1, writable=True)
        img.write(a.base + PAGE_SIZE, b"\xe9")
        assert img.read(a.base + PAGE_SIZE, 2) == b"\xe9\x90"
        assert img.read(b.base + PAGE_SIZE, 2) == b"\x90\x90"
        assert template[1] == bytes([0x90]) * PAGE_SIZE
        assert b.pages[1] is template[1]  # b still shares the page

    def test_mutable_template_is_not_shared(self):
        page = bytearray(PAGE_SIZE)
        img = ProcessImage()
        a = img.map_region("a", PAGE_SIZE)
        a.share_pages({0: page})
        img.mprotect(a.base, 1, writable=True)
        img.write(a.base, b"x")
        assert page == bytes(PAGE_SIZE)

    @pytest.mark.parametrize("pages", [{1: bytes(PAGE_SIZE)}, {0: b"short"}])
    def test_bad_template_pages_rejected(self, pages):
        with pytest.raises(LoaderError):
            ProcessImage().map_region("a", PAGE_SIZE).share_pages(pages)


# -- differential test against the dense oracle --------------------------------

#: one template shared by every templated mapping of a run, as the
#: linker's sled pages are shared by every load of an object
_TEMPLATE = {
    0: bytes(range(256)) * (PAGE_SIZE // 256),
    2: bytes([0x90]) * PAGE_SIZE,
}

#: (region-relative offset, length) of an access; half of them straddle
#: a page boundary, and those at the end of a page-multiple region
#: straddle the region end
_windows = st.one_of(
    st.builds(
        lambda k, back, ahead: (k * PAGE_SIZE - back, back + ahead),
        st.integers(1, 3),
        st.integers(1, 12),
        st.integers(1, 4),
    ),
    st.tuples(
        st.integers(-PAGE_SIZE, 3 * PAGE_SIZE + 64), st.integers(0, 2 * PAGE_SIZE)
    ),
)
_sizes = st.one_of(
    st.integers(1, 3 * PAGE_SIZE + 100), st.sampled_from([PAGE_SIZE, 3 * PAGE_SIZE])
)
#: the second field of every non-map op picks a region ever mapped
_which = st.integers(0, 7)
_map = st.tuples(st.just("map"), _sizes, st.booleans(), st.booleans())
_ops = st.lists(
    st.one_of(
        _map,
        st.tuples(st.just("unmap"), _which),
        st.tuples(st.just("mprotect"), _which, _windows, st.booleans()),
        st.tuples(st.just("read"), _which, _windows),
        st.tuples(st.just("write"), _which, _windows, st.integers(0, 254)),
        st.tuples(st.just("is_writable"), _which, _windows),
    ),
    min_size=8,
    max_size=40,
)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (LoaderError, SegmentationFault) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(first=_map, ops=_ops)
def test_sparse_image_matches_dense_oracle(first, ops):
    """Random map/unmap/mprotect/read/write sequences: equal bytes, equal
    fault types and equal mprotect counts on the sparse image and the
    dense oracle, including page- and region-end-crossing accesses."""
    sparse, dense = ProcessImage(), DenseProcessImage()
    mapped: list[tuple[MappedRegion, DenseRegion]] = []  # unmapped ones stay
    for op in [first, *ops]:
        kind = op[0]
        if kind == "map":
            _, size, templated, writable = op
            n_pages = -(-size // PAGE_SIZE)
            pages = {i: p for i, p in _TEMPLATE.items() if templated and i < n_pages}
            s_region = sparse.map_region("r", size)
            d_region = dense.map_region("r", size)
            s_region.share_pages(pages)
            d_region.share_pages(pages)
            assert (s_region.base, s_region.end) == (d_region.base, d_region.end)
            mapped.append((s_region, d_region))
            if writable:  # so that most writes land
                sparse.mprotect(s_region.base, size, writable=True)
                dense.mprotect(d_region.base, size, writable=True)
            continue
        s_region, d_region = mapped[op[1] % len(mapped)]
        if kind == "unmap":
            got = (_outcome(sparse.unmap, s_region), _outcome(dense.unmap, d_region))
        else:
            offset, length = op[2]
            args, kwargs = [s_region.base + offset], {}
            if kind == "mprotect":
                args.append(length)
                kwargs["writable"] = op[3]
            elif kind == "read":
                args.append(length)
            elif kind == "write":
                # distinct non-zero bytes, so a misplaced byte shows
                args.append(bytes((op[3] + i) % 255 + 1 for i in range(length)))
            got = tuple(
                _outcome(getattr(img, kind), *args, **kwargs) for img in (sparse, dense)
            )
        assert got[0] == got[1], op
        assert sparse.mprotect_calls == dense.mprotect_calls
        _assert_same_region(sparse, s_region, dense, d_region)
    for s_region, d_region in mapped:
        _assert_same_region(sparse, s_region, dense, d_region)


def _assert_same_region(sparse, s_region, dense, d_region):
    """A live region holds the same bytes and protection in both images."""
    if d_region not in dense.regions:
        return
    whole = sparse.read(s_region.base, s_region.end - s_region.base)
    assert whole == bytes(d_region.data)
    assert all(
        sparse.is_writable(a) == dense.is_writable(a)
        for a in range(s_region.base, s_region.end, PAGE_SIZE)
    )
