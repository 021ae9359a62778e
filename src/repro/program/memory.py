"""Simulated process address space with page-level protection.

XRay's patching relies on ``mprotect``: text pages containing sleds are
flipped to copy-on-write writable, the NOP bytes are rewritten, and the
pages are flipped back.  This module models exactly that — a write to a
non-writable page raises :class:`~repro.errors.SegmentationFault`, so a
patching implementation that forgets the ``mprotect`` dance fails the
same way it would on hardware.

Memory is a sparse page overlay.  A :class:`MappedRegion` stores only
the pages that were ever given content; an untouched page reads as
zeros, so mapping a 378 MB text image whose only non-zero bytes are a
few thousand sleds costs a few dozen pages, not 378 MB.  A region may
start from template pages shared with every other mapping of the same
object (the linker builds one set per object).  Template pages are
immutable ``bytes``; a region copies one into a private ``bytearray`` on
its first write to that page, so patching one image never shows in
another image or in the template — the copy-on-write a private file
mapping of ``.text`` gives a real process.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import LoaderError, SegmentationFault

PAGE_SIZE = 4096


def page_of(address: int) -> int:
    return address // PAGE_SIZE


def page_range(start: int, length: int) -> range:
    """Indices of all pages overlapping ``[start, start+length)``."""
    if length <= 0:
        return range(0)
    return range(page_of(start), page_of(start + length - 1) + 1)


@dataclass(eq=False)
class MappedRegion:
    """A contiguous page-aligned mapping (one loaded object's text image).

    ``pages`` maps a region-relative page index to the page's
    ``PAGE_SIZE`` bytes: ``bytes`` for a page shared copy-on-write,
    ``bytearray`` for the region's private copy.  Offsets given to
    :meth:`read` and :meth:`write` are region-relative and unchecked;
    :class:`ProcessImage` enforces bounds and protection.
    """

    name: str
    base: int
    size: int
    pages: dict[int, bytes | bytearray] = field(default_factory=dict)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def share_pages(self, pages: Mapping[int, bytes]) -> None:
        """Overlay ``pages`` (page index -> ``PAGE_SIZE`` bytes) copy-on-write."""
        n_pages = (self.size + PAGE_SIZE - 1) // PAGE_SIZE
        for index, page in pages.items():
            if not 0 <= index < n_pages or len(page) != PAGE_SIZE:
                raise LoaderError(f"bad template page {index} for {self.name!r}")
            self.pages[index] = bytes(page)  # a no-op for bytes; freezes the rest

    def read(self, offset: int, length: int) -> bytes:
        chunks = []
        while length > 0:
            index, start = divmod(offset, PAGE_SIZE)
            n = min(length, PAGE_SIZE - start)
            page = self.pages.get(index)
            chunks.append(bytes(n) if page is None else page[start : start + n])
            offset += n
            length -= n
        return b"".join(chunks)

    def write(self, offset: int, payload: bytes) -> None:
        view = memoryview(payload)
        while view:
            index, start = divmod(offset, PAGE_SIZE)
            n = min(len(view), PAGE_SIZE - start)
            page = self.pages.get(index)
            if not isinstance(page, bytearray):  # untouched or shared: copy
                page = bytearray(PAGE_SIZE) if page is None else bytearray(page)
                self.pages[index] = page
            page[start : start + n] = view[:n]
            offset += n
            view = view[n:]


@dataclass
class ProcessImage:
    """The virtual address space of one simulated process.

    Regions are mapped page-aligned by a bump allocator, so ``regions``
    and the parallel ``_bases`` list stay sorted by base address and
    :meth:`region_at` bisects them.  Page protection is tracked per
    absolute page index.  Text pages start read-only+executable, matching
    how a real loader maps ``.text``.
    """

    regions: list[MappedRegion] = field(default_factory=list)
    _bases: list[int] = field(default_factory=list)
    _writable_pages: set[int] = field(default_factory=set)
    _next_base: int = 0x400000  # conventional ELF load address
    #: Statistics: mprotect invocations (patching cost model input).
    mprotect_calls: int = 0

    # -- mapping --------------------------------------------------------------

    def map_region(self, name: str, size: int) -> MappedRegion:
        """Map ``size`` zero bytes at the next free page-aligned base."""
        if size <= 0:
            raise LoaderError(f"cannot map empty region {name!r}")
        base = self._next_base
        region = MappedRegion(name=name, base=base, size=size)
        self.regions.append(region)
        self._bases.append(base)
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        # one guard page between mappings
        self._next_base = base + (pages + 1) * PAGE_SIZE
        return region

    def unmap(self, region: MappedRegion) -> None:
        i = bisect_left(self._bases, region.base)
        if i == len(self.regions) or self.regions[i] is not region:
            raise LoaderError(f"region {region.name!r} is not mapped")
        del self.regions[i]
        del self._bases[i]
        for page in page_range(region.base, region.size):
            self._writable_pages.discard(page)

    def region_at(self, address: int) -> MappedRegion:
        i = bisect_right(self._bases, address) - 1
        if i >= 0:
            region = self.regions[i]
            if address < region.end:
                return region
        raise SegmentationFault(f"access to unmapped address {address:#x}")

    # -- protection -----------------------------------------------------------

    def mprotect(self, start: int, length: int, *, writable: bool) -> None:
        """Change protection of all pages overlapping the range.

        Like the real syscall this is page-granular: protecting a single
        sled makes its whole page writable.
        """
        self.region_at(start)  # fault on unmapped ranges, like the syscall
        self.mprotect_calls += 1
        for page in page_range(start, length):
            if writable:
                self._writable_pages.add(page)
            else:
                self._writable_pages.discard(page)

    def is_writable(self, address: int) -> bool:
        return page_of(address) in self._writable_pages

    # -- access ---------------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        region = self.region_at(address)
        if address + length > region.end:
            raise SegmentationFault(
                f"read of {length} bytes at {address:#x} crosses region end"
            )
        return region.read(address - region.base, length)

    def write(self, address: int, payload: bytes) -> None:
        """Write bytes, enforcing page protection."""
        region = self.region_at(address)
        if address + len(payload) > region.end:
            raise SegmentationFault(
                f"write of {len(payload)} bytes at {address:#x} crosses region end"
            )
        for page in page_range(address, len(payload)):
            if page not in self._writable_pages:
                raise SegmentationFault(
                    f"write to non-writable page at {address:#x} "
                    f"(did you forget mprotect?)"
                )
        region.write(address - region.base, payload)
