"""Dynamic loader: map linked objects into a process image.

Models the parts of ``ld.so`` the paper's xray-dso extension interacts
with: base-address assignment (DSOs are relocated away from their
preferred base) and ``dlopen``/``dlclose`` for runtime (un)loading.

Loading maps the object's text as a sparse page overlay: the linker's
sled pages (NOP bytes at every sled) are shared copy-on-write and every
other page reads as zeros, so patching still operates on real
page-protected memory while a 378 MB image costs a few dozen pages.
Each process copies a sled page on its first patch of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LoaderError, SegmentationFault
from repro.program.binary import BinaryObject
from repro.program.linker import LinkedProgram
from repro.program.memory import MappedRegion, ProcessImage


@dataclass
class LoadedObject:
    """A binary object mapped at a concrete base address."""

    binary: BinaryObject
    region: MappedRegion

    @property
    def base(self) -> int:
        return self.region.base

    @property
    def relocated(self) -> bool:
        """True when the object was not mapped at its preferred base.

        Executables are linked non-PIC at a fixed address; DSOs are
        always relocated, which is why their trampolines must be
        position independent (paper §V-B.2).
        """
        return self.binary.is_dso

    def address_of(self, object_offset: int) -> int:
        return self.base + object_offset

    def sled_address(self, record) -> int:
        return self.base + record.offset


@dataclass
class DynamicLoader:
    """Maps objects into a :class:`ProcessImage` and tracks liveness."""

    image: ProcessImage = field(default_factory=ProcessImage)
    loaded: dict[str, LoadedObject] = field(default_factory=dict)

    def load(self, binary: BinaryObject) -> LoadedObject:
        if binary.name in self.loaded:
            raise LoaderError(f"object {binary.name!r} already loaded")
        region = self.image.map_region(binary.name, binary.image_size)
        region.share_pages(binary.text_pages)
        # The sleds' NOPs arrive with the shared pages.  A loader writing
        # them itself pays an mprotect pair per sled (writable, then back
        # to read-only/execute); the image's counter still charges those.
        self.image.mprotect_calls += 2 * len(binary.sled_records)
        lo = LoadedObject(binary=binary, region=region)
        self.loaded[binary.name] = lo
        return lo

    def dlopen(self, binary: BinaryObject) -> LoadedObject:
        """Runtime loading of a DSO (identical mapping path)."""
        if not binary.is_dso:
            raise LoaderError("dlopen target must be a shared object")
        return self.load(binary)

    def dlclose(self, name: str) -> None:
        lo = self.loaded.pop(name, None)
        if lo is None:
            raise LoaderError(f"object {name!r} is not loaded")
        self.image.unmap(lo.region)

    def load_program(self, linked: LinkedProgram) -> list[LoadedObject]:
        """Map the executable and all link-time DSO dependencies."""
        objs = [self.load(linked.executable)]
        objs.extend(self.load(dso) for dso in linked.dsos)
        return objs

    def object_containing(self, address: int) -> LoadedObject:
        try:
            region = self.image.region_at(address)
        except SegmentationFault:
            region = None
        lo = self.loaded.get(region.name) if region is not None else None
        if lo is None or lo.region is not region:
            raise LoaderError(f"no loaded object contains address {address:#x}")
        return lo
