"""Unit tests for linker layout and the dynamic loader."""

import pytest

from repro.errors import LoaderError
from repro.experiments.runner import prepare_app
from repro.program.binary import ObjectKind
from repro.program.builder import ProgramBuilder
from repro.program.compiler import Compiler, CompilerConfig
from repro.program.linker import Linker
from repro.program.loader import DynamicLoader
from repro.program.memory import PAGE_SIZE
from repro.xray.dso import XRayDsoRuntime
from repro.xray.runtime import XRayRuntime
from repro.xray.sled import SLED_BYTES, UNPATCHED, SledKind, decode_patch


class TestLinker:
    def test_layout_groups_by_library(self, demo_linked):
        assert demo_linked.executable.kind is ObjectKind.EXECUTABLE
        assert [d.name for d in demo_linked.dsos] == ["libdemo.so"]
        assert "lib_helper" in demo_linked.dsos[0].functions
        assert "main" in demo_linked.executable.functions

    def test_function_ids_one_based_and_dense(self, demo_linked):
        for obj in demo_linked.all_objects():
            ids = sorted(obj.function_ids)
            assert ids == list(range(1, len(ids) + 1))

    def test_sled_records_entry_and_exit(self, demo_linked):
        exe = demo_linked.executable
        entry = [r for r in exe.sled_records if r.kind is SledKind.ENTRY]
        exits = [r for r in exe.sled_records if r.kind is SledKind.EXIT]
        assert len(entry) == len(exits) == len(exe.function_ids)

    def test_offsets_unique_and_non_overlapping(self, demo_linked):
        for obj in demo_linked.all_objects():
            spans = sorted(
                (mf.offset, mf.offset + mf.size_bytes)
                for mf in obj.functions.values()
            )
            for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_hidden_symbols_absent_from_dynamic_table(self, demo_linked):
        dso = demo_linked.dsos[0]
        dynamic = {s.name for s in dso.dynamic_symbols()}
        nm = {s.name for s in dso.nm_symbols()}
        assert "lib_hidden" in nm
        assert "lib_hidden" not in dynamic

    def test_mpi_stub_has_no_sleds(self, demo_linked):
        exe = demo_linked.executable
        assert all(r.function_name != "MPI_Init" for r in exe.sled_records)

    def test_dso_pic_follows_config(self, demo_program):
        compiled = Compiler(CompilerConfig(pic=False)).compile(demo_program)
        linked = Linker().link(compiled)
        assert not linked.dsos[0].pic

    def test_patchable_names(self, demo_linked):
        names = demo_linked.patchable_function_names()
        assert "kernel" in names
        assert "MPI_Init" not in names
        assert "tiny" not in names  # inlined


class TestLoader:
    def test_all_objects_mapped(self, demo_loaded):
        loader, objs = demo_loaded
        assert len(objs) == 2
        assert set(loader.loaded) == {"demo", "libdemo.so"}

    def test_sleds_initialised_to_nops(self, demo_loaded):
        loader, objs = demo_loaded
        for lo in objs:
            for rec in lo.binary.sled_records:
                blob = loader.image.read(lo.sled_address(rec), SLED_BYTES)
                assert blob == UNPATCHED

    def test_sled_pages_not_writable_after_load(self, demo_loaded):
        loader, objs = demo_loaded
        rec = objs[0].binary.sled_records[0]
        assert not loader.image.is_writable(objs[0].sled_address(rec))

    def test_double_load_rejected(self, demo_linked):
        loader = DynamicLoader()
        loader.load(demo_linked.executable)
        with pytest.raises(LoaderError):
            loader.load(demo_linked.executable)

    def test_dlopen_requires_dso(self, demo_linked):
        loader = DynamicLoader()
        with pytest.raises(LoaderError):
            loader.dlopen(demo_linked.executable)

    def test_dlclose_unmaps(self, demo_linked):
        loader = DynamicLoader()
        loader.load_program(demo_linked)
        loader.dlclose("libdemo.so")
        assert "libdemo.so" not in loader.loaded
        with pytest.raises(LoaderError):
            loader.dlclose("libdemo.so")

    def test_object_containing(self, demo_loaded):
        loader, objs = demo_loaded
        assert loader.object_containing(objs[1].base + 4).binary.name == "libdemo.so"
        with pytest.raises(LoaderError):
            loader.object_containing(0x10)

    def test_dso_marked_relocated(self, demo_loaded):
        _loader, objs = demo_loaded
        assert not objs[0].relocated  # executable
        assert objs[1].relocated  # DSO


def _sled_blobs(loader, objs):
    return [
        loader.image.read(lo.sled_address(rec), SLED_BYTES)
        for lo in objs
        for rec in lo.binary.sled_records
    ]


class TestCopyOnWriteImages:
    def test_patching_one_image_leaves_others_and_template(self, demo_linked):
        template = {
            obj.name: dict(obj.text_pages) for obj in demo_linked.all_objects()
        }
        patched, untouched = DynamicLoader(), DynamicLoader()
        objs = patched.load_program(demo_linked)
        other = untouched.load_program(demo_linked)
        rt = XRayRuntime(patched.image)
        exe = objs[0]
        rt.init_main_executable(
            exe.binary.name, exe.base, exe.binary.sled_records, exe.binary.function_ids
        )
        dso_rt = XRayDsoRuntime(rt)
        for lo in objs[1:]:
            dso_rt.on_load(lo)
        assert rt.patch_all() > 0
        assert all(decode_patch(b) is not None for b in _sled_blobs(patched, objs))
        assert set(_sled_blobs(untouched, other)) == {UNPATCHED}
        for obj in demo_linked.all_objects():
            assert obj.text_pages == template[obj.name]
            assert all(isinstance(p, bytes) for p in obj.text_pages.values())
        # a third load after the patching still starts from all-NOP sleds
        third = DynamicLoader()
        assert set(_sled_blobs(third, third.load_program(demo_linked))) == {UNPATCHED}

    def test_load_charges_the_sled_initialisation_mprotects(self, demo_linked):
        loader = DynamicLoader()
        loader.load_program(demo_linked)
        assert loader.image.mprotect_calls == 2 * demo_linked.total_sled_count()

    def test_lulesh_image_holds_only_its_sled_pages(self):
        exe = prepare_app("lulesh").app.linked.executable
        loader = DynamicLoader()
        lo = loader.load(exe)
        sled_pages = {
            (rec.offset + i) // PAGE_SIZE
            for rec in exe.sled_records
            for i in (0, SLED_BYTES - 1)
        }
        assert exe.image_size > 1000 * len(sled_pages) * PAGE_SIZE
        assert set(lo.region.pages) == sled_pages
        assert len(lo.region.pages) <= 64
        assert all(p is exe.text_pages[i] for i, p in lo.region.pages.items())


def test_builder_chain_helper():
    b = ProgramBuilder("p")
    b.tu("a.cpp")
    for name in ("main", "x", "y"):
        b.function(name, statements=3)
    b.chain(["main", "x", "y"], count=2)
    p = b.build()
    assert p.function("main").call_sites[0].callee == "x"
    assert p.function("x").call_sites[0].calls_per_invocation == 2
