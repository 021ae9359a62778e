"""Linker: lay out machine functions into an executable and DSOs.

The layout decides everything the XRay runtime later consumes:

* function offsets and sizes (sled addresses derive from them),
* the per-object XRay function-id assignment (1-based, layout order),
* symbol tables with visibility,
* whether the object's trampolines are position-independent, and
* the initial text pages holding the sleds' NOP bytes, which every
  process that loads the object maps copy-on-write.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LinkError
from repro.program.binary import BinaryObject, ObjectKind, Symbol, SymbolTable
from repro.program.compiler import CompiledProgram
from repro.program.machine import FUNCTION_HEADER_BYTES, MachineFunction
from repro.program.memory import PAGE_SIZE, MappedRegion
from repro.xray.sled import SLED_BYTES, UNPATCHED, SledKind, SledRecord


@dataclass
class LinkedProgram:
    """A fully linked application: one executable plus its DSOs."""

    compiled: CompiledProgram
    executable: BinaryObject
    dsos: list[BinaryObject] = field(default_factory=list)

    def all_objects(self) -> list[BinaryObject]:
        return [self.executable, *self.dsos]

    def object_of(self, function_name: str) -> BinaryObject:
        for obj in self.all_objects():
            if function_name in obj.functions:
                return obj
        raise KeyError(function_name)

    def function(self, name: str) -> MachineFunction:
        return self.object_of(name).functions[name]

    def total_sled_count(self) -> int:
        return sum(len(o.sled_records) for o in self.all_objects())

    def patchable_function_names(self) -> set[str]:
        """Functions that received XRay sleds anywhere in the program."""
        return {
            rec.function_name
            for obj in self.all_objects()
            for rec in obj.sled_records
            if rec.kind is SledKind.ENTRY
        }


class Linker:
    """Group compiled machine functions into binary objects."""

    def link(self, compiled: CompiledProgram) -> LinkedProgram:
        program = compiled.program
        tu_to_lib: dict[str, str] = {}
        for lib, tus in program.libraries.items():
            for tu in tus:
                tu_to_lib[tu] = lib

        groups: dict[str, list[MachineFunction]] = {program.name: []}
        for lib in program.libraries:
            groups[lib] = []
        for mf in compiled.machine_functions.values():
            target = tu_to_lib.get(mf.tu, program.name)
            groups[target].append(mf)

        if not groups[program.name]:
            raise LinkError("executable would contain no functions")

        executable = self._emit(
            program.name,
            ObjectKind.EXECUTABLE,
            groups.pop(program.name),
            compiled,
            pic=False,
        )
        dsos = [
            self._emit(
                lib,
                ObjectKind.SHARED_OBJECT,
                functions,
                compiled,
                pic=compiled.config.pic,
            )
            for lib, functions in groups.items()
        ]
        return LinkedProgram(compiled=compiled, executable=executable, dsos=dsos)

    # -- layout ---------------------------------------------------------------

    def _emit(
        self,
        name: str,
        kind: ObjectKind,
        functions: list[MachineFunction],
        compiled: CompiledProgram,
        *,
        pic: bool,
    ) -> BinaryObject:
        obj = BinaryObject(name=name, kind=kind, pic=pic)
        offset = 0
        next_fid = 1
        # deterministic layout: TU order then name, approximating how a
        # linker concatenates object files
        for mf in sorted(functions, key=lambda f: (f.tu, f.name)):
            mf.offset = offset
            obj.functions[mf.name] = mf
            if mf.has_symbol:
                obj.symtab.add(
                    Symbol(
                        name=mf.name,
                        offset=offset,
                        size=mf.size_bytes,
                        visibility=mf.visibility,
                    )
                )
            if mf.xray_instrumented:
                fid = next_fid
                next_fid += 1
                obj.function_ids[fid] = mf.name
                entry_off = offset + FUNCTION_HEADER_BYTES
                exit_off = offset + mf.size_bytes - SLED_BYTES
                obj.sled_records.append(
                    SledRecord(entry_off, SledKind.ENTRY, mf.name, fid)
                )
                obj.sled_records.append(
                    SledRecord(exit_off, SledKind.EXIT, mf.name, fid)
                )
            offset += mf.size_bytes
        # retained symbols of fully-inlined functions (vague linkage):
        # they appear in the symbol table but own no code range.
        for fname in sorted(compiled.symbol_retained_inlined):
            tu = compiled.program.tu_of(fname)
            lib = self._lib_of(compiled, tu)
            if (lib or compiled.program.name) == name and fname not in obj.symtab:
                obj.symtab.add(Symbol(name=fname, offset=offset, size=0))
        obj.image_size = _round_up(max(offset, 1), PAGE_SIZE)
        obj.text_pages = _sled_pages(obj)
        return obj

    @staticmethod
    def _lib_of(compiled: CompiledProgram, tu: str) -> str | None:
        for lib, tus in compiled.program.libraries.items():
            if tu in tus:
                return lib
        return None


def _sled_pages(obj: BinaryObject) -> dict[int, bytes]:
    """The object's text pages that hold sleds, each sled set to NOPs."""
    text = MappedRegion(obj.name, base=0, size=obj.image_size)
    for record in obj.sled_records:
        text.write(record.offset, UNPATCHED)
    return {index: bytes(page) for index, page in text.pages.items()}


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple
