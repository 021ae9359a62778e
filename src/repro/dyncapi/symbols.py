"""Symbol collection and XRay-id→name mapping (paper §V-C.1, §VI-B(a)).

DynCaPI must translate XRay function ids into names to match them
against the IC.  The paper's method: collect symbol addresses per object
(``nm`` on the object file), translate them by the object's load address
(from the process memory map), then cross-check against
``__xray_function_address``.

Hidden-visibility symbols in DSOs defeat this: they are not present in
the loader-visible (dynamic) symbol table, so their ids cannot be
named — the 1,444 unresolvable OpenFOAM functions.  The main executable
is exempt (its on-disk symbol table is fully readable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.program.loader import DynamicLoader, LoadedObject
from repro.xray.ids import PackedId
from repro.xray.runtime import XRayRuntime


@dataclass(frozen=True)
class SymbolTriple:
    name: str
    address: int
    size: int


def collect_object_symbols(lo: LoadedObject) -> list[SymbolTriple]:
    """nm-style collection translated to runtime addresses.

    For DSOs only dynamic (non-hidden) symbols are usable; for the
    executable the full symbol table is readable from disk.
    """
    binary = lo.binary
    symbols = binary.nm_symbols() if not binary.is_dso else binary.dynamic_symbols()
    return [
        SymbolTriple(sym.name, lo.base + sym.offset, sym.size) for sym in symbols
    ]


def collect_all_symbols(loader: DynamicLoader) -> dict[str, list[SymbolTriple]]:
    """Per-object symbol triples for every loaded object."""
    return {
        name: collect_object_symbols(lo) for name, lo in loader.loaded.items()
    }


@dataclass
class IdNameMap:
    """Bidirectional packed-id ↔ name mapping with unresolved tracking."""

    names: dict[PackedId, str] = field(default_factory=dict)
    ids: dict[str, PackedId] = field(default_factory=dict)
    #: packed ids whose sled address matched no collected symbol
    unresolved: list[PackedId] = field(default_factory=list)

    def name_of(self, packed: PackedId) -> str | None:
        return self.names.get(packed)

    def id_of(self, name: str) -> PackedId | None:
        return self.ids.get(name)

    @property
    def unresolved_count(self) -> int:
        return len(self.unresolved)


def build_id_name_map(
    runtime: XRayRuntime,
    loader: DynamicLoader,
    *,
    symbols: dict[str, list[SymbolTriple]] | None = None,
) -> IdNameMap:
    """Cross-check XRay function addresses against collected symbols.

    For every registered object and function id, query
    ``__xray_function_address`` and find the covering symbol.  Functions
    without a matching symbol (hidden in a DSO) land in ``unresolved``.
    ``symbols`` is :func:`collect_all_symbols` of ``loader`` when the
    caller has already collected it.
    """
    if symbols is None:
        symbols = collect_all_symbols(loader)
    out = IdNameMap()
    per_object = {
        name: sorted(triples, key=lambda t: t.address)
        for name, triples in symbols.items()
    }
    for obj in runtime.objects():
        triples = per_object.get(obj.name, [])
        for fid in sorted(obj.function_names):
            packed = PackedId(obj.object_id, fid)
            address = runtime.function_address(packed)
            symbol = _covering(triples, address)
            if symbol is None:
                out.unresolved.append(packed)
                continue
            out.names[packed] = symbol.name
            out.ids[symbol.name] = packed
    return out


def _covering(
    triples: list[SymbolTriple], address: int
) -> SymbolTriple | None:
    """Binary search for the symbol whose range covers ``address``."""
    lo, hi = 0, len(triples)
    while lo < hi:
        mid = (lo + hi) // 2
        if triples[mid].address <= address:
            lo = mid + 1
        else:
            hi = mid
    if lo == 0:
        return None
    cand = triples[lo - 1]
    if cand.address <= address < cand.address + max(cand.size, 1):
        return cand
    return None
