"""The DynCaPI runtime: startup patching according to the IC (paper §IV).

"During runtime, the DynCaPI library is responsible for directing the
dynamic instrumentation.  Patching is done at startup according to the
IC file passed via an environment variable.  DynCaPI also provides an
interface between the XRay events and the measurement tool."

Startup sequence (all charged to the virtual clock → Tinit):

1. initialise the main executable with the XRay runtime,
2. register every loaded DSO through the xray-dso runtime,
3. collect symbols and build the function-id → name mapping
   (cross-checked via ``__xray_function_address``),
4. load and parse the IC (from ``CAPI_FILTER_FILE`` or given directly),
5. patch the sleds of every IC function whose id could be named, and
6. install the measurement bridge as the XRay event handler.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.ic import IC_ENV_VAR, InstrumentationConfig
from repro.dyncapi.symbols import IdNameMap, build_id_name_map, collect_all_symbols
from repro.errors import PatchingError
from repro.execution.clock import VirtualClock
from repro.execution.costs import CostModel
from repro.program.loader import DynamicLoader, LoadedObject
from repro.xray.dso import XRayDsoRuntime
from repro.xray.ids import PackedId
from repro.xray.runtime import XRayRuntime
from repro.xray.trampoline import Handler


@dataclass
class StartupReport:
    """What happened during DynCaPI startup (feeds §VI-B analyses)."""

    patched_functions: int = 0
    patched_sleds: int = 0
    skipped_not_in_ic: int = 0
    #: function ids that could not be named (hidden symbols, §VI-B(a))
    unresolved_ids: int = 0
    #: IC entries naming functions without sleds anywhere (e.g. fully
    #: inlined functions whose symbol survived — the §V-E caveat)
    missing_in_binary: list[str] = field(default_factory=list)
    registered_dsos: int = 0
    init_cycles: float = 0.0


@dataclass
class DynCapi:
    """Process-wide DynCaPI state."""

    xray: XRayRuntime
    loader: DynamicLoader
    clock: VirtualClock
    cost_model: CostModel = field(default_factory=CostModel)
    dso_runtime: XRayDsoRuntime = field(init=False)
    id_names: IdNameMap = field(default_factory=IdNameMap)

    def __post_init__(self) -> None:
        self.dso_runtime = XRayDsoRuntime(self.xray)

    # -- startup ------------------------------------------------------------------

    def startup(
        self,
        *,
        ic: InstrumentationConfig | None = None,
        handler: Handler | None = None,
        tool_init_cycles: float = 0.0,
    ) -> StartupReport:
        """Run the full startup sequence; returns the report.

        ``ic=None`` reproduces XRay's legacy mode: patch every sled
        ("xray full" in Table II).  If ``ic`` is None and the
        ``CAPI_FILTER_FILE`` environment variable points at a filter
        file, the IC is loaded from there, mirroring the paper's
        workflow.
        """
        report = StartupReport()
        start = self.clock.now()
        self.clock.advance(tool_init_cycles)

        self._register_objects(report)
        self._build_id_map(report)

        if ic is None and os.environ.get(IC_ENV_VAR):
            ic = InstrumentationConfig.load_filter(os.environ[IC_ENV_VAR])
        if ic is not None:
            self.clock.advance(self.cost_model.ic_parse_entry * len(ic))

        self._patch(ic, report)
        if handler is not None:
            self.xray.set_handler(handler)
        report.init_cycles = self.clock.now() - start
        return report

    def startup_inactive(self) -> StartupReport:
        """Plain XRay startup: objects register, nothing is patched.

        This is Table II's "xray inactive" configuration: sleds stay
        NOPs, no measurement library is initialised, no symbols are
        collected.  The whole point is that this costs almost nothing.
        """
        report = StartupReport()
        start = self.clock.now()
        self._register_objects(report)
        report.init_cycles = self.clock.now() - start
        return report

    # -- steps -----------------------------------------------------------------------

    def _register_objects(self, report: StartupReport) -> None:
        exe: LoadedObject | None = None
        dsos: list[LoadedObject] = []
        for lo in self.loader.loaded.values():
            if lo.binary.is_dso:
                dsos.append(lo)
            else:
                exe = lo
        if exe is None:
            raise PatchingError("no executable loaded")
        self.xray.init_main_executable(
            exe.binary.name,
            exe.base,
            list(exe.binary.sled_records),
            dict(exe.binary.function_ids),
        )
        for lo in dsos:
            self.dso_runtime.on_load(lo)
            self.clock.advance(self.cost_model.dso_register)
            report.registered_dsos += 1

    def _build_id_map(self, report: StartupReport) -> None:
        symbols = collect_all_symbols(self.loader)
        n_symbols = sum(len(triples) for triples in symbols.values())
        self.clock.advance(self.cost_model.symbol_collect * n_symbols)
        self.id_names = build_id_name_map(self.xray, self.loader, symbols=symbols)
        n_ids = len(self.id_names.names) + len(self.id_names.unresolved)
        self.clock.advance(self.cost_model.id_translate * n_ids)
        report.unresolved_ids = self.id_names.unresolved_count

    def _patch(
        self, ic: InstrumentationConfig | None, report: StartupReport
    ) -> None:
        matched: set[str] = set()
        for packed in self.xray.packed_ids():
            name = self.id_names.name_of(packed)
            if name is None:
                # unresolved (hidden) functions can never be matched
                # against the IC, hence are never patched (§VI-B(a))
                continue
            if ic is not None and name not in ic:
                report.skipped_not_in_ic += 1
                continue
            matched.add(name)
            sleds = self.xray.patch_function(packed)
            report.patched_functions += 1
            report.patched_sleds += sleds
            self.clock.advance(self.cost_model.patch_sled * sleds)
        if ic is not None:
            report.missing_in_binary = sorted(ic.functions - matched)

    # -- runtime adjustment (the paper's headline feature) ------------------------------

    def repatch(self, new_ic: InstrumentationConfig) -> StartupReport:
        """Apply a different IC without recompilation or restart.

        Unpatches everything, then patches the new selection — the
        "substantial improvement of turnaround time" of §VII-A/§VIII.
        """
        report = StartupReport()
        start = self.clock.now()
        self.xray.unpatch_all()
        self.clock.advance(self.cost_model.ic_parse_entry * len(new_ic))
        self._patch(new_ic, report)
        report.init_cycles = self.clock.now() - start
        return report

    def dlopen_dso(self, lo: LoadedObject, ic: InstrumentationConfig | None) -> int:
        """Register and patch a DSO loaded after startup (dlopen path)."""
        object_id = self.dso_runtime.on_load(lo)
        self.clock.advance(self.cost_model.dso_register)
        self.id_names = build_id_name_map(self.xray, self.loader)
        for fid in sorted(lo.binary.function_ids):
            packed = PackedId(object_id, fid)
            name = self.id_names.name_of(packed)
            if name is None:
                continue
            if ic is not None and name not in ic:
                continue
            sleds = self.xray.patch_function(packed)
            self.clock.advance(self.cost_model.patch_sled * sleds)
        return object_id
