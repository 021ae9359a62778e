"""Cross-module property tests: invariants the whole toolchain rests on.

Hypothesis generates small random programs; every invariant must hold
regardless of structure.  These are the properties that make the Table
I/II numbers trustworthy.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cg.merge import build_whole_program_cg
from repro.core.ic import InstrumentationConfig
from repro.core.inlining import available_symbols, compensate_inlining
from repro.core.selectors.base import AllSelector, Selector
from repro.core.selectors.coarse import Coarse
from repro.core.selectors.combinators import Join
from repro.program.builder import ProgramBuilder
from repro.program.compiler import Compiler
from repro.program.linker import Linker
from repro.program.loader import DynamicLoader
from repro.xray.runtime import XRayRuntime


@st.composite
def random_programs(draw):
    """Small random layered programs (acyclic, deterministic)."""
    n_layers = draw(st.integers(2, 4))
    per_layer = draw(st.integers(1, 4))
    b = ProgramBuilder("rand")
    b.tu("main.cpp")
    b.function("main", statements=draw(st.integers(1, 20)))
    layers: list[list[str]] = [["main"]]
    idx = 0
    for layer_i in range(n_layers):
        layer = []
        for _ in range(per_layer):
            name = f"f{idx}"
            idx += 1
            b.function(
                name,
                statements=draw(st.integers(1, 30)),
                flops=draw(st.integers(0, 50)),
                loop_depth=draw(st.integers(0, 3)),
                inline_marked=draw(st.booleans()),
                in_system_header=draw(st.booleans()),
            )
            layer.append(name)
        # wire every new function from at least one parent
        for name in layer:
            parent = layers[-1][draw(st.integers(0, len(layers[-1]) - 1))]
            b.call(parent, name, count=draw(st.integers(1, 4)))
        layers.append(layer)
    return b.build()


COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(**COMMON)
@given(program=random_programs())
def test_machine_functions_partition_the_symbols(program):
    """Every non-inlined function is emitted exactly once; inlined
    functions are gone from the object code."""
    compiled = Compiler().compile(program)
    emitted = set(compiled.machine_functions)
    assert emitted | compiled.inlined == {f.name for f in program.functions()}
    assert not (emitted & compiled.inlined)


@settings(**COMMON)
@given(program=random_programs())
def test_linker_layout_covers_all_emitted_functions(program):
    compiled = Compiler().compile(program)
    linked = Linker().link(compiled)
    placed = set()
    for obj in linked.all_objects():
        for mf in obj.functions.values():
            assert mf.offset >= 0
            placed.add(mf.name)
    assert placed == set(compiled.machine_functions)


@settings(**COMMON)
@given(program=random_programs())
def test_patch_unpatch_restores_every_image(program):
    """Whole-program property of the paper's patching mechanism."""
    compiled = Compiler().compile(program)
    linked = Linker().link(compiled)
    loader = DynamicLoader()
    objs = loader.load_program(linked)
    rt = XRayRuntime(loader.image)
    exe = objs[0]
    rt.init_main_executable(
        exe.binary.name, exe.base, exe.binary.sled_records, exe.binary.function_ids
    )
    def images():
        return {
            lo.binary.name: loader.image.read(lo.base, lo.binary.image_size)
            for lo in objs
        }

    before = images()
    rt.patch_all()
    rt.unpatch_all()
    after = images()
    assert before == after


@settings(**COMMON)
@given(program=random_programs())
def test_inlining_compensation_guarantee(program):
    """§V-E guarantee: after compensation, every originally selected
    function is either instrumentable itself or has an instrumentable
    ancestor in the IC (its profile data is retained under the caller's
    name)."""
    compiled = Compiler().compile(program)
    linked = Linker().link(compiled)
    graph = build_whole_program_cg(program)
    selected = frozenset(f.name for f in program.functions())
    result = compensate_inlining(
        InstrumentationConfig(functions=selected), graph, linked
    )
    symbols = available_symbols(linked)
    for name in result.removed - result.uncovered:
        ancestors = graph.reaching([name]) - {name}
        assert ancestors & result.ic.functions & symbols, name


@settings(**COMMON)
@given(program=random_programs())
def test_coarse_selector_invariants(program):
    """coarse(S) ⊆ S, is idempotent, and keeps every multi-caller node."""
    graph = build_whole_program_cg(program)
    base = AllSelector()
    coarse = Coarse(base)
    all_names = base.evaluate(graph)
    once = coarse.evaluate(graph)
    assert once <= all_names
    # multi-caller nodes always survive
    for name in all_names:
        if len(graph.callers_of(name)) > 1:
            assert name in once
    # applying coarse to its own result changes nothing further:
    # every remaining selected single-caller callee kept its caller
    twice = Coarse(Join(*[_Fixed(once)])).evaluate(graph)
    assert twice == once


class _Fixed(Selector):
    """Selector returning a fixed set (test helper)."""

    def __init__(self, names):
        self._names = set(names)

    def select_ids(self, ctx):
        return ctx.graph.names_to_ids(self._names)

    def describe(self):
        return "fixed"


@settings(**COMMON)
@given(program=random_programs(), cap=st.integers(1, 8))
def test_analytic_charging_preserves_total_time(program, cap):
    """The workload cap must not change total virtual time (first
    order): walked + analytically-charged == fully walked."""
    from repro.execution.engine import ExecutionEngine
    from repro.execution.workload import Workload

    compiled = Compiler().compile(program)
    linked = Linker().link(compiled)

    def run(site_cap):
        loader = DynamicLoader()
        objs = loader.load_program(linked)
        engine = ExecutionEngine(
            linked=linked, loaded=objs, workload=Workload(site_cap=site_cap)
        )
        return engine.run()

    capped = run(cap)
    full = run(10_000)
    assert capped.t_total == pytest.approx(full.t_total, rel=1e-6)
    assert (
        capped.entry_events + capped.charged_only_calls
        == full.entry_events + full.charged_only_calls
    )
