"""Equivalence of the interned-id/memoised fast paths with the seed
string-based implementation.

The interning refactor (id-keyed call graph, id-set selector algebra)
and the engine memoisation (per-site target tuples, per-function
records, indexed address resolution) are pure performance work: they
must never change a selected set or a virtual timing.  These tests pin
that down against the seed-reference implementations that the scale
benchmark also uses:

* selection — every paper spec evaluated over lulesh/openfoam/random
  synth graphs must match a string-set evaluation of the same spec;
* execution — ``run_configuration`` must produce field-for-field equal
  :class:`RunResult` values with every cache defeated and the seed's
  linear-scan resolution restored.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from benchmarks.bench_selection_scale import (
    seed_execution_mode,
    seed_reference_select,
)
from repro.apps import PAPER_SPECS, build_lulesh, build_openfoam
from repro.cg.analysis import aggregate_statement_ids, call_depth_ids_from
from repro.cg.merge import build_whole_program_cg
from repro.core.pipeline import run_spec
from repro.core.spec.modules import load_spec
from repro.execution.workload import Workload
from repro.experiments.runner import prepare_app, run_configuration
from tests.cg import dict_kernels
from tests.integration.test_properties import random_programs

SPECS = sorted(PAPER_SPECS)

#: extra pipelines exercising the selector types the paper specs skip
EXTRA_SPECS = {
    "combinators": """
sys = inSystemHeader(%%)
intersect(complement(%sys), defined(%%))
""",
    "paths+metrics": """
hot = callSites(">=", 2, callers(">=", 1, %%))
join(onCallPathFrom(%hot), byPath("main", %%))
""",
    "mpi-module": '!import("mpi.capi")\njoin(%mpi_comm, %mpi_ops)',
}


def _graphs():
    yield "lulesh", build_whole_program_cg(build_lulesh(target_nodes=500))
    yield "openfoam", build_whole_program_cg(build_openfoam(target_nodes=3000))


class TestSelectionEquivalence:
    @pytest.mark.parametrize("spec_name", SPECS)
    def test_paper_specs_match_seed_reference(self, spec_name):
        source = PAPER_SPECS[spec_name]
        for app, graph in _graphs():
            selected = run_spec(load_spec(source), graph).selected
            reference = seed_reference_select(graph, source)
            assert selected == reference, (app, spec_name)

    @pytest.mark.parametrize("spec_name", sorted(EXTRA_SPECS))
    def test_extra_selector_types_match_seed_reference(self, spec_name):
        source = EXTRA_SPECS[spec_name]
        for app, graph in _graphs():
            selected = run_spec(load_spec(source), graph).selected
            reference = seed_reference_select(graph, source)
            assert selected == reference, (app, spec_name)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=random_programs())
    def test_random_synth_programs_match_seed_reference(self, program):
        graph = build_whole_program_cg(program)
        for source in (*PAPER_SPECS.values(), *EXTRA_SPECS.values()):
            selected = run_spec(load_spec(source), graph).selected
            assert selected == seed_reference_select(graph, source)


class TestAnalysisEquivalence:
    """The CSR graph kernels must match the dict-based kernels
    bit-for-bit: same aggregation totals, same reachable sets, same call
    depths — on the app graphs and on random synth programs (which
    exercise both the vectorised DAG fast path and the Tarjan
    fallback)."""

    def test_aggregation_totals_identical_on_app_graphs(self):
        for app, graph in _graphs():
            root_id = graph.id_of("main")
            csr_result = aggregate_statement_ids(graph, root_id)
            dict_result = dict_kernels.aggregate_statement_ids(graph, root_id)
            assert csr_result == dict_result, app
            assert all(type(v) is int for v in csr_result.values()), app

    def test_sweeps_and_depths_identical_on_app_graphs(self):
        for app, graph in _graphs():
            root_id = graph.id_of("main")
            assert graph.reachable_ids([root_id]) == dict_kernels.reachable_ids(
                graph, [root_id]
            ), app
            assert call_depth_ids_from(graph, root_id) == dict_kernels.call_depths(
                graph, root_id
            ), app

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=random_programs())
    def test_random_synth_programs_aggregate_identically(self, program):
        graph = build_whole_program_cg(program)
        for root in sorted(graph.node_names()):
            root_id = graph.id_of(root)
            assert aggregate_statement_ids(
                graph, root_id
            ) == dict_kernels.aggregate_statement_ids(graph, root_id)


class TestExecutionEquivalence:
    """Bit-for-bit RunResult equality, memoised vs cache-defeated."""

    CELLS = (
        dict(mode="vanilla"),
        dict(mode="inactive"),
        dict(mode="full", tool="talp"),
        dict(mode="full", tool="scorep"),
        dict(mode="ic", tool="scorep", ic="mpi"),
        dict(mode="ic", tool="talp", ic="kernels"),
    )

    @pytest.fixture(scope="class")
    def lulesh_prepared(self):
        return prepare_app("lulesh", 400)

    @pytest.fixture(scope="class")
    def lulesh_ics(self, lulesh_prepared):
        return {k: v.ic for k, v in lulesh_prepared.select_all().items()}

    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(map(str, c.values())))
    def test_run_results_identical(self, cell, lulesh_prepared, lulesh_ics):
        kwargs = dict(cell)
        ic_name = kwargs.pop("ic", None)
        if ic_name is not None:
            kwargs["ic"] = lulesh_ics[ic_name]
        workload = Workload(site_cap=2, event_budget=50_000)
        memoised = run_configuration(
            lulesh_prepared, workload=workload, **kwargs
        ).result
        with seed_execution_mode():
            reference = run_configuration(
                lulesh_prepared, workload=workload, **kwargs
            ).result
        # full dataclass equality: every counter, cycle total and the
        # per-function call map must agree exactly
        assert memoised == reference
        assert memoised.t_total == reference.t_total
        assert memoised.t_init == reference.t_init
