"""Cross-module integration: the full compiler pipeline, end to end.

DSL text -> parse -> IF-convert -> lower (DSA + dependence analysis) ->
MII -> iterative modulo schedule -> static validation -> code generation
(lifetimes, MVE, rotating registers, prologue/kernel/epilogue) ->
pipelined simulation against the sequential oracle.
"""

import pytest

from repro import (
    SchedulingFailure,
    compute_mii,
    cydra5,
    modulo_schedule,
    single_alu_machine,
)
from repro.baselines import list_schedule, unroll_and_schedule
from repro.check import check_schedule
from repro.codegen import (
    allocate_rotating,
    compute_lifetimes,
    emit_pipelined_code,
    modulo_variable_expansion,
)
from repro.codegen.rotation import verify_rotating_allocation
from repro.ir import DelayModel, DependenceGraph, DependenceKind
from repro.loopir import compile_loop_full
from repro.machine import superscalar_machine
from repro.simulator import check_equivalence

_SOURCE = """
for i in n:
    t = a[i] * w + b[i+1]
    if t > hi:
        t = hi
    s = s + t
    c[i] = t
"""


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def pipeline(machine):
    lowered = compile_loop_full(_SOURCE, machine, name="integration")
    result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
    return lowered, result


class TestFullPipeline:
    def test_schedule_statically_valid(self, machine, pipeline):
        lowered, result = pipeline
        assert not check_schedule(lowered.graph, machine, result.schedule).errors

    def test_schedule_semantically_correct(self, pipeline):
        lowered, result = pipeline
        for seed in (0, 1, 2):
            report = check_equivalence(lowered, result.schedule, n=29, seed=seed)
            assert report.ok, report.describe()

    def test_codegen_chain(self, machine, pipeline):
        lowered, result = pipeline
        graph, schedule = lowered.graph, result.schedule
        lifetimes = compute_lifetimes(graph, schedule)
        kernel = modulo_variable_expansion(graph, schedule, lifetimes)
        assert kernel.length == kernel.unroll * result.ii
        allocation = allocate_rotating(graph, schedule, lifetimes)
        assert verify_rotating_allocation(graph, schedule, allocation) == []
        code = emit_pipelined_code(graph, schedule)
        prologue, epilogue = code.instance_count()
        assert prologue + epilogue > 0  # multi-stage pipeline

    def test_modulo_beats_list_scheduling_throughput(self, machine, pipeline):
        lowered, result = pipeline
        sequential = list_schedule(lowered.graph, machine)
        assert result.ii < sequential.times[lowered.graph.stop]

    def test_unrolling_needs_code_growth_to_compete(self, machine, pipeline):
        lowered, result = pipeline
        flat = unroll_and_schedule(lowered.graph, machine, 1)
        assert flat.effective_ii >= result.ii


class TestDelayModels:
    def test_conservative_model_never_negative_delays(self):
        machine = superscalar_machine()
        graph = DependenceGraph(machine, delay_model=DelayModel.CONSERVATIVE)
        a = graph.add_operation("fadd", dest="a")
        b = graph.add_operation("fadd", dest="b")
        graph.add_edge(a, b, DependenceKind.ANTI)
        graph.add_edge(a, b, DependenceKind.OUTPUT)
        graph.seal()
        assert all(e.delay >= 0 for e in graph.edges)
        result = modulo_schedule(graph, machine)
        assert not check_schedule(graph, machine, result.schedule).errors

    def test_vliw_model_can_tighten_ii(self):
        """Negative anti delays admit IIs the conservative model may not."""
        machine = superscalar_machine()

        def build(model):
            graph = DependenceGraph(machine, delay_model=model)
            a = graph.add_operation("load", dest="a")
            b = graph.add_operation("load", dest="b")
            graph.add_edge(a, b, DependenceKind.ANTI, distance=1)
            return graph.seal()

        vliw = compute_mii(build(DelayModel.VLIW), machine)
        conservative = compute_mii(build(DelayModel.CONSERVATIVE), machine)
        assert vliw.mii <= conservative.mii


class TestFailureModes:
    def test_impossible_ii_cap_raises(self):
        machine = single_alu_machine()
        graph = DependenceGraph(machine)
        a = graph.add_operation("fdiv", dest="a", srcs=("a",))
        graph.add_edge(a, a, DependenceKind.FLOW, distance=1)  # RecMII 8
        graph.seal()
        with pytest.raises(SchedulingFailure):
            modulo_schedule(graph, machine, max_ii=7)
