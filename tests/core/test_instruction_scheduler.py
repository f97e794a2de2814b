"""The instruction-driven scheduling style (Section 3.1's footnote)."""

import pytest

from repro.check import check_schedule
from repro.core import modulo_schedule
from repro.core.instruction_scheduler import InstructionDrivenScheduler
from repro.ir import DependenceGraph, DependenceKind
from repro.loopir import compile_loop_full
from repro.machine import bus_conflict_machine, cydra5, single_alu_machine
from repro.simulator import check_equivalence
from repro.workloads.kernels import KERNELS

from tests.conftest import chain_graph, cross_iteration_graph, reduction_graph


@pytest.fixture
def alu():
    return single_alu_machine()


class TestBasics:
    def test_chain_achieves_mii(self, alu):
        graph = chain_graph(alu, ["fadd"] * 4)
        result = modulo_schedule(graph, alu, style="instruction")
        assert result.ii == result.mii_result.mii
        assert not check_schedule(graph, alu, result.schedule).errors

    def test_recurrence(self, alu):
        graph = cross_iteration_graph(alu, distance=1)
        result = modulo_schedule(graph, alu, style="instruction")
        assert not check_schedule(graph, alu, result.schedule).errors

    def test_start_pinned(self, alu):
        graph = reduction_graph(alu)
        result = modulo_schedule(graph, alu, style="instruction")
        assert result.schedule.times[graph.START] == 0

    def test_unknown_style_rejected(self, alu):
        graph = chain_graph(alu, ["fadd"])
        with pytest.raises(ValueError):
            modulo_schedule(graph, alu, style="vibes")

    def test_same_cycle_producer_consumer_separated(self, alu):
        """The re-check of Estart inside one cycle's sweep: a consumer
        must not be placed in the same sweep as its just-placed
        producer unless the delay allows it."""
        graph = chain_graph(alu, ["fmul", "fadd"])
        result = modulo_schedule(graph, alu, style="instruction")
        assert (
            result.schedule.times[2] - result.schedule.times[1]
            >= alu.latency("fmul")
        )

    def test_budget_respected(self, alu):
        graph = chain_graph(alu, ["fadd"] * 6)
        scheduler = InstructionDrivenScheduler(graph, alu, ii=6)
        attempt = scheduler.run(budget=3)
        assert not attempt.success
        assert attempt.steps <= 3

    def test_complex_tables(self):
        machine = bus_conflict_machine()
        graph = DependenceGraph(machine)
        for i in range(3):
            graph.add_operation("fmul", dest=f"m{i}")
            graph.add_operation("fadd", dest=f"a{i}")
        graph.seal()
        result = modulo_schedule(graph, machine, style="instruction")
        assert not check_schedule(graph, machine, result.schedule).errors


class TestAgainstKernels:
    @pytest.mark.parametrize(
        "name", ["sdot", "saxpy", "lfk5_tridiag", "select_chain", "srot"]
    )
    def test_kernels_verify_end_to_end(self, name):
        machine = cydra5()
        lowered = compile_loop_full(KERNELS[name].source, machine, name=name)
        result = modulo_schedule(
            lowered.graph, machine, budget_ratio=6.0, style="instruction"
        )
        assert not check_schedule(lowered.graph, machine, result.schedule).errors
        report = check_equivalence(lowered, result.schedule, n=21, seed=9)
        assert report.ok, report.describe()

    def test_operation_style_at_least_as_good_on_average(self):
        """The paper prefers operation scheduling; on the kernel corpus
        its II must not lose to the instruction style overall."""
        machine = cydra5()
        operation_total = 0
        instruction_total = 0
        for name in sorted(KERNELS)[:20]:
            graph = compile_loop_full(
                KERNELS[name].source, machine, name=name
            ).graph
            operation_total += modulo_schedule(
                graph, machine, budget_ratio=6.0, style="operation"
            ).ii
            instruction_total += modulo_schedule(
                graph, machine, budget_ratio=6.0, style="instruction"
            ).ii
        assert operation_total <= instruction_total
