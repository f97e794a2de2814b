"""The iterative modulo scheduler: behavior of Figures 2-4."""

import pytest

from repro.check import check_schedule
from repro.core import (
    Counters,
    IterativeScheduler,
    SchedulingFailure,
    compute_mii,
    modulo_schedule,
)
from repro.ir import DependenceGraph, DependenceKind
from repro.machine import (
    bus_conflict_machine,
    cydra5,
    single_alu_machine,
    two_alu_machine,
)

from tests.conftest import chain_graph, cross_iteration_graph, reduction_graph


@pytest.fixture
def alu():
    return single_alu_machine()


class TestBasicScheduling:
    def test_chain_achieves_mii(self, alu):
        graph = chain_graph(alu, ["fadd"] * 4)
        result = modulo_schedule(graph, alu)
        assert result.ii == result.mii_result.mii == 4
        assert not check_schedule(graph, alu, result.schedule).errors

    def test_start_pinned_at_zero(self, alu):
        graph = chain_graph(alu, ["fadd", "fmul"])
        result = modulo_schedule(graph, alu)
        assert result.schedule.times[graph.START] == 0

    def test_stop_time_is_schedule_length(self, alu):
        graph = chain_graph(alu, ["fmul", "fadd"])  # latencies 3, 1
        result = modulo_schedule(graph, alu)
        assert result.schedule_length >= 4

    def test_recurrence_schedules_at_recmii(self, alu):
        graph = cross_iteration_graph(alu, distance=1)  # RecMII 4
        result = modulo_schedule(graph, alu)
        assert result.ii == 4
        assert not check_schedule(graph, alu, result.schedule).errors

    def test_independent_ops_overlap_on_two_alus(self):
        machine = two_alu_machine()
        graph = DependenceGraph(machine)
        for _ in range(4):
            graph.add_operation("fadd")
        graph.seal()
        result = modulo_schedule(graph, machine)
        assert result.ii == 2
        assert not check_schedule(graph, machine, result.schedule).errors

    def test_result_properties(self, alu):
        graph = chain_graph(alu, ["fadd"] * 3)
        result = modulo_schedule(graph, alu)
        assert result.delta_ii == result.ii - result.mii_result.mii
        assert result.ii_ratio == pytest.approx(
            result.ii / result.mii_result.mii
        )
        assert result.inefficiency >= 1.0 - 1e-9


class TestModuloConstraint:
    def test_figure1_machine_result_bus(self):
        """Two multiplies + an add must respect the shared result bus."""
        machine = bus_conflict_machine()
        graph = DependenceGraph(machine)
        a = graph.add_operation("fmul", dest="a")
        b = graph.add_operation("fadd", dest="b")
        graph.seal()
        result = modulo_schedule(graph, machine)
        times = result.schedule.times
        ii = result.ii
        # Issue collision (source buses) and result-bus collision
        # (mul at t, add at t+1) must both be avoided mod II.
        assert (times[a] - times[b]) % ii != 0
        assert (times[b] - times[a]) % ii != 1
        assert not check_schedule(graph, machine, result.schedule).errors

    def test_self_conflicting_ii_skipped(self):
        """Cydra loads cannot be placed at II=19 (port busy at 0 and 19);
        the scheduler must move on to a feasible II."""
        machine = cydra5()
        graph = DependenceGraph(machine)
        prev = None
        # Force MII near 19 with 10 loads (ResMII = 2*10/2 = 10)... use
        # a recurrence to pin MII at exactly 19.
        a = graph.add_operation("load", dest="v")
        b = graph.add_operation("fadd", dest="s")
        graph.add_edge(a, b, DependenceKind.FLOW)
        graph.add_edge(b, b, DependenceKind.FLOW, distance=1, delay=19)
        graph.seal()
        result = modulo_schedule(graph, machine)
        assert result.ii >= 20  # II=19 is structurally impossible
        assert not check_schedule(graph, machine, result.schedule).errors


class TestBudget:
    def test_budget_ratio_below_one_rejected(self, alu):
        graph = chain_graph(alu, ["fadd"])
        with pytest.raises(ValueError):
            modulo_schedule(graph, alu, budget_ratio=0.5)

    def test_steps_counted_across_attempts(self, alu):
        graph = chain_graph(alu, ["fadd"] * 3)
        result = modulo_schedule(graph, alu)
        assert result.steps_total >= result.steps_last
        assert result.steps_last >= graph.n_ops

    def test_tight_budget_may_need_larger_ii(self):
        """With the minimal budget, every op must schedule first try; any
        displacement forces the II up.  The schedule stays valid."""
        machine = cydra5()
        graph = DependenceGraph(machine)
        ops = [graph.add_operation("fmul", dest=f"m{i}") for i in range(3)]
        ops += [graph.add_operation("fadd", dest=f"a{i}") for i in range(3)]
        graph.seal()
        tight = modulo_schedule(graph, machine, budget_ratio=1.0)
        loose = modulo_schedule(graph, machine, budget_ratio=8.0)
        assert loose.ii <= tight.ii
        assert not check_schedule(graph, machine, tight.schedule).errors

    def test_max_ii_exhaustion_raises(self, alu):
        graph = cross_iteration_graph(alu, distance=1)  # needs II 4
        with pytest.raises(SchedulingFailure):
            modulo_schedule(graph, alu, max_ii=3)


class TestIterativeBehavior:
    def test_displacement_happens_on_hard_graphs(self):
        """On the Figure-1 machine, mixed adds/muls at a tight II force
        unscheduling (the whole point of the iterative algorithm)."""
        machine = bus_conflict_machine()
        graph = DependenceGraph(machine)
        for i in range(3):
            graph.add_operation("fmul", dest=f"m{i}")
        for i in range(3):
            graph.add_operation("fadd", dest=f"a{i}")
        graph.seal()
        counters = Counters()
        result = modulo_schedule(
            graph, machine, budget_ratio=8.0, counters=counters
        )
        assert not check_schedule(graph, machine, result.schedule).errors
        # Not asserting a specific count, but the run must be recorded.
        assert counters.ops_scheduled >= graph.n_ops

    def test_iterative_scheduler_reports_failure_within_budget(self, alu):
        graph = chain_graph(alu, ["fadd"] * 6)
        scheduler = IterativeScheduler(graph, alu, ii=6)
        attempt = scheduler.run(budget=2)  # far too small
        assert not attempt.success
        assert attempt.steps <= 2

    def test_deterministic_output(self, alu):
        graph = cross_iteration_graph(alu, distance=1)
        first = modulo_schedule(graph, alu)
        second = modulo_schedule(graph, alu)
        assert first.schedule.times == second.schedule.times

    def test_counters_flow_through(self, alu):
        graph = chain_graph(alu, ["fadd"] * 3)
        counters = Counters()
        modulo_schedule(graph, alu, counters=counters)
        assert counters.findtimeslot_iters > 0
        assert counters.estart_preds > 0
        assert counters.ii_attempts >= 1


class TestNoStateOnTheGraph:
    @pytest.mark.parametrize("style", ["operation", "greedy", "instruction"])
    def test_scheduling_leaves_only_the_scc_memo(self, style):
        """Each attempt's tables live and die with the attempt: the
        graph keeps only what construction and ``shared_components``
        (``_scc_cache``) put there."""
        machine = cydra5()
        graph = DependenceGraph(machine, name="state")
        load = graph.add_operation("load", dest="v")
        acc = graph.add_operation("fadd", dest="s", srcs=("s", "v"))
        graph.add_edge(load, acc, DependenceKind.FLOW)
        graph.add_edge(acc, acc, DependenceKind.FLOW, distance=1)
        graph.seal()
        built = set(vars(graph))
        modulo_schedule(graph, machine, budget_ratio=6.0, style=style)
        assert set(vars(graph)) - built == {"_scc_cache"}


class TestAgainstCydra:
    @pytest.mark.parametrize("n_ops", [1, 2, 5, 9])
    def test_homogeneous_adds(self, n_ops):
        machine = cydra5()
        graph = chain_graph(machine, ["fadd"] * n_ops)
        result = modulo_schedule(graph, machine)
        assert not check_schedule(graph, machine, result.schedule).errors
        # One adder: II cannot beat the op count.
        assert result.ii >= n_ops

    def test_loads_spread_across_ports(self):
        machine = cydra5()
        graph = DependenceGraph(machine)
        for i in range(4):
            graph.add_operation("load", dest=f"v{i}")
        graph.seal()
        result = modulo_schedule(graph, machine)
        assert not check_schedule(graph, machine, result.schedule).errors
        ports = {
            result.schedule.alternatives[op].name
            for op in range(1, 5)
        }
        assert ports == {"mem_port0", "mem_port1"}
