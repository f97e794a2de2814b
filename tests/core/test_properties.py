"""Property-based tests on the core invariants (hypothesis).

Random dependence graphs are generated directly (not via the calibrated
corpus generator) so that shrinking produces minimal counterexamples.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.check import check_schedule
from repro.core import (
    compute_mii,
    compute_mindist,
    height_r,
    mindist_feasible,
    modulo_schedule,
)
from repro.core.mindist import NO_PATH
from repro.baselines import list_schedule
from repro.ir import DependenceGraph, DependenceKind
from repro.machine import single_alu_machine, two_alu_machine

_OPCODES = ["fadd", "fsub", "fmul", "load", "store", "copy"]


@st.composite
def random_graphs(draw):
    """A small random graph: forward DAG edges plus back edges with
    distance >= 1 (so every II-feasibility invariant applies)."""
    machine = draw(st.sampled_from([single_alu_machine(), two_alu_machine()]))
    n = draw(st.integers(min_value=1, max_value=10))
    graph = DependenceGraph(machine, name="prop")
    ops = [
        graph.add_operation(draw(st.sampled_from(_OPCODES)), dest=f"v{i}")
        for i in range(n)
    ]
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(n_edges):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a == b:
            distance = draw(st.integers(min_value=1, max_value=3))
        elif a < b:
            distance = draw(st.integers(min_value=0, max_value=2))
        else:
            distance = draw(st.integers(min_value=1, max_value=3))
        kind = draw(
            st.sampled_from(
                [DependenceKind.FLOW, DependenceKind.ANTI, DependenceKind.OUTPUT]
            )
        )
        graph.add_edge(ops[a], ops[b], kind, distance=distance)
    graph.seal()
    return machine, graph


_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSchedulerProperties:
    @given(random_graphs())
    @_SETTINGS
    def test_schedule_is_always_valid(self, machine_graph):
        machine, graph = machine_graph
        result = modulo_schedule(graph, machine, budget_ratio=6.0)
        assert not check_schedule(graph, machine, result.schedule).errors

    @given(random_graphs())
    @_SETTINGS
    def test_ii_at_least_mii(self, machine_graph):
        machine, graph = machine_graph
        result = modulo_schedule(graph, machine, budget_ratio=6.0)
        assert result.ii >= result.mii_result.mii

    @given(random_graphs())
    @_SETTINGS
    def test_list_schedule_valid_and_bounds_modulo_sl(self, machine_graph):
        machine, graph = machine_graph
        schedule = list_schedule(graph, machine)
        # Every distance-0 edge must be honored by the list schedule.
        for edge in graph.edges:
            if edge.distance == 0:
                gap = schedule.times[edge.succ] - schedule.times[edge.pred]
                assert gap >= edge.delay


class TestMIIProperties:
    @given(random_graphs())
    @_SETTINGS
    def test_mindist_feasible_exactly_from_recmii(self, machine_graph):
        machine, graph = machine_graph
        result = compute_mii(graph, machine)
        dist, _ = compute_mindist(graph, result.rec_mii)
        assert mindist_feasible(dist)
        if result.rec_mii > 1:
            below, _ = compute_mindist(graph, result.rec_mii - 1)
            assert not mindist_feasible(below)

    @given(random_graphs())
    @_SETTINGS
    def test_heightr_equals_mindist_to_stop(self, machine_graph):
        machine, graph = machine_graph
        ii = compute_mii(graph, machine).mii
        heights = height_r(graph, ii)
        dist, index = compute_mindist(graph, ii)
        stop = index[graph.stop]
        for op in range(graph.n_ops):
            value = dist[index[op], stop]
            if value != NO_PATH:
                assert heights[op] == int(value)

    @given(random_graphs())
    @_SETTINGS
    def test_resmii_monotone_in_budgetless_sense(self, machine_graph):
        """ResMII never exceeds the achieved II."""
        machine, graph = machine_graph
        result = modulo_schedule(graph, machine, budget_ratio=6.0)
        assert result.mii_result.res_mii <= result.ii
