"""MII computation: ResMII bin-packing, RecMII search, combination."""

import pytest

from repro.core import Counters, compute_mii, rec_mii, res_mii
from repro.core.mindist import (
    compute_mindist,
    mindist_feasible,
    schedule_length_lower_bound,
)
from repro.ir import DependenceGraph, DependenceKind, GraphError
from repro.machine import (
    cydra5,
    single_alu_machine,
    two_alu_machine,
)
from repro.workloads.synthetic import SyntheticConfig, synthetic_graph

from tests.conftest import (
    chain_graph,
    cross_iteration_graph,
    reduction_graph,
    traced_peak,
)


@pytest.fixture
def alu():
    return single_alu_machine()


@pytest.fixture
def two(request):
    return two_alu_machine()


class TestResMII:
    def test_single_resource_counts_operations(self, alu):
        graph = chain_graph(alu, ["fadd"] * 5)
        assert res_mii(graph, alu) == 5

    def test_two_alternatives_halve_the_bound(self, two):
        graph = chain_graph(two, ["fadd"] * 6)
        assert res_mii(graph, two) == 3

    def test_odd_count_rounds_up_via_packing(self, two):
        graph = chain_graph(two, ["fadd"] * 5)
        assert res_mii(graph, two) == 3

    def test_minimum_is_one(self, alu):
        graph = DependenceGraph(alu).seal()
        assert res_mii(graph, alu) == 1

    def test_pseudo_ops_use_no_resources(self, alu):
        graph = chain_graph(alu, ["fadd"])
        assert res_mii(graph, alu) == 1

    def test_cydra_load_costs_two_port_cycles(self):
        machine = cydra5()
        graph = chain_graph(machine, ["load", "load"])
        # Each load holds its port at issue and at data return; two loads
        # across two ports leave the peak at 2.
        assert res_mii(graph, machine) == 2

    def test_fewer_alternatives_packed_first(self):
        """Ops with one alternative are placed before flexible ones."""
        machine = cydra5()
        graph = DependenceGraph(machine)
        graph.add_operation("fadd")  # adder only
        graph.add_operation("aadd")  # two address ALUs
        graph.add_operation("aadd")
        graph.seal()
        # The two aadds spread across aalu0/aalu1; peak stays 1.
        assert res_mii(graph, machine) == 1

    def test_counters_count_resource_inspections(self, alu):
        graph = chain_graph(alu, ["fadd", "fadd"])
        counters = Counters()
        res_mii(graph, alu, counters)
        assert counters.resmii_steps >= 2


class TestRecMII:
    def test_no_recurrence_gives_one(self, alu):
        graph = chain_graph(alu, ["fadd"] * 4)
        assert rec_mii(graph) == 1

    def test_self_loop_ceiling(self, alu):
        graph = DependenceGraph(alu)
        a = graph.add_operation("fmul")  # latency 3
        graph.add_edge(a, a, DependenceKind.FLOW, distance=2)
        graph.seal()
        assert rec_mii(graph) == 2  # ceil(3/2)

    def test_two_op_circuit(self, alu):
        # delay around circuit = 1 + 3 = 4, distance 2 => RecMII 2.
        graph = cross_iteration_graph(alu, distance=2)
        assert rec_mii(graph) == 2

    def test_distance_one_circuit(self, alu):
        graph = cross_iteration_graph(alu, distance=1)
        assert rec_mii(graph) == 4

    def test_start_seeds_the_search(self, alu):
        graph = cross_iteration_graph(alu, distance=1)
        assert rec_mii(graph, start=10) == 10

    def test_zero_distance_circuit_rejected(self, alu):
        graph = DependenceGraph(alu)
        a = graph.add_operation("fadd")
        b = graph.add_operation("fadd")
        graph.add_edge(a, b, DependenceKind.FLOW)
        graph.add_edge(b, a, DependenceKind.FLOW)  # distance 0 back edge
        graph.seal()
        with pytest.raises(GraphError):
            rec_mii(graph)

    def test_zero_distance_self_loop_rejected(self, alu):
        graph = DependenceGraph(alu)
        a = graph.add_operation("fadd")
        graph.seal()
        # Build via a fresh graph since seal() froze the first one.
        graph2 = DependenceGraph(alu)
        b = graph2.add_operation("fadd")
        graph2.add_edge(b, b, DependenceKind.FLOW, distance=0, delay=1)
        graph2.seal()
        with pytest.raises(GraphError):
            rec_mii(graph2)

    def test_multiple_sccs_take_worst(self, alu):
        graph = DependenceGraph(alu)
        a = graph.add_operation("fadd", dest="a")
        b = graph.add_operation("fmul", dest="b")
        graph.add_edge(a, b, DependenceKind.FLOW)
        graph.add_edge(b, a, DependenceKind.FLOW, distance=1)  # RecMII 4
        c = graph.add_operation("fmul", dest="c")
        graph.add_edge(c, c, DependenceKind.FLOW, distance=3)  # ceil(3/3)=1
        graph.seal()
        assert rec_mii(graph) == 4


class TestComputeMII:
    def test_mii_is_max_of_both_bounds(self, alu):
        graph = reduction_graph(alu)  # ResMII 2 (2 ops), RecMII 1
        result = compute_mii(graph, alu)
        assert result.res_mii == 2
        assert result.rec_mii == 1
        assert result.mii == 2

    def test_recurrence_dominates(self, alu):
        graph = cross_iteration_graph(alu, distance=1)
        result = compute_mii(graph, alu)
        assert result.mii == result.rec_mii == 4
        assert result.res_mii == 2

    def test_production_mode_matches_exact_mii(self, alu):
        graph = cross_iteration_graph(alu, distance=1)
        exact = compute_mii(graph, alu, exact=True)
        fast = compute_mii(graph, alu, exact=False)
        assert exact.mii == fast.mii
        assert not fast.rec_mii_exact

    def test_nontrivial_scc_count(self, alu):
        graph = cross_iteration_graph(alu)
        result = compute_mii(graph, alu)
        assert result.n_nontrivial_sccs == 1
        assert max(result.scc_sizes) == 2

    def test_requires_sealed_graph(self, alu):
        graph = DependenceGraph(alu)
        graph.add_operation("fadd")
        with pytest.raises(GraphError):
            compute_mii(graph, alu)

    def test_doubling_then_binary_search_finds_exact_value(self, alu):
        """A long circuit forces several doubling steps; the answer must
        still be exact."""
        graph = DependenceGraph(alu)
        ops = [graph.add_operation("fdiv", dest=f"v{i}") for i in range(4)]
        for left, right in zip(ops, ops[1:]):
            graph.add_edge(left, right, DependenceKind.FLOW)
        graph.add_edge(ops[-1], ops[0], DependenceKind.FLOW, distance=1)
        graph.seal()
        # Circuit delay = 4 * 8 = 32 at distance 1.
        assert rec_mii(graph) == 32


class TestRecMIIProbes:
    """Nothing is memoized: every RecMII probe is a fresh ComputeMinDist
    pass over one SCC, billed to the Table-4 counters, and the paper's
    search never needs a memo because it never repeats a probe."""

    def test_search_never_probes_a_pair_twice(self, alu, monkeypatch):
        import repro.core.mii as mii_module

        probes = []
        real = mii_module.compute_mindist

        def recording(graph, ii, ops=None, *args, **kwargs):
            probes.append((tuple(ops), ii))
            return real(graph, ii, ops, *args, **kwargs)

        monkeypatch.setattr(mii_module, "compute_mindist", recording)
        graph = DependenceGraph(alu)
        ops = [graph.add_operation("fdiv", dest=f"v{i}") for i in range(4)]
        for left, right in zip(ops, ops[1:]):
            graph.add_edge(left, right, DependenceKind.FLOW)
        graph.add_edge(ops[-1], ops[0], DependenceKind.FLOW, distance=1)
        graph.seal()
        counters = Counters()
        assert rec_mii(graph, counters=counters) == 32
        assert len(probes) > 4  # doubling steps and a binary search
        assert len(set(probes)) == len(probes)
        assert counters.mindist_invocations == len(probes)
        assert counters.mindist_inner == len(probes) * 4**3

    def test_whole_graph_ablation_measures_real_work_by_default(self, alu):
        """Each rec_mii_whole_graph call pays the full ComputeMinDist
        cost (the Section 2.2 ablation depends on this)."""
        from repro.core.mii import rec_mii_whole_graph

        graph = cross_iteration_graph(alu, distance=1)
        first, second = Counters(), Counters()
        assert rec_mii_whole_graph(graph, counters=first) == 4
        assert rec_mii_whole_graph(graph, counters=second) == 4
        assert second.mindist_invocations == first.mindist_invocations > 0


#: All-recurrent synthetic loops with large SCCs (33-41 ops).  A
#: once-per-graph parametric MinDist closure exhausted a 2 GiB address
#: space on each of these seeds.
RECURRENCE_HEAVY = SyntheticConfig(
    p_recurrent=1.0, p_extra_scc=0.6, log_mu=3.2, p_scc_growth=0.7
)


class TestRecurrenceHeavyLoops:
    @pytest.mark.parametrize("seed", [70, 220, 236])
    def test_mii_in_bounded_memory(self, seed):
        machine = cydra5()
        graph = synthetic_graph(machine, seed=seed, config=RECURRENCE_HEAVY)
        result, peak = traced_peak(compute_mii, graph, machine)
        assert peak < 16 * 2**20
        at_rec, _ = compute_mindist(graph, result.rec_mii)
        below, _ = compute_mindist(graph, result.rec_mii - 1)
        assert mindist_feasible(at_rec)
        assert not mindist_feasible(below)
        dist, index = compute_mindist(graph, result.mii)
        assert schedule_length_lower_bound(graph, result.mii) == int(
            dist[index[graph.START], index[graph.stop]]
        )
