"""HeightR: the priority function of Figure 5a."""

import pytest

from repro.core import Counters, compute_mindist, height_r
from repro.core.mindist import NO_PATH
from repro.ir import DependenceGraph, DependenceKind, GraphError
from repro.machine import single_alu_machine

from tests.conftest import chain_graph, cross_iteration_graph, reduction_graph


@pytest.fixture
def alu():
    return single_alu_machine()


class TestAcyclic:
    def test_stop_has_height_zero(self, alu):
        graph = chain_graph(alu, ["fadd", "fmul"])
        heights = height_r(graph, ii=1)
        assert heights[graph.stop] == 0

    def test_chain_heights_accumulate_delays(self, alu):
        graph = chain_graph(alu, ["fmul", "fmul", "fadd"])  # 3, 3, 1
        heights = height_r(graph, ii=1)
        assert heights[3] == 1  # fadd -> STOP
        assert heights[2] == 4
        assert heights[1] == 7

    def test_start_height_is_critical_path(self, alu):
        graph = chain_graph(alu, ["fmul", "fadd"])
        heights = height_r(graph, ii=1)
        assert heights[graph.START] == 4

    def test_priority_respects_topological_order_on_chains(self, alu):
        graph = chain_graph(alu, ["fadd"] * 6)
        heights = height_r(graph, ii=1)
        chain = [heights[i] for i in range(1, 7)]
        assert chain == sorted(chain, reverse=True)


class TestCyclic:
    def test_heights_finite_at_recmii(self, alu):
        graph = cross_iteration_graph(alu, distance=1)  # RecMII 4
        heights = height_r(graph, ii=4)
        assert all(isinstance(h, int) for h in heights)

    def test_diverges_below_recmii(self, alu):
        graph = cross_iteration_graph(alu, distance=1)
        with pytest.raises(GraphError):
            height_r(graph, ii=3)

    def test_self_loop_diverges_below_recmii(self, alu):
        """A trivial SCC's self-edge is a circuit too: at II below its
        ceil(delay / distance) there is no finite HeightR."""
        graph = reduction_graph(alu, acc_op="fmul")  # self-loop delay 3
        height_r(graph, ii=3)
        with pytest.raises(GraphError):
            height_r(graph, ii=2)

    def test_interiteration_successor_discounted(self, alu):
        graph = reduction_graph(alu)  # acc self-loop distance 1 delay 1
        heights = height_r(graph, ii=2)
        # acc height: max(latency to STOP, self: h + 1 - 2) = 1.
        assert heights[2] == 1

    def test_matches_mindist_to_stop(self, alu):
        for graph in (
            chain_graph(alu, ["fmul", "fadd", "fmul"]),
            cross_iteration_graph(alu, distance=1),
            reduction_graph(alu),
        ):
            ii = 4
            heights = height_r(graph, ii=ii)
            dist, index = compute_mindist(graph, ii=ii)
            stop_column = index[graph.stop]
            for op in range(graph.n_ops):
                expected = dist[index[op], stop_column]
                if expected == NO_PATH:
                    continue
                assert heights[op] == int(expected), op


class TestMisc:
    def test_rejects_unsealed_graph(self, alu):
        graph = DependenceGraph(alu)
        graph.add_operation("fadd")
        with pytest.raises(GraphError):
            height_r(graph, ii=1)

    def test_rejects_ii_below_one(self, alu):
        graph = chain_graph(alu, ["fadd"])
        with pytest.raises(ValueError):
            height_r(graph, ii=0)

    def test_counters_count_relaxations(self, alu):
        graph = cross_iteration_graph(alu)
        counters = Counters()
        height_r(graph, ii=4, counters=counters)
        assert counters.heightr_inner > 0

    def test_larger_ii_lowers_recurrence_heights(self, alu):
        graph = cross_iteration_graph(alu, distance=1)
        low = height_r(graph, ii=4)
        high = height_r(graph, ii=10)
        assert high[1] <= low[1]
