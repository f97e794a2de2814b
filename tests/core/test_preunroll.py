"""Pre-scheduling unrolling: fractional MII recovery."""

import pytest

from repro.check import check_schedule
from repro.core import (
    compute_mii,
    modulo_schedule,
    recommend_unroll,
    unroll_for_modulo,
)
from repro.ir import DependenceGraph, DependenceKind
from repro.machine import single_alu_machine, two_alu_machine

from tests.conftest import chain_graph, reduction_graph


@pytest.fixture
def alu():
    return single_alu_machine()


def _fractional_recurrence(machine, delay=7, distance=2):
    """One-op circuit: delay/distance cycles per iteration, fractional."""
    graph = DependenceGraph(machine)
    a = graph.add_operation("fadd", dest="a", srcs=("a",))
    graph.add_edge(a, a, DependenceKind.FLOW, distance=distance, delay=delay)
    return graph.seal()


class TestUnrollForModulo:
    def test_replicates_ops(self, alu):
        graph = chain_graph(alu, ["fadd", "fmul"])
        unrolled = unroll_for_modulo(graph, 3)
        assert unrolled.n_real_ops == 6

    def test_distances_fold_not_drop(self, alu):
        graph = reduction_graph(alu)  # acc self-loop distance 1
        unrolled = unroll_for_modulo(graph, 2)
        carried = [
            e
            for e in unrolled.edges
            if e.distance > 0
            and not unrolled.operation(e.pred).is_pseudo
        ]
        # The distance-1 recurrence must survive as a cross-body edge
        # (unlike the unroll-before-scheduling baseline, which drops it).
        assert carried

    def test_circuit_ratio_preserved(self, alu):
        graph = _fractional_recurrence(alu, delay=7, distance=2)
        base = compute_mii(graph, alu).rec_mii
        assert base == 4  # ceil(7/2)
        doubled = unroll_for_modulo(graph, 2)
        assert compute_mii(doubled, alu).rec_mii == 7  # exactly 2 * 3.5

    def test_factor_one_is_equivalent(self, alu):
        graph = reduction_graph(alu)
        unrolled = unroll_for_modulo(graph, 1)
        assert compute_mii(unrolled, alu).mii == compute_mii(graph, alu).mii

    def test_bad_factor_rejected(self, alu):
        graph = chain_graph(alu, ["fadd"])
        with pytest.raises(ValueError):
            unroll_for_modulo(graph, 0)

    def test_unrolled_graph_schedules_validly(self, alu):
        graph = _fractional_recurrence(alu)
        unrolled = unroll_for_modulo(graph, 2)
        result = modulo_schedule(unrolled, alu, budget_ratio=6.0)
        assert not check_schedule(unrolled, alu, result.schedule).errors


class TestRecommendation:
    def test_fractional_circuit_wants_unrolling(self, alu):
        graph = _fractional_recurrence(alu, delay=7, distance=2)
        recommendation = recommend_unroll(graph, alu, max_factor=4)
        assert recommendation.factor == 2
        assert recommendation.amortized_mii == pytest.approx(3.5)
        assert recommendation.degradation_without_unrolling >= 0.13

    def test_integral_mii_keeps_factor_one(self):
        machine = two_alu_machine()
        graph = reduction_graph(machine)
        recommendation = recommend_unroll(graph, machine, max_factor=4)
        assert recommendation.factor == 1

    def test_smallest_adequate_factor_wins(self, alu):
        # delay 9 / distance 3 = 3.0: factor 3 exact, factor 1 gives 3 too
        # (ceil(9/3) = 3), so no unrolling should be recommended.
        graph = _fractional_recurrence(alu, delay=9, distance=3)
        recommendation = recommend_unroll(graph, alu, max_factor=4)
        assert recommendation.factor == 1

    def test_record_covers_all_factors(self, alu):
        graph = _fractional_recurrence(alu)
        recommendation = recommend_unroll(graph, alu, max_factor=3)
        assert set(recommendation.amortized_by_factor) == {1, 2, 3}

    def test_bad_max_factor_rejected(self, alu):
        graph = chain_graph(alu, ["fadd"])
        with pytest.raises(ValueError):
            recommend_unroll(graph, alu, max_factor=0)

    def test_amortized_mii_never_below_fractional_bound(self, alu):
        graph = _fractional_recurrence(alu, delay=11, distance=3)
        recommendation = recommend_unroll(graph, alu, max_factor=6)
        for factor, amortized in recommendation.amortized_by_factor.items():
            assert amortized >= 11 / 3 - 1e-9
