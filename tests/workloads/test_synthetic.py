"""The calibrated synthetic generator: shapes, determinism, validity."""

import statistics

import pytest

from repro.check import check_schedule
from repro.core import compute_mii, modulo_schedule
from repro.machine import cydra5
from repro.workloads import SyntheticConfig, synthetic_graph


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def sample(machine):
    return [synthetic_graph(machine, seed=s) for s in range(150)]


class TestDeterminism:
    def test_same_seed_same_graph(self, machine):
        first = synthetic_graph(machine, seed=42)
        second = synthetic_graph(machine, seed=42)
        assert first.describe() == second.describe()

    def test_different_seeds_differ(self, machine):
        first = synthetic_graph(machine, seed=1)
        second = synthetic_graph(machine, seed=2)
        assert first.describe() != second.describe()


class TestCalibration:
    def test_op_counts_within_paper_range(self, sample):
        counts = [g.n_real_ops for g in sample]
        config = SyntheticConfig()
        assert min(counts) >= config.min_ops - 1
        assert max(counts) <= config.max_ops

    def test_skewed_distribution(self, sample):
        """Median below mean, as in Table 3."""
        counts = [g.n_real_ops for g in sample]
        assert statistics.median(counts) < statistics.fmean(counts)

    def test_most_loops_have_no_nontrivial_scc(self, machine, sample):
        vectorizable = 0
        for graph in sample:
            result = compute_mii(graph, machine, exact=False)
            if result.n_nontrivial_sccs == 0:
                vectorizable += 1
        # Paper: 77%.  Allow a generous band.
        assert 0.6 <= vectorizable / len(sample) <= 0.95

    def test_every_loop_has_a_brtop_and_address_recurrence(self, sample):
        for graph in sample[:30]:
            opcodes = [op.opcode for op in graph.real_operations()]
            assert "brtop" in opcodes
            assert "aadd" in opcodes


class TestSchedulability:
    def test_all_graphs_schedule_validly(self, machine, sample):
        for graph in sample[:60]:
            result = modulo_schedule(graph, machine, budget_ratio=6.0)
            assert (
                not check_schedule(graph, machine, result.schedule).errors
            ), graph.name

    def test_no_zero_distance_circuits(self, machine, sample):
        for graph in sample[:60]:
            compute_mii(graph, machine)  # raises on a 0-distance circuit
