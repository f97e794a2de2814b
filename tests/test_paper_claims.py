"""The paper's Section 5 conclusions, as executable assertions.

The paper concludes that iterative modulo scheduling with HeightR at
BudgetRatio 2:

1. requires the scheduling of only ~59% more operations than acyclic
   list scheduling (which schedules each exactly once);
2. generates schedules optimal in II (vs the MII bound) for ~96% of
   loops;
3. yields aggregate execution time within a few percent of the (not
   necessarily achievable) lower bound.

These tests check the same claims on a 300-loop corpus on the
reconstructed Cydra 5, with bands loose enough to absorb the corpus and
machine substitutions (see EXPERIMENTS.md for the full-scale numbers)
but tight enough that a quality regression in the scheduler fails them.
"""

import pytest

from repro.analysis import EvaluationEngine
from repro.analysis.model import execution_time, execution_time_bound
from repro.core import modulo_schedule
from repro.machine import cydra5
from repro.workloads import build_corpus

BUDGET_RATIO = 2.0


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def evaluations(machine):
    corpus = build_corpus(machine, n_synthetic=235, seed=42)
    engine = EvaluationEngine(machine, budget_ratio=BUDGET_RATIO)
    return engine.evaluate(corpus).evaluations


class TestConclusionOne:
    """Scheduling effort close to list scheduling's one-step-per-op."""

    def test_aggregate_steps_per_operation_bounded(self, evaluations):
        steps = sum(e.result.steps_total for e in evaluations)
        ops = sum(e.n_ops for e in evaluations)
        # Paper: 1.59 on the Cydra 5; our reconstruction has harsher
        # complex-table conflicts, so allow up to 3.5 — still the same
        # order as list scheduling, nowhere near unrolling schemes.
        assert 1.0 <= steps / ops <= 3.5

    def test_most_loops_schedule_every_op_exactly_once(self, evaluations):
        one_pass = sum(
            1 for e in evaluations if e.result.steps_last == e.n_ops
        )
        assert one_pass / len(evaluations) >= 0.6  # paper: 0.90


class TestConclusionTwo:
    """II optimal versus the MII bound for the vast majority of loops."""

    def test_optimality_rate(self, evaluations):
        optimal = sum(1 for e in evaluations if e.delta_ii == 0)
        assert optimal / len(evaluations) >= 0.85  # paper: 0.96

    def test_mean_ii_within_three_percent_of_bound(self, evaluations):
        total_ii = sum(e.ii for e in evaluations)
        total_mii = sum(e.mii for e in evaluations)
        # Paper: ~1% over the bound; our reconstruction at BudgetRatio 2
        # lands at ~2%.
        assert total_ii / total_mii <= 1.03


class TestConclusionThree:
    """Aggregate execution time within a few percent of the bound."""

    def test_aggregate_dilation(self, evaluations):
        executed = [e for e in evaluations if e.loop.executed]
        total = sum(e.exec_time for e in executed)
        bound = sum(e.exec_bound for e in executed)
        # Paper: 2.8% at BudgetRatio 2.  Allow 12% for the substituted
        # corpus/machine; a broken scheduler lands far outside this.
        assert (total - bound) / bound <= 0.12

    def test_ii_dominates_execution_time(self, evaluations):
        """Sanity on the model itself: for long loops the II term is
        what matters, which is why II is the primary quality metric."""
        sample = max(
            (e for e in evaluations if e.loop.executed),
            key=lambda e: e.loop.loop_freq,
        )
        with_worse_sl = execution_time(
            sample.loop.entry_freq,
            sample.loop.loop_freq,
            sample.sl + 10,
            sample.ii,
        )
        with_worse_ii = execution_time(
            sample.loop.entry_freq,
            sample.loop.loop_freq,
            sample.sl,
            sample.ii + 1,
        )
        assert with_worse_ii - sample.exec_time > with_worse_sl - sample.exec_time
