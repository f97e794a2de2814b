"""The corpus evaluation runner and the report renderer."""

import pytest

from repro.analysis import (
    EvaluationEngine,
    evaluate_loop,
    render_series,
    render_table,
)
from repro.ir import DependenceGraph, DependenceKind
from repro.machine import cydra5
from repro.workloads import build_corpus
from repro.workloads.corpus import CorpusLoop


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    return build_corpus(machine, n_synthetic=25, seed=7)


@pytest.fixture(scope="module")
def evaluations(machine, corpus):
    result = EvaluationEngine(machine, budget_ratio=6.0).evaluate(corpus)
    return result.evaluations


class TestEvaluation:
    def test_every_loop_evaluated(self, corpus, evaluations):
        assert len(evaluations) == len(corpus)

    def test_ii_at_least_mii(self, evaluations):
        assert all(e.ii >= e.mii for e in evaluations)

    def test_sl_at_least_bound(self, evaluations):
        assert all(e.sl >= e.sl_bound for e in evaluations)
        assert all(e.sl_ratio >= 1.0 - 1e-9 for e in evaluations)

    def test_exec_time_at_least_bound(self, evaluations):
        assert all(e.exec_time >= e.exec_bound for e in evaluations)

    def test_schedule_ratio_at_least_one(self, evaluations):
        assert all(e.schedule_ratio >= 1.0 - 1e-9 for e in evaluations)

    def test_counters_populated(self, evaluations):
        sample = evaluations[0]
        assert sample.counters.findtimeslot_iters > 0
        assert sample.counters.mindist_invocations >= 0

    def test_table4_mindist_row_is_counted(self, machine, corpus):
        """Table 4's "MII calculation (MinDist inner)" row: RecMII runs
        ComputeMinDist per non-trivial SCC, and every pass is billed."""
        loop = next(l for l in corpus if l.name == "iir_filter2")
        evaluation = evaluate_loop(loop, machine)
        assert evaluation.mii_result.n_nontrivial_sccs > 0
        assert evaluation.counters.mindist_invocations > 0
        assert evaluation.counters.mindist_inner > 0

    def test_single_loop_evaluation(self, machine, corpus):
        evaluation = evaluate_loop(corpus[0], machine)
        assert evaluation.loop is corpus[0]
        assert evaluation.n_real_ops == corpus[0].graph.n_real_ops

    def test_unschedulable_loop_raises_the_engine_failure(self, machine):
        """A zero-distance dependence circuit has no schedule at any II;
        the single-loop path reports it as the engine's failure record."""
        graph = DependenceGraph(machine, name="circular")
        a = graph.add_operation("fadd", dest="a", srcs=("b",))
        b = graph.add_operation("fmul", dest="b", srcs=("a",))
        graph.add_edge(a, b, DependenceKind.FLOW)
        graph.add_edge(b, a, DependenceKind.FLOW)
        loop = CorpusLoop(
            name="circular",
            graph=graph.seal(),
            category="synthetic",
            entry_freq=1,
            loop_freq=10,
            executed=True,
        )
        with pytest.raises(
            RuntimeError, match="circular: GraphError during mindist"
        ):
            evaluate_loop(loop, machine)


class TestReportRendering:
    def test_render_table_aligns_columns(self):
        text = render_table(
            ["name", "value"], [["a", "1"], ["long-name", "22"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, rule, two rows
        assert len(set(len(l) for l in lines[1:])) == 1

    def test_render_series(self):
        text = render_series(
            "ratio", ["dilation", "ineff"], [(1.0, [0.05, 2.6]), (2.0, [0.03, 1.6])]
        )
        assert "ratio" in text
        assert "0.0500" in text
