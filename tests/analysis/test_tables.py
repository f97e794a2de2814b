"""The consolidated Table-3 builder."""

import pytest

from repro.analysis import EvaluationEngine, table3_rows
from repro.machine import cydra5
from repro.workloads import build_corpus


@pytest.fixture(scope="module")
def rows():
    machine = cydra5()
    corpus = build_corpus(machine, n_synthetic=20, seed=11)
    result = EvaluationEngine(machine, budget_ratio=6.0).evaluate(corpus)
    return table3_rows(result.evaluations)


class TestTable3Rows:
    def test_eleven_rows_in_paper_order(self, rows):
        names = [row.name for row in rows]
        assert names[0] == "Number of operations"
        assert names[1] == "MII"
        assert names[-1] == "Number of nodes scheduled (ratio)"
        assert len(rows) == 11

    def test_ratio_rows_at_least_one(self, rows):
        by_name = {row.name: row for row in rows}
        for name in (
            "II / MII",
            "Schedule length (ratio)",
            "Execution time (ratio)",
            "Number of nodes scheduled (ratio)",
        ):
            assert by_name[name].median >= 1.0 - 1e-9

    def test_delta_row_consistent_with_ratio_row(self, rows):
        by_name = {row.name: row for row in rows}
        assert (
            by_name["II - MII"].frequency_of_minimum
            == by_name["II / MII"].frequency_of_minimum
        )

    def test_cells_render(self, rows):
        for row in rows:
            assert len(row.cells()) == 6
