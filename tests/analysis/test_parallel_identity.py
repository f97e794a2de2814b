"""Property: parallel evaluation is bit-identical to the serial path.

``EvaluationEngine(jobs=N)`` must return exactly the records the serial
path returns — same order, same canonical serialized bytes — for any
worker count.  Both paths round-trip through the engine's JSON payload,
so equality is checked on the canonical (sorted-key) serialization, which
is what "bit-identical" means for these records.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.engine import EvaluationEngine, evaluation_to_dict
from repro.machine import cydra5
from repro.workloads import build_corpus


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    """The full test corpus: every DSL kernel plus synthetic graphs."""
    return build_corpus(machine, n_synthetic=15, seed=5)


@pytest.fixture(scope="module")
def serial_bytes(machine, corpus):
    """Canonical serialization of every record from the serial path."""
    result = EvaluationEngine(machine, jobs=1).evaluate(corpus)
    evaluations = result.evaluations
    assert len(evaluations) == len(corpus)
    return [
        json.dumps(evaluation_to_dict(e, machine), sort_keys=True)
        for e in evaluations
    ]


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_parallel_is_bit_identical_to_serial(
    machine, corpus, serial_bytes, jobs
):
    result = EvaluationEngine(machine, jobs=jobs).evaluate(corpus)
    evaluations = result.evaluations
    assert [e.loop.name for e in evaluations] == [l.name for l in corpus]
    parallel_bytes = [
        json.dumps(evaluation_to_dict(e, machine), sort_keys=True)
        for e in evaluations
    ]
    assert parallel_bytes == serial_bytes


@pytest.mark.parametrize("jobs", [2, 4])
def test_cached_parallel_still_identical(
    machine, corpus, serial_bytes, jobs, tmp_path
):
    """Cold parallel run, then warm cached run: both match the serial path."""
    engine = EvaluationEngine(
        machine, jobs=jobs, cache_dir=tmp_path / "cache"
    )
    for expected_hits in (0, len(corpus)):
        result = engine.evaluate(corpus)
        assert result.hits == expected_hits
        recovered = [
            json.dumps(evaluation_to_dict(e, machine), sort_keys=True)
            for e in result.evaluations
        ]
        assert recovered == serial_bytes


def test_result_order_is_deterministic_not_completion_order(machine, corpus):
    """Many workers over a shuffled-size corpus still yield corpus order."""
    result = EvaluationEngine(machine, jobs=4).evaluate(corpus)
    assert [t.loop_name for t in result.timings] == [l.name for l in corpus]
    assert [t.index for t in result.timings] == list(range(len(corpus)))
