"""Telemetry determinism across the engine's fan-out.

Spans carry the wall-clock; everything in the metrics registry and the
run-level counter aggregate is deterministic, so those snapshots must be
byte-identical whatever ``jobs`` is — and must survive a warm cache,
where no loop is re-scheduled at all.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.engine import EvaluationEngine
from repro.core.stats import Counters
from repro.machine import cydra5
from repro.obs import ObsContext
from repro.obs.schema import records_from_snapshot
from repro.workloads import build_corpus
from tests.conftest import export_counters


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    return build_corpus(machine, n_synthetic=12, seed=9)


def _traced_run(machine, corpus, jobs, cache_dir=None):
    obs = ObsContext()
    engine = EvaluationEngine(machine, jobs=jobs, obs=obs, cache_dir=cache_dir)
    result = engine.evaluate(corpus)
    return obs, result


class TestMetricsByteIdentity:
    @pytest.fixture(scope="class")
    def serial(self, machine, corpus):
        obs, result = _traced_run(machine, corpus, jobs=1)
        return (
            json.dumps(obs.metrics.snapshot(), sort_keys=True),
            json.dumps(result.counters.snapshot(), sort_keys=True),
        )

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_metric_snapshot_identical_across_jobs(
        self, machine, corpus, serial, jobs
    ):
        """Acceptance: jobs=1 and jobs=N produce the same metric bytes."""
        obs, result = _traced_run(machine, corpus, jobs=jobs)
        assert json.dumps(obs.metrics.snapshot(), sort_keys=True) == serial[0]
        assert (
            json.dumps(result.counters.snapshot(), sort_keys=True) == serial[1]
        )

    def test_warm_cache_preserves_the_aggregate(
        self, machine, corpus, serial, tmp_path
    ):
        """Complexity counters come back from the cache, not just from
        freshly evaluated loops — a warm run reports the same totals."""
        cache = tmp_path / "cache"
        _, cold = _traced_run(machine, corpus, jobs=2, cache_dir=cache)
        obs, warm = _traced_run(machine, corpus, jobs=2, cache_dir=cache)
        assert warm.hits == len(corpus) and warm.misses == 0
        assert (
            json.dumps(warm.counters.snapshot(), sort_keys=True) == serial[1]
        )
        snap = obs.metrics.snapshot()
        assert snap["counters"]["engine.cache.hits"] == len(corpus)
        assert snap["counters"]["algo.ops_scheduled"] > 0

    def test_metrics_hold_the_algorithm_counters(self, machine, corpus):
        obs, result = _traced_run(machine, corpus, jobs=1)
        counters = obs.metrics.snapshot()["counters"]
        for name, value in result.counters.snapshot().items():
            assert counters["algo." + name] == value
        assert counters["engine.loops"] == len(corpus)
        assert counters["engine.failures"] == 0

    def test_metrics_hold_the_ii_search_kernel_counters(self, machine, corpus):
        """The II search reports its work: the (slot, alternative) pairs
        FindTimeSlot examined, identical whatever ``--jobs`` produced
        them."""
        serial, _ = _traced_run(machine, corpus, jobs=1)
        fanned, _ = _traced_run(machine, corpus, jobs=4)
        for obs in (serial, fanned):
            counters = obs.metrics.snapshot()["counters"]
            assert counters["algo.findtimeslot_iters"] > 0
        assert (
            serial.metrics.snapshot()["counters"]
            == fanned.metrics.snapshot()["counters"]
        )


class TestCountersSurviveTheRunner:
    def test_evaluate_corpus_merges_into_caller_counters(
        self, machine, corpus
    ):
        """A caller that keeps its own :class:`Counters` merges the run's
        aggregate into it, with the same totals for any ``jobs``."""
        serial, parallel = Counters(), Counters()
        serial.merge(
            EvaluationEngine(machine, jobs=1).evaluate(corpus).counters
        )
        parallel.merge(
            EvaluationEngine(machine, jobs=2).evaluate(corpus).counters
        )
        assert serial.snapshot() == parallel.snapshot()
        assert serial.ops_scheduled > 0
        assert serial.mindist_inner > 0

    def test_untraced_report_has_no_metrics_block(self, machine, corpus):
        """Without an ObsContext the run exports no metrics, yet the
        result still aggregates the counters."""
        engine = EvaluationEngine(machine, jobs=1)
        result = engine.evaluate(corpus)
        records = records_from_snapshot(engine.obs.to_dict())
        assert [r for r in records if r["type"] == "metric"] == []
        assert result.counters.ops_scheduled > 0

    def test_export_carries_the_aggregate(self, machine, corpus):
        """Every aggregated counter is an ``algo.*`` metric of the export."""
        obs, result = _traced_run(machine, corpus, jobs=2)
        exported = export_counters(records_from_snapshot(obs.to_dict()))
        for name, value in result.counters.snapshot().items():
            assert exported.get("algo." + name, 0) == value
        assert exported["algo.ops_scheduled"] > 0


class TestSpanCoverage:
    def test_fanout_spans_reparent_under_the_run_root(self, machine, corpus):
        obs, _ = _traced_run(machine, corpus, jobs=2)
        root = next(s for s in obs.spans if s.name == "corpus.evaluate")
        loops = [s for s in obs.spans if s.name == "loop"]
        assert len(loops) == len(corpus)
        assert {s.parent_id for s in loops} == {root.span_id}
        indices = sorted(s.attrs["index"] for s in loops)
        assert indices == list(range(len(corpus)))

    def test_snapshot_round_trips_the_engine_boundary(self, machine, corpus):
        """Worker snapshots crossed a process boundary; the merged record
        still schema-validates end to end."""
        from repro.obs.schema import validate_records

        obs, _ = _traced_run(machine, corpus, jobs=2)
        assert validate_records(records_from_snapshot(obs.to_dict())) == []


class TestObservatoryDeterminism:
    """The run store sees the same determinism the snapshots promise:
    re-ingesting a run is a no-op, and a run diffed against itself is
    clean whatever ``jobs`` produced it."""

    def _record(self, store, machine, corpus, jobs):
        from repro.obs.store import RunStore  # noqa: F401  (type context)

        obs, _ = _traced_run(machine, corpus, jobs=jobs)
        return store.ingest_run_artifacts(
            obs.to_dict(),
            run={"command": "corpus", "jobs": jobs},
            source="test",
        )

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_double_ingest_dedupes_by_run_id(self, machine, corpus, jobs):
        from repro.obs.store import RunStore

        obs, _ = _traced_run(machine, corpus, jobs=jobs)
        snapshot = obs.to_dict()
        with RunStore(":memory:") as store:
            first = store.ingest_run_artifacts(snapshot, run={"jobs": jobs})
            again = store.ingest_run_artifacts(snapshot, run={"jobs": jobs})
            assert first.created and not again.created
            assert first.run_id == again.run_id
            assert len(store.runs()) == 1

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_self_diff_reports_zero_regressions(self, machine, corpus, jobs):
        from repro.obs.analyze import diff_runs
        from repro.obs.store import RunStore

        with RunStore(":memory:") as store:
            run_id = self._record(store, machine, corpus, jobs).run_id
            diff = diff_runs(store, run_id, run_id)
            assert diff.clean
            assert diff.regressions == []
            assert diff.new_failure_kinds == []
            assert diff.vanished_failure_kinds == []
            assert diff.slower_loops == []

    def test_serial_vs_parallel_runs_diff_clean(self, machine, corpus):
        """jobs=1 and jobs=4 trace the same work; only timing jitter
        separates them, and the noise gate eats that."""
        from repro.obs.analyze import diff_runs
        from repro.obs.store import RunStore

        with RunStore(":memory:") as store:
            serial = self._record(store, machine, corpus, jobs=1).run_id
            parallel = self._record(store, machine, corpus, jobs=4).run_id
            diff = diff_runs(store, serial, parallel)
            assert diff.new_failure_kinds == []
            assert diff.counter_deltas == {}  # metrics are byte-identical
