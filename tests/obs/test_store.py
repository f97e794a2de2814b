"""The observatory's run store: ingest, dedupe, self time, attribution."""

import json

import pytest

from repro.obs import ObsContext
from repro.obs.schema import FORMAT, records_from_snapshot
from repro.obs.store import (
    RunStore,
    StoreError,
    run_id_for_records,
)


def _snapshot():
    """A small but real traced run with nested spans and metrics."""
    obs = ObsContext()
    with obs.span("corpus.evaluate", loops=2):
        with obs.span("loop", loop="dot", index=0) as loop:
            with obs.span("schedule", graph="dot", mii=3, ii=3, attempts=1):
                with obs.span(
                    "schedule.attempt", ii=3, success=True, steps=10,
                    displaced=2, forced=1,
                ):
                    pass
            loop.set("ii", 3)
            loop.set("ok", True)
        with obs.span("loop", loop="fir", index=1) as loop:
            loop.set("ok", False)
            loop.set("failed_phase", "scheduling")
            loop.set("kind", "deterministic")
    obs.counter("engine.loops").inc(2)
    obs.counter("engine.failures").inc(1)
    obs.histogram("loop.ops").observe(12)
    return obs.to_dict()


def _served_snapshot():
    """A run whose loops never reached a worker: a cache hit, and a cache
    miss whose evaluation failed in a dead worker."""
    obs = ObsContext()
    with obs.span("corpus.evaluate", loops=2):
        with obs.span("cache.load", loop="dot", index=0) as load:
            load.set("hit", True)
        with obs.span("cache.load", loop="fir", index=1) as load:
            load.set("hit", False)
        with obs.span(
            "loop", loop="fir", index=1, ok=False, failed_phase="pool",
            kind="transient",
        ):
            pass
    obs.counter("engine.cache.hits").inc(1)
    obs.counter("engine.cache.misses").inc(1)
    return obs.to_dict()


@pytest.fixture()
def store():
    with RunStore(":memory:") as s:
        yield s


class TestIngestRecords:
    def test_ingest_and_dedupe_by_content_hash(self, store):
        records = records_from_snapshot(_snapshot(), run={"jobs": 1})
        first = store.ingest_records(records)
        again = store.ingest_records(records)
        assert first.created and not again.created
        assert first.run_id == again.run_id
        assert len(store.runs()) == 1

    def test_distinct_snapshots_get_distinct_runs(self, store):
        a = store.ingest_records(records_from_snapshot(_snapshot()))
        b = store.ingest_records(records_from_snapshot(_snapshot()))
        assert a.run_id != b.run_id  # span clocks differ
        assert len(store.runs()) == 2

    def test_invalid_stream_is_rejected(self, store):
        with pytest.raises(StoreError, match="not a valid obs export"):
            store.ingest_records([{"format": "nope"}])

    def test_run_id_is_stable_across_serialization(self):
        records = records_from_snapshot(_snapshot())
        round_tripped = [
            json.loads(json.dumps(r, sort_keys=True)) for r in records
        ]
        assert run_id_for_records(records) == run_id_for_records(
            round_tripped
        )


class TestSelfTime:
    def test_self_time_excludes_direct_children(self, store):
        result = store.ingest_records(records_from_snapshot(_snapshot()))
        rows = {row["name"]: row for row in store.span_rows(result.run_id)
                if row["name"] in ("schedule", "schedule.attempt")}
        schedule = rows["schedule"]
        attempt = rows["schedule.attempt"]
        assert schedule["self_dur"] == pytest.approx(
            schedule["dur"] - attempt["dur"]
        )
        assert attempt["self_dur"] == pytest.approx(attempt["dur"])

    def test_self_time_clamped_non_negative(self, store):
        records = [
            {"format": FORMAT, "type": "meta", "run": {}},
            {"format": FORMAT, "type": "span", "name": "a", "span_id": 1,
             "parent_id": None, "start": 0.0, "dur": 1.0, "pid": 1,
             "tid": 0, "attrs": {}},
            # Child longer than its parent (clock skew across processes).
            {"format": FORMAT, "type": "span", "name": "b", "span_id": 2,
             "parent_id": 1, "start": 0.0, "dur": 1.5, "pid": 1,
             "tid": 0, "attrs": {}},
        ]
        result = store.ingest_records(records)
        parent = next(
            r for r in store.span_rows(result.run_id) if r["name"] == "a"
        )
        assert parent["self_dur"] == 0.0

    def test_spans_resolve_their_owning_loop(self, store):
        result = store.ingest_records(records_from_snapshot(_snapshot()))
        attempt = next(
            r for r in store.span_rows(result.run_id)
            if r["name"] == "schedule.attempt"
        )
        assert attempt["loop"] == "dot"


class TestLoopAttribution:
    def test_loops_derived_from_span_tree(self, store):
        result = store.ingest_records(records_from_snapshot(_snapshot()))
        loops = {row["name"]: row for row in store.loop_rows(result.run_id)}
        dot = loops["dot"]
        assert dot["ii"] == 3 and dot["mii"] == 3 and dot["attempts"] == 1
        assert dot["displaced"] == 2 and dot["forced"] == 1
        assert dot["ok"] == 1
        fir = loops["fir"]
        assert fir["ok"] == 0 and fir["failure_phase"] == "scheduling"
        assert fir["failure_kind"] == "deterministic"
        assert dot["failure_kind"] is None

    def test_phase_seconds_come_from_the_loop_span_children(self, store):
        result = store.ingest_records(records_from_snapshot(_snapshot()))
        dot = next(
            row for row in store.loop_rows(result.run_id)
            if row["name"] == "dot"
        )
        spans = [
            row for row in store.span_rows(result.run_id)
            if row["loop"] == "dot"
        ]
        by_name = {row["name"]: row for row in spans}
        assert json.loads(dot["seconds_json"]) == {
            "schedule": by_name["schedule"]["dur"]
        }
        assert dot["wall"] == by_name["loop"]["dur"]

    def test_served_loops_become_loop_rows(self, store):
        result = store.ingest_records(
            records_from_snapshot(_served_snapshot())
        )
        loops = {
            row["idx"]: (row["cache_hit"], row["ok"],
                         row["failure_kind"], row["failure_phase"])
            for row in store.loop_rows(result.run_id)
        }
        assert loops == {
            0: (1, 1, None, None),
            1: (0, 0, "transient", "pool"),
        }
        seconds = [
            set(json.loads(row["seconds_json"]))
            for row in store.loop_rows(result.run_id)
        ]
        assert seconds == [{"cache.load"}, {"cache.load"}]

    def test_run_tallies_come_from_spans_and_metrics(self, store):
        result = store.ingest_records(records_from_snapshot(_snapshot()))
        run = store.run_row(result.run_id)
        root = next(
            row for row in store.span_rows(result.run_id)
            if row["name"] == "corpus.evaluate"
        )
        assert run["wall_seconds"] == root["dur"]
        assert run["n_loops"] == 2
        assert run["n_failures"] == 1
        assert store.runs()[0]["n_failures"] == 1

    def test_metrics_land_in_the_metrics_table(self, store):
        result = store.ingest_records(records_from_snapshot(_snapshot()))
        assert store.counters(result.run_id)["engine.loops"] == 2
        histogram = next(
            r for r in store.metric_rows(result.run_id)
            if r["kind"] == "histogram"
        )
        assert json.loads(histogram["value_json"])["count"] == 1


class TestOtherIngest:
    def test_ingest_path_sniffs_all_formats(self, store, tmp_path):
        jsonl = tmp_path / "obs.jsonl"
        records = records_from_snapshot(_snapshot())
        jsonl.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert store.ingest_path(jsonl).kind == "obs"

        # A BENCH_*.json trajectory is a single JSON document, not a
        # run: refused like any other.
        bench = tmp_path / "BENCH_SCHED.json"
        bench.write_text(json.dumps(
            {"version": 1, "runs": [{"bench": "b", "unix_time": 1.0}]}
        ))
        with pytest.raises(StoreError, match="unrecognized JSON document"):
            store.ingest_path(bench)
        assert len(store.runs()) == 1

    def test_wrong_format_timing_report_rejected(self, store, tmp_path):
        """An engine timing report is not a run: the store reads runs
        from ``repro.obs.v2`` exports only."""
        timing = tmp_path / "timings.json"
        timing.write_text(json.dumps({
            "format": "repro.engine-timing.v1", "machine": "cydra5",
            "n_loops": 2, "wall_seconds": 1.25, "loops": [], "failures": [],
        }, indent=2))
        with pytest.raises(StoreError, match="unrecognized"):
            store.ingest_path(timing)
        assert store.runs() == []

    def test_journal_ingest(self, store, tmp_path):
        """A foreign JSONL is not a run either — here the checkpoint
        journal older builds left in their cache directory; ingesting
        one fails schema validation and records nothing."""
        journal = tmp_path / "journal.jsonl"
        journal.write_text("".join(json.dumps(
            {"format": "repro.journal.v1", "key": f"k{i}", "index": i,
             "loop": "dot", "ok": True}
        ) + "\n" for i in range(2)))
        with pytest.raises(StoreError, match="not a valid obs export"):
            store.ingest_path(journal)
        assert store.runs() == []

    def test_ingest_path_rejects_garbage(self, store, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text('{"what": "ever"}')
        with pytest.raises(StoreError, match="unrecognized"):
            store.ingest_path(path)


class TestRunResolution:
    def test_latest_and_prefix(self, store):
        a = store.ingest_records(records_from_snapshot(_snapshot()))
        b = store.ingest_records(records_from_snapshot(_snapshot()))
        assert store.resolve_run(None) == b.run_id
        assert store.resolve_run("latest") == b.run_id
        assert store.resolve_run(a.run_id[:6]) == a.run_id

    def test_unknown_and_ambiguous_references(self, store):
        store.ingest_records(records_from_snapshot(_snapshot()))
        store.ingest_records(records_from_snapshot(_snapshot()))
        with pytest.raises(StoreError, match="no run matches"):
            store.resolve_run("zzzz")
        assert store.resolve_run("") == store.resolve_run("latest")
        # A full run id used as its own prefix resolves; any prefix both
        # runs share is ambiguous.
        runs = [r["run_id"] for r in store.runs()]
        assert store.resolve_run(runs[0]) == runs[0]
        if runs[0][0] == runs[1][0]:
            with pytest.raises(StoreError, match="ambiguous"):
                store.resolve_run(runs[0][0])

    def test_empty_store_resolution_fails(self, store):
        with pytest.raises(StoreError, match="no runs"):
            store.resolve_run(None)


class TestPersistence:
    def test_store_of_another_schema_version_is_refused(self, tmp_path):
        import sqlite3

        path = tmp_path / "obs.db"
        with sqlite3.connect(path) as db:
            db.execute("PRAGMA user_version = 2")
        with pytest.raises(StoreError, match="schema version 2"):
            RunStore(path)

    def test_reopen_preserves_runs(self, tmp_path):
        path = tmp_path / "obs.db"
        records = records_from_snapshot(_snapshot())
        with RunStore(path) as store:
            run_id = store.ingest_records(records).run_id
        with RunStore(path) as store:
            assert store.has_run(run_id)
            assert not store.ingest_records(records).created

    def test_profile_samples_round_trip_and_merge(self, store):
        run_id = store.ingest_records(
            records_from_snapshot(_snapshot())
        ).run_id
        store.ingest_profile(run_id, {"a;b": 3, "a;c": 1})
        store.ingest_profile(run_id, {"a;b": 2})
        assert store.profile_samples(run_id) == {"a;b": 5, "a;c": 1}
