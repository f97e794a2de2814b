"""The ``repro.obs.v2`` schema, its validator, and the CLI checker."""

import json

from repro.obs import ObsContext
from repro.obs.check import check_paths, main
from repro.obs.schema import (
    FORMAT,
    content_record_count,
    records_from_snapshot,
    validate_jsonl,
    validate_record,
    validate_records,
    worker_lanes,
)


def _snapshot():
    obs = ObsContext()
    with obs.span("corpus.evaluate", loops=2):
        with obs.span("loop", loop="dot"):
            pass
    obs.counter("engine.loops").inc(2)
    obs.gauge("engine.jobs").set(4)
    obs.histogram("loop.ops").observe(12)
    return obs.to_dict()


class TestRecordsFromSnapshot:
    def test_real_snapshot_validates(self):
        records = records_from_snapshot(_snapshot(), run={"argv": "corpus"})
        assert validate_records(records) == []

    def test_meta_comes_first_with_the_run_payload(self):
        records = records_from_snapshot(_snapshot(), run={"jobs": 4})
        assert records[0] == {
            "format": FORMAT, "type": "meta", "run": {"jobs": 4},
        }
        assert sum(1 for r in records if r["type"] == "meta") == 1

    def test_every_metric_kind_is_emitted(self):
        records = records_from_snapshot(_snapshot())
        kinds = {r["kind"] for r in records if r["type"] == "metric"}
        assert kinds == {"counter", "gauge", "histogram"}


class TestValidateRecord:
    def _span(self, **overrides):
        record = {
            "format": FORMAT, "type": "span", "name": "x", "span_id": 1,
            "parent_id": None, "start": 1.0, "dur": 0.5, "pid": 1,
            "tid": 0, "attrs": {},
        }
        record.update(overrides)
        return record

    def test_good_span_has_no_errors(self):
        assert validate_record(self._span()) == []

    def test_v2_span_requires_a_tid(self):
        record = self._span()
        del record["tid"]
        assert any("tid" in e for e in validate_record(record))

    def test_wrong_format_marker(self):
        errors = validate_record(self._span(format="repro.obs.v0"))
        assert any("format" in e for e in errors)

    def test_unknown_type(self):
        errors = validate_record({"format": FORMAT, "type": "event"})
        assert any("unknown record type" in e for e in errors)

    def test_non_object_record(self):
        assert validate_record([1, 2]) == ["record is list, not an object"]

    def test_span_missing_field(self):
        record = self._span()
        del record["dur"]
        assert any("dur" in e for e in validate_record(record))

    def test_negative_duration_rejected(self):
        errors = validate_record(self._span(dur=-0.1))
        assert any("negative" in e for e in errors)

    def test_string_parent_rejected(self):
        errors = validate_record(self._span(parent_id="root"))
        assert any("parent_id" in e for e in errors)

    def test_unknown_metric_kind(self):
        record = {
            "format": FORMAT, "type": "metric", "kind": "meter",
            "name": "x", "value": 1,
        }
        assert any("metric kind" in e for e in validate_record(record))

    def test_boolean_metric_value_rejected(self):
        record = {
            "format": FORMAT, "type": "metric", "kind": "counter",
            "name": "x", "value": True,
        }
        assert any("number" in e for e in validate_record(record))

    def test_histogram_value_must_carry_the_summary_fields(self):
        record = {
            "format": FORMAT, "type": "metric", "kind": "histogram",
            "name": "h", "value": {"count": 1},
        }
        assert any("count/total/min/max" in e for e in validate_record(record))


class TestValidateRecords:
    def test_empty_stream_is_invalid(self):
        assert validate_records([]) == ["no records"]

    def test_meta_must_come_first(self):
        records = records_from_snapshot(_snapshot())
        shuffled = records[1:] + records[:1]
        assert any("meta" in e for e in validate_records(shuffled))

    def test_duplicate_span_ids_detected(self):
        records = records_from_snapshot(_snapshot())
        spans = [r for r in records if r["type"] == "span"]
        records.append(dict(spans[0]))
        assert any("duplicate span_id" in e for e in validate_records(records))

    def test_dangling_parent_detected(self):
        records = records_from_snapshot(_snapshot())
        for record in records:
            if record["type"] == "span" and record["parent_id"] is not None:
                record["parent_id"] = 999
        assert any(
            "names no span" in e for e in validate_records(records)
        )

    def test_jsonl_flags_undecodable_lines(self):
        records = records_from_snapshot(_snapshot())
        text = "\n".join(json.dumps(r) for r in records) + "\n{oops\n"
        errors = validate_jsonl(text)
        assert any("not JSON" in e for e in errors)

    def test_mixed_format_markers_rejected(self):
        records = records_from_snapshot(_snapshot())
        for record in records:
            if record["type"] == "metric":
                record["format"] = "repro.obs.v1"
        errors = validate_records(records)
        assert errors and all("repro.obs.v1" in e for e in errors)


class TestWorkerLanes:
    def test_root_pid_is_lane_zero_and_workers_sort(self):
        spans = [
            {"span_id": 1, "parent_id": None, "pid": 500},
            {"span_id": 2, "parent_id": 1, "pid": 77},
            {"span_id": 3, "parent_id": 1, "pid": 901},
        ]
        assert worker_lanes(spans) == {500: 0, 77: 1, 901: 2}

    def test_lanes_survive_pid_renumbering_shape(self):
        # Same topology, recycled pids: lanes keep the same structure.
        def lanes(root, workers):
            spans = [{"span_id": 1, "parent_id": None, "pid": root}] + [
                {"span_id": i + 2, "parent_id": 1, "pid": pid}
                for i, pid in enumerate(workers)
            ]
            return sorted(worker_lanes(spans).values())

        assert lanes(10, [20, 30]) == lanes(99, [3, 7]) == [0, 1, 2]

    def test_snapshot_spans_all_get_tids(self):
        records = records_from_snapshot(_snapshot())
        spans = [r for r in records if r["type"] == "span"]
        assert spans and all(isinstance(r["tid"], int) for r in spans)


class TestChecker:
    """`python -m repro.obs.check` — also the CI smoke gate."""

    def _write(self, tmp_path, name="obs.jsonl", text=None):
        if text is None:
            records = records_from_snapshot(_snapshot(), run={})
            text = "".join(json.dumps(r) + "\n" for r in records)
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_valid_file_passes(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert check_paths([path]) == 0
        assert "OK (" in capsys.readouterr().err

    def test_invalid_file_reports_errors(self, tmp_path, capsys):
        path = self._write(tmp_path, text='{"format": "nope"}\n')
        assert check_paths([path]) == 1
        assert "format" in capsys.readouterr().err

    def test_unreadable_file_counts_as_invalid(self, tmp_path, capsys):
        assert check_paths([tmp_path / "missing.jsonl"]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_main_exit_codes(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.jsonl")
        bad = self._write(tmp_path, "bad.jsonl", text="{}\n")
        assert main([str(good)]) == 0
        assert main([str(good), str(bad)]) == 1
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_empty_file_fails_with_exit_2(self, tmp_path, capsys):
        path = self._write(tmp_path, "empty.jsonl", text="")
        assert check_paths([path]) == 2
        assert "empty export" in capsys.readouterr().err

    def test_meta_only_file_fails_with_exit_2(self, tmp_path, capsys):
        meta = {"format": FORMAT, "type": "meta", "run": {}}
        path = self._write(
            tmp_path, "hollow.jsonl", text=json.dumps(meta) + "\n"
        )
        assert content_record_count([meta]) == 0
        assert check_paths([path]) == 2
        assert "meta-only export" in capsys.readouterr().err

    def test_invalid_outranks_empty(self, tmp_path, capsys):
        empty = self._write(tmp_path, "empty.jsonl", text="")
        bad = self._write(tmp_path, "bad.jsonl", text="{}\n")
        assert check_paths([empty, bad]) == 1
        capsys.readouterr()

    def test_mixed_good_and_empty_still_fails(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.jsonl")
        empty = self._write(tmp_path, "empty.jsonl", text="")
        assert check_paths([good, empty]) == 2
        capsys.readouterr()
