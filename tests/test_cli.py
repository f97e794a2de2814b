"""The command-line interface."""

import io
import json

import pytest

from repro.analysis.regression import load_obs_records
from repro.cli import main
from tests.conftest import export_counters


@pytest.fixture
def dot_file(tmp_path):
    path = tmp_path / "dot.dsl"
    path.write_text("for i in n:\n    s = s + x[i] * y[i]\n")
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestMachines:
    def test_lists_all_machines(self):
        code, text = _run(["machines"])
        assert code == 0
        for name in ("cydra5", "single_alu", "two_alu", "superscalar"):
            assert name in text


class TestMII:
    def test_reports_all_three_bounds(self, dot_file):
        code, text = _run(["mii", dot_file])
        assert code == 0
        assert "ResMII" in text and "RecMII" in text and "MII" in text

    def test_machine_selection_changes_bounds(self, dot_file):
        _, cydra_text = _run(["mii", dot_file, "--machine", "cydra5"])
        _, alu_text = _run(["mii", dot_file, "--machine", "single_alu"])
        assert cydra_text != alu_text

    def test_unroll_recommendation_flag(self, dot_file):
        code, text = _run(["mii", dot_file, "--recommend-unroll", "3"])
        assert code == 0
        assert "recommend" in text


class TestSchedule:
    def test_reports_ii_and_sl(self, dot_file):
        code, text = _run(["schedule", dot_file])
        assert code == 0
        assert "II=" in text and "SL=" in text

    def test_kernel_flag_prints_layout(self, dot_file):
        _, text = _run(["schedule", dot_file, "--kernel"])
        assert "kernel" in text

    def test_verify_flag_simulates(self, dot_file):
        code, text = _run(["schedule", dot_file, "--verify", "25"])
        assert code == 0
        assert "OK" in text

    def test_json_output_parses(self, dot_file):
        code, text = _run(["schedule", dot_file, "--json"])
        assert code == 0
        data = json.loads(text)
        assert data["format"] == "repro.schedule.v1"

    def test_budget_ratio_accepted(self, dot_file):
        code, _ = _run(["schedule", dot_file, "--budget-ratio", "2"])
        assert code == 0

    def test_conservative_delays_flag(self, dot_file):
        code, _ = _run(["schedule", dot_file, "--conservative-delays"])
        assert code == 0


class TestCorpus:
    def test_small_corpus_report(self):
        code, text = _run(["corpus", "--loops", "50"])
        assert code == 0
        assert "II = MII" in text
        assert "loops on" in text
        assert "engine:" in text

    def test_parallel_jobs_flag(self):
        code, text = _run(["corpus", "--loops", "70", "--jobs", "2"])
        assert code == 0
        assert "jobs=2" in text

    def test_cache_and_timings_flags(self, tmp_path, capsys):
        """A warm run is all hits in its --obs-out export; the retired
        --timings flag is an unrecognized argument."""
        cache = str(tmp_path / "cache")
        warm_export = str(tmp_path / "warm.jsonl")
        argv = ["corpus", "--loops", "70", "--cache-dir", cache]
        code, text = _run(argv)
        assert code == 0
        assert "0 cache hits" in text
        code, text = _run(argv + ["--obs-out", warm_export])
        assert code == 0
        assert "0 misses" in text
        records = load_obs_records(warm_export)
        counters = export_counters(records)
        assert counters["engine.cache.hits"] == counters["engine.loops"]
        spans = {r["name"] for r in records if r["type"] == "span"}
        assert not spans & {"mindist", "scheduling"}
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--timings", str(tmp_path / "t.json")])
        assert exited.value.code == 2
        assert "unrecognized arguments: --timings" in capsys.readouterr().err

    def test_no_cache_flag(self, tmp_path):
        cache = tmp_path / "cache"
        code, text = _run(
            ["corpus", "--loops", "70", "--cache-dir", str(cache), "--no-cache"]
        )
        assert code == 0
        assert "cache off" in text
        assert not cache.exists()

    def test_verify_flag(self):
        code, text = _run(["corpus", "--loops", "66", "--verify", "8"])
        assert code == 0
        assert "0 failures" in text

    def test_mii_statistics_leave_out_a_cut_short_mii(self, monkeypatch):
        """A deadline that stalls abs_sum_signs before its MII search
        leaves it with the ResMII bound (4, not 8); the MII rows and the
        II = MII line must read as a clean run's without that loop."""
        from repro.analysis import distribution_row
        from repro.analysis.engine import EvaluationEngine
        from repro.analysis.faultinject import NULL_PLAN
        from repro.machine import cydra5
        from repro.workloads import build_corpus

        monkeypatch.setenv("REPRO_FAULT_INJECT", "slow@0:5!")
        code, text = _run([
            "corpus", "--loops", "65", "--jobs", "1", "--no-cache",
            "--loop-timeout", "1",
        ])
        assert code == 0
        assert "1 degraded" in text
        machine = cydra5()
        clean = EvaluationEngine(machine, fault_plan=NULL_PLAN).evaluate(
            build_corpus(machine, n_synthetic=0, seed=0)
        )
        assert clean.evaluations[0].loop.name == "abs_sum_signs"
        kept = clean.evaluations[1:]
        lines = [line.strip() for line in text.splitlines()]
        for name, values, minimum in (
            ("MII", [e.mii for e in kept], 1),
            ("II - MII", [e.delta_ii for e in kept], 0),
        ):
            cells = distribution_row(name, values, minimum).cells()
            # A table row is the measurement's name and five numbers.
            (row,) = [l for l in lines if l.split()[:-5] == name.split()]
            assert row.split() == " ".join(cells).split()
        at_mii = sum(1 for e in kept if e.delta_ii == 0) / len(kept)
        assert f"II = MII on {at_mii:.1%} of loops" in lines
        assert (
            "MII statistics leave out 1 loop(s) whose MII search a "
            "deadline cut short (MII is only the ResMII bound)"
        ) in lines


class TestCheck:
    def test_single_file_check_passes(self, dot_file):
        code, text = _run(["check", dot_file])
        assert code == 0
        assert "II=" in text and "no findings" in text

    def test_single_file_json_document(self, dot_file, tmp_path):
        out_path = tmp_path / "check.json"
        code, _ = _run(["check", dot_file, "--json", str(out_path)])
        assert code == 0
        data = json.load(open(out_path))
        assert data["format"] == "repro.check.v1"
        assert data["counts"]["error"] == 0

    def test_corpus_check_passes(self, tmp_path):
        out_path = tmp_path / "check.json"
        code, text = _run(
            ["check", "--loops", "66", "--jobs", "2",
             "--json", str(out_path)]
        )
        assert code == 0
        assert "0 rejection(s)" in text
        data = json.load(open(out_path))
        assert data["format"] == "repro.check.v1"
        assert data["checked"] == 66

    def test_corpus_flag_strict_mode(self):
        code, text = _run(["corpus", "--loops", "66", "--check"])
        assert code == 0
        assert "0 failures" in text

    def test_unusable_cache_dir_rejected_cleanly(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        code, _ = _run(
            ["check", "--loops", "66", "--cache-dir", str(not_a_dir)]
        )
        assert code == 2
        assert "cache directory unusable" in capsys.readouterr().err


class TestLint:
    def test_single_machine_clean(self):
        code, text = _run(["lint", "--machine", "cydra5"])
        assert code == 0
        assert "no findings" in text

    def test_all_machines_clean(self):
        code, text = _run(["lint", "--all-machines"])
        assert code == 0

    def test_file_lints_graph_and_mindist(self, dot_file):
        code, text = _run(["lint", dot_file])
        assert code == 0
        assert "no findings" in text

    def test_json_document(self, tmp_path):
        out_path = tmp_path / "lint.json"
        code, _ = _run(["lint", "--all-machines", "--json", str(out_path)])
        assert code == 0
        data = json.load(open(out_path))
        assert data["format"] == "repro.check.v1"
        assert "cydra5" in data["run"]["machines"]


class TestObservability:
    def test_traced_corpus_run_covers_every_phase(self, tmp_path):
        """Acceptance: one traced run emits schema-valid repro.obs.v1
        records whose spans cover all five pipeline phases."""
        from repro.obs.check import main as check_main
        from repro.obs.schema import validate_jsonl

        path = tmp_path / "obs.jsonl"
        code, text = _run(
            ["corpus", "--loops", "66", "--jobs", "2", "--verify", "4",
             "--obs-out", str(path)]
        )
        assert code == 0
        assert "observability summary" in text
        assert validate_jsonl(path.read_text()) == []
        assert check_main([str(path)]) == 0  # the CI gate, same validator
        spans = {
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        }
        for phase in ("frontend", "mindist", "scheduling", "codegen",
                      "simulation"):
            assert phase in spans, f"{phase} missing from {sorted(spans)}"
        assert {"corpus.evaluate", "corpus.fanout", "loop", "mii",
                "schedule.attempt"} <= spans

    def test_chrome_format_loads_as_trace_events(self, tmp_path):
        path = tmp_path / "trace.json"
        code, _ = _run(
            ["corpus", "--loops", "66", "--obs-out", str(path),
             "--obs-format", "chrome"]
        )
        assert code == 0
        data = json.load(open(path))
        assert data["traceEvents"]
        assert data["otherData"]["metrics"]["counters"]

    def test_schedule_command_traces_too(self, dot_file, tmp_path):
        from repro.obs.schema import validate_jsonl

        path = tmp_path / "sched.jsonl"
        code, text = _run(["schedule", dot_file, "--verify", "8",
                           "--obs-out", str(path)])
        assert code == 0
        assert "obs export" in text
        assert validate_jsonl(path.read_text()) == []
        spans = {
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        }
        assert {"frontend", "mii", "schedule", "simulation"} <= spans

    def test_json_stdout_stays_pure_with_obs_out(self, dot_file, tmp_path):
        path = tmp_path / "sched.jsonl"
        code, text = _run(
            ["schedule", dot_file, "--json", "--obs-out", str(path)]
        )
        assert code == 0
        assert json.loads(text)["format"] == "repro.schedule.v1"
        assert path.exists()

    def test_unknown_format_rejected_cleanly(self, dot_file, tmp_path, capsys):
        code, _ = _run(
            ["schedule", dot_file, "--obs-out", str(tmp_path / "o"),
             "--obs-format", "protobuf"]
        )
        assert code == 2
        assert "unknown obs format" in capsys.readouterr().err

    def test_corpus_help_names_the_exported_schema(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["corpus", "--help"])
        assert exited.value.code == 0
        text = capsys.readouterr().out
        assert "repro.obs.v2" in text
        assert "repro.obs.v1" not in text

    def test_unwritable_obs_out_rejected_cleanly(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        code, _ = _run(
            ["corpus", "--loops", "66",
             "--obs-out", str(not_a_dir / "obs.jsonl")]
        )
        assert code == 2
        assert "obs output path unusable" in capsys.readouterr().err


class TestErrors:
    def test_negative_jobs_rejected_cleanly(self, capsys):
        code, _ = _run(["corpus", "--loops", "66", "--jobs", "-3"])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_unusable_cache_dir_rejected_cleanly(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        code, _ = _run(
            ["corpus", "--loops", "66", "--cache-dir", str(not_a_dir)]
        )
        assert code == 2
        assert "cache directory unusable" in capsys.readouterr().err

    def test_unknown_machine_rejected(self, dot_file):
        with pytest.raises(SystemExit):
            _run(["schedule", dot_file, "--machine", "pdp11"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            _run([])


class TestVisualizationFlags:
    def test_gantt_flag(self, dot_file):
        code, text = _run(["schedule", dot_file, "--gantt"])
        assert code == 0
        assert "slot" in text

    def test_diagram_flag(self, dot_file):
        code, text = _run(["schedule", dot_file, "--diagram"])
        assert code == 0
        assert "iter" in text

    def test_trace_flag(self, dot_file):
        code, text = _run(["schedule", dot_file, "--trace"])
        assert code == 0
        assert "place" in text


class TestObservatory:
    """`corpus --obs-db` recording plus the `repro obs` family on top."""

    @pytest.fixture(scope="class")
    def db(self, tmp_path_factory):
        """A store holding two recordings of the same 40-loop corpus."""
        path = str(tmp_path_factory.mktemp("obs") / "obs.db")
        for _ in range(2):
            code, text = _run(
                ["corpus", "--loops", "40", "--no-cache", "--obs-db", path]
            )
            assert code == 0
            assert "recorded in" in text
        return path

    def _run_ids(self, db):
        code, text = _run(["obs", "runs", "--db", db, "--json"])
        assert code == 0
        return [run["run_id"] for run in json.loads(text)]

    def test_corpus_records_two_distinct_runs(self, db):
        run_ids = self._run_ids(db)
        assert len(run_ids) == 2 and run_ids[0] != run_ids[1]

    def test_runs_table_mode(self, db):
        code, text = _run(["obs", "runs", "--db", db])
        assert code == 0
        assert "2 run(s)" in text
        assert "repro.obs.v2" in text

    def test_report_renders_percentiles(self, db):
        code, text = _run(["obs", "report", "--db", db])
        assert code == 0
        assert "p50" in text and "p95" in text and "p99" in text
        assert "scheduling" in text

    def test_report_json_mode(self, db):
        code, text = _run(["obs", "report", "--db", db, "--json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["phases"]
        assert doc["baseline_breaches"] == []

    def test_baseline_round_trip_through_the_cli(self, db, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        code, text = _run(
            ["obs", "report", "--db", db, "--make-baseline", baseline]
        )
        assert code == 0 and "baseline written" in text
        code, text = _run(
            ["obs", "report", "--db", db, "--baseline", baseline]
        )
        assert code == 0 and "within budget" in text
        # A crushed budget must breach and exit 1.
        doc = json.load(open(baseline))
        doc["per_loop_self_seconds"] = {
            k: 0.0 for k in doc["per_loop_self_seconds"]
        }
        with open(baseline, "w") as fh:
            json.dump(doc, fh)
        code, text = _run(
            ["obs", "report", "--db", db, "--baseline", baseline]
        )
        assert code == 1 and "BASELINE BREACH" in text

    # Whether a phase regressed is a timing question (the noise floor
    # decides it); CI's observatory job asks it.  Here the diff's
    # deterministic fields carry the assertion.
    def test_diff_of_twin_runs_is_clean(self, db):
        first, second = self._run_ids(db)
        _code, text = _run(
            ["obs", "diff", "--db", db, first, second, "--json"]
        )
        doc = json.loads(text)
        assert doc["new_failure_kinds"] == []
        assert doc["counter_deltas"] == {}

    def test_diff_defaults_other_to_latest(self, db):
        first, latest = self._run_ids(db)
        _code, text = _run(["obs", "diff", "--db", db, first, "--json"])
        doc = json.loads(text)
        assert (doc["base"], doc["other"]) == (first, latest)
        assert doc["new_failure_kinds"] == []
        assert doc["counter_deltas"] == {}

    def test_top_ranks_loops(self, db):
        code, text = _run(["obs", "top", "--db", db, "--by", "wall"])
        assert code == 0
        assert "wall s" in text
        code, text = _run(
            ["obs", "top", "--db", db, "--by", "slack", "--json"]
        )
        assert code == 0
        assert isinstance(json.loads(text), list)

    def test_flame_writes_folded_stacks(self, db, tmp_path):
        out_path = str(tmp_path / "flame.folded")
        code, text = _run(
            ["obs", "flame", "--db", db, "-o", out_path]
        )
        assert code == 0 and "stacks" in text
        for line in open(out_path).read().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) > 0

    def test_ingest_of_obs_out_dedupes_against_obs_db(self, tmp_path):
        """--obs-db records exactly the records --obs-out writes."""
        db = str(tmp_path / "obs.db")
        export = str(tmp_path / "run.jsonl")
        code, _ = _run(
            ["corpus", "--loops", "40", "--no-cache", "--obs-out", export,
             "--obs-db", db]
        )
        assert code == 0
        recorded = self._run_ids(db)
        code, text = _run(["obs", "ingest", "--db", db, export])
        assert code == 0
        assert f"run {recorded[0]} already present (deduped)" in text
        assert self._run_ids(db) == recorded

    def test_ingest_refuses_a_bench_trajectory(self, tmp_path, capsys):
        """The store reads runs only: a BENCH_*.json trajectory is an
        unrecognized JSON document, a configuration error."""
        db = str(tmp_path / "obs.db")
        bench = tmp_path / "BENCH_SCHED.json"
        bench.write_text(json.dumps(
            {"version": 1, "runs": [{"bench": "b", "unix_time": 1.0}]}
        ))
        code, text = _run(["obs", "ingest", "--db", db, str(bench)])
        assert code == 2 and text == ""
        assert "unrecognized JSON document" in capsys.readouterr().err
        assert self._run_ids(db) == []

    def test_unknown_run_reference_exits_2(self, db, capsys):
        code, _ = _run(["obs", "report", "--db", db, "zzzzzz"])
        assert code == 2
        assert "no run matches" in capsys.readouterr().err

    def test_unusable_db_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "garbage.db"
        bogus.write_text("this is not a sqlite database, not even close")
        code, _ = _run(["obs", "runs", "--db", str(bogus)])
        assert code == 2
        assert "not a usable store" in capsys.readouterr().err


class TestProfileFlag:
    def test_profile_records_samples_and_writes_folded(self, tmp_path):
        db = str(tmp_path / "obs.db")
        folded = str(tmp_path / "prof.folded")
        code, text = _run(
            ["corpus", "--loops", "60", "--no-cache", "--profile",
             "--profile-out", folded, "--obs-db", db]
        )
        assert code == 0
        if "no profiler samples" not in text:
            assert "profiler samples" in text
            for line in open(folded).read().splitlines():
                stack, weight = line.rsplit(" ", 1)
                assert stack and int(weight) > 0
            code, flame_text = _run(
                ["obs", "flame", "--db", db, "--source", "profile"]
            )
            assert code == 0 and flame_text.strip()

    def test_profile_off_keeps_output_identical_shape(self):
        code, text = _run(["corpus", "--loops", "40", "--no-cache"])
        assert code == 0
        assert "profiler" not in text
