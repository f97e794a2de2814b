"""The corpus-evaluation engine: cache keys, caching, failure records."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro.analysis.engine as engine_module
from repro.analysis.engine import (
    EvaluationEngine,
    cache_key,
    evaluation_from_dict,
    evaluation_to_dict,
)
from repro.analysis.regression import load_obs_records
from repro.ir import DependenceGraph, DependenceKind
from repro.machine import cydra5
from repro.machine.serialize import machine_from_dict, machine_to_dict
from repro.obs import ObsContext, write_jsonl
from repro.workloads import build_corpus
from repro.workloads.corpus import CorpusLoop
from tests.analysis.test_resilience import _bytes_of
from tests.conftest import export_counters

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Deterministic DSL loop used for the cross-process stability check.
DSL_SOURCE = "for i in n:\n    s = s + x[i] * y[i]\n"


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    return build_corpus(
        machine, n_synthetic=8, seed=13, include_kernels=False
    )


def _recurrence_graph(machine, distance=1, delay=None, extra_edge=False):
    """Small load->accumulate graph with a tunable recurrence."""
    graph = DependenceGraph(machine, name="probe")
    load = graph.add_operation("load", dest="v")
    acc = graph.add_operation("fadd", dest="s", srcs=("s", "v"))
    graph.add_edge(load, acc, DependenceKind.FLOW, delay=delay)
    graph.add_edge(acc, acc, DependenceKind.FLOW, distance=distance)
    if extra_edge:
        graph.add_edge(load, acc, DependenceKind.ANTI, distance=1)
    return graph.seal()


def _infeasible_loop(machine):
    """A deliberately infeasible loop: a zero-distance dependence circuit."""
    graph = DependenceGraph(machine, name="infeasible")
    a = graph.add_operation("fadd", dest="a", srcs=("b",))
    b = graph.add_operation("fmul", dest="b", srcs=("a",))
    graph.add_edge(a, b, DependenceKind.FLOW)
    graph.add_edge(b, a, DependenceKind.FLOW)
    return CorpusLoop(
        name="infeasible",
        graph=graph.seal(),
        category="synthetic",
        entry_freq=1,
        loop_freq=10,
        executed=True,
    )


class TestCacheKey:
    def test_stable_within_process(self, machine):
        graph = _recurrence_graph(machine)
        assert cache_key(graph, machine) == cache_key(graph, machine)

    def test_stable_across_rebuilds(self, machine):
        first = _recurrence_graph(machine)
        second = _recurrence_graph(machine)
        assert cache_key(first, machine) == cache_key(second, machine)

    def test_stable_across_corpus_rebuilds(self, machine, corpus):
        rebuilt = build_corpus(
            machine, n_synthetic=8, seed=13, include_kernels=False
        )
        for a, b in zip(corpus, rebuilt):
            assert cache_key(a, machine) == cache_key(b, machine)

    def test_stable_across_processes(self, machine):
        """The key must not depend on the interpreter's hash seed."""
        snippet = (
            "from repro.loopir import compile_loop_full\n"
            "from repro.machine import cydra5\n"
            "from repro.analysis.engine import cache_key\n"
            "machine = cydra5()\n"
            f"lowered = compile_loop_full({DSL_SOURCE!r}, machine, name='dot')\n"
            "print(cache_key(lowered.graph, machine))\n"
        )
        keys = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(SRC_DIR) + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            output = subprocess.run(
                [sys.executable, "-c", snippet],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            keys.append(output.stdout.strip())
        assert keys[0] == keys[1]
        assert len(keys[0]) == 64  # sha256 hex

    def test_edge_distance_changes_key(self, machine):
        base = _recurrence_graph(machine, distance=1)
        changed = _recurrence_graph(machine, distance=2)
        assert cache_key(base, machine) != cache_key(changed, machine)

    def test_edge_delay_changes_key(self, machine):
        base = _recurrence_graph(machine)
        changed = _recurrence_graph(machine, delay=7)
        assert cache_key(base, machine) != cache_key(changed, machine)

    def test_extra_edge_changes_key(self, machine):
        base = _recurrence_graph(machine)
        changed = _recurrence_graph(machine, extra_edge=True)
        assert cache_key(base, machine) != cache_key(changed, machine)

    @pytest.mark.parametrize(
        "attribute, before, after",
        [
            ("offset", 0, 1),
            ("operands", (("op", 1, 0),), (("op", 1, 1),)),
        ],
    )
    def test_operation_attribute_changes_key(
        self, machine, attribute, before, after
    ):
        def build(value):
            graph = DependenceGraph(machine, name="probe")
            graph.add_operation("load", dest="v", array="x", offset=0)
            graph.add_operation(
                "fadd", dest="s", srcs=("v",), **{attribute: value}
            )
            return graph.seal()

        assert cache_key(build(before), machine) != cache_key(
            build(after), machine
        )

    def test_attribute_order_does_not_change_key(self, machine):
        def build(**attrs):
            graph = DependenceGraph(machine, name="probe")
            graph.add_operation("load", dest="v", **attrs)
            return graph.seal()

        assert cache_key(build(array="x", offset=2), machine) == cache_key(
            build(offset=2, array="x"), machine
        )

    def test_machine_latency_changes_key(self, machine):
        graph = _recurrence_graph(machine)
        description = machine_to_dict(machine)
        description["opcodes"][0]["latency"] += 1
        mutated = machine_from_dict(description)
        assert cache_key(graph, machine) != cache_key(graph, mutated)

    def test_budget_ratio_changes_key(self, machine):
        graph = _recurrence_graph(machine)
        assert cache_key(graph, machine, budget_ratio=6.0) != cache_key(
            graph, machine, budget_ratio=2.0
        )

    def test_verify_iterations_changes_key(self, machine):
        graph = _recurrence_graph(machine)
        assert cache_key(graph, machine, verify_iterations=0) != cache_key(
            graph, machine, verify_iterations=16
        )

    def test_format_version_changes_key(self, machine, monkeypatch):
        graph = _recurrence_graph(machine)
        before = cache_key(graph, machine)
        monkeypatch.setattr(
            engine_module,
            "CODE_FORMAT_VERSION",
            engine_module.CODE_FORMAT_VERSION + 1,
        )
        assert cache_key(graph, machine) != before

    def test_profile_does_not_change_key(self, machine, corpus):
        """The execution profile scales the time model, not the schedule."""
        loop = corpus[0]
        twin = CorpusLoop(
            name=loop.name,
            graph=loop.graph,
            category=loop.category,
            entry_freq=loop.entry_freq + 5,
            loop_freq=loop.loop_freq * 2,
            executed=not loop.executed,
        )
        assert cache_key(loop, machine) == cache_key(twin, machine)


class TestPayloadRoundTrip:
    def test_round_trip_is_identity(self, machine, corpus):
        engine = EvaluationEngine(machine)
        evaluation = engine.evaluate_loop(corpus[0])
        payload = evaluation_to_dict(evaluation, machine)
        rebuilt = evaluation_from_dict(payload, corpus[0], machine)
        assert evaluation_to_dict(rebuilt, machine) == payload
        assert rebuilt.loop is corpus[0]
        assert rebuilt.ii == evaluation.ii
        assert rebuilt.exec_time == evaluation.exec_time

    def test_payload_holds_the_schedule_body_bound_to_the_live_graph(
        self, machine, corpus
    ):
        evaluation = EvaluationEngine(machine).evaluate_loop(corpus[0])
        assert evaluation.result.schedule.graph is corpus[0].graph
        payload = evaluation_to_dict(evaluation, machine)
        assert "graph" not in payload["schedule"]
        rebuilt = evaluation_from_dict(payload, corpus[0], machine)
        assert rebuilt.result.schedule.graph is corpus[0].graph

    def test_equal_machines_give_equal_keys(self, machine, corpus):
        """The key hashes the machine's content, not its identity."""
        first, second = (
            machine_from_dict(machine_to_dict(machine)) for _ in range(2)
        )
        assert first is not second
        assert cache_key(corpus[0], first) == cache_key(corpus[0], second)
        assert cache_key(corpus[0], first) == cache_key(corpus[0], machine)

    def test_json_round_trip_is_identity(self, machine, corpus):
        engine = EvaluationEngine(machine)
        evaluation = engine.evaluate_loop(corpus[1])
        payload = evaluation_to_dict(evaluation, machine)
        assert json.loads(json.dumps(payload)) == payload


class TestCache:
    def test_warm_cache_skips_all_work(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        cold = engine.evaluate(corpus)
        assert cold.hits == 0 and cold.misses == len(corpus)
        scheduled = [t.seconds.get("scheduling", 0.0) for t in cold.timings]
        assert sum(scheduled) > 0.0

        warm = engine.evaluate(corpus)
        assert warm.hits == len(corpus) and warm.misses == 0
        for timing in warm.timings:
            assert timing.cache_hit
            assert not {"mindist", "scheduling", "simulation"} & set(
                timing.seconds
            )

        canonical = lambda e: json.dumps(
            evaluation_to_dict(e, machine), sort_keys=True
        )
        assert list(map(canonical, warm.evaluations)) == list(
            map(canonical, cold.evaluations)
        )

    def test_cache_layout_is_content_addressed(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        engine.evaluate(corpus[:1])
        key = engine.key_for(corpus[0])
        path = engine.cache_path(key)
        assert path == tmp_path / "cache" / key[:2] / f"{key}.json"
        assert path.is_file()
        assert json.loads(path.read_text())["format"].startswith(
            "repro.loop-evaluation"
        )

    def test_corrupt_entry_is_a_miss(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        engine.evaluate(corpus[:1])
        key = engine.key_for(corpus[0])
        engine.cache_path(key).write_text("{not json")
        again = engine.evaluate(corpus[:1])
        assert again.hits == 0 and again.misses == 1
        assert again.ok

    def test_corruption_is_counted_and_entry_replaced(
        self, machine, corpus, tmp_path
    ):
        """A garbled entry ticks cache_corrupt and is rewritten clean."""
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        clean = engine.evaluate(corpus[:2])
        assert clean.cache_corrupt == 0
        key = engine.key_for(corpus[0])
        path = engine.cache_path(key)
        path.write_bytes(path.read_bytes()[:40])  # truncated mid-document
        again = engine.evaluate(corpus[:2])
        assert again.cache_corrupt == 1
        assert again.hits == 1 and again.misses == 1
        assert again.ok
        # The rewrite left a loadable entry behind.
        third = engine.evaluate(corpus[:2])
        assert third.hits == 2 and third.cache_corrupt == 0

    @pytest.mark.parametrize("damage", ["unknown alternative", "not utf-8"])
    def test_undecodable_entry_is_a_counted_miss(
        self, machine, corpus, tmp_path, damage
    ):
        """An entry that does not decode is corrupt, never fatal to the run."""
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        clean = engine.evaluate(corpus[:2])
        path = engine.cache_path(engine.key_for(corpus[0]))
        if damage == "unknown alternative":
            payload = json.loads(path.read_text())
            alternatives = payload["schedule"]["alternatives"]
            op = next(op for op, name in alternatives.items() if name)
            alternatives[op] = "no-such-alternative"
            path.write_text(json.dumps(payload))
        else:
            path.write_bytes(b"\xff\xfe" + path.read_bytes())
        again = engine.evaluate(corpus[:2])
        assert again.ok
        assert again.cache_corrupt == 1
        assert again.hits == 1 and again.misses == 1
        canonical = lambda result: [
            json.dumps(evaluation_to_dict(e, machine), sort_keys=True)
            for e in result.evaluations
        ]
        assert canonical(again) == canonical(clean)
        third = engine.evaluate(corpus[:2])
        assert third.hits == 2 and third.cache_corrupt == 0

    def test_foreign_document_is_counted_corrupt(
        self, machine, corpus, tmp_path
    ):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        engine.evaluate(corpus[:1])
        path = engine.cache_path(engine.key_for(corpus[0]))
        path.write_text(json.dumps({"format": "someone-elses-cache"}))
        again = engine.evaluate(corpus[:1])
        assert again.cache_corrupt == 1 and again.ok

    def test_no_cache_flag_bypasses_directory(
        self, machine, corpus, tmp_path, monkeypatch
    ):
        """``--no-cache`` is ``cache_dir=None``: the run writes no cache
        entry or quarantine file anywhere."""
        monkeypatch.chdir(tmp_path)
        engine = EvaluationEngine(machine, cache_dir=None)
        assert engine.quarantine_path is None
        result = engine.evaluate([*corpus[:2], _infeasible_loop(machine)])
        assert not result.cache_enabled and result.hits == 0
        assert "cache off" in result.describe()
        assert len(result.failures) == 1
        assert list(tmp_path.iterdir()) == []

    def test_config_change_invalidates(self, machine, corpus, tmp_path):
        cache = tmp_path / "cache"
        EvaluationEngine(machine, cache_dir=cache).evaluate(corpus)
        other = EvaluationEngine(
            machine, cache_dir=cache, budget_ratio=2.0
        ).evaluate(corpus)
        assert other.hits == 0 and other.misses == len(corpus)


class TestWorkerSideRun:
    """At jobs > 1 the workers inherit the corpus and the run's settings
    through the pool initializer, and each evaluating process writes its
    own cache entries."""

    def test_a_task_is_an_index_and_an_attempt(
        self, machine, corpus, monkeypatch
    ):
        sizes = []
        real_submit = ProcessPoolExecutor.submit

        def submit(self, fn, /, *args, **kwargs):
            sizes.append(len(pickle.dumps((fn, args, kwargs))))
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        result = EvaluationEngine(machine, jobs=2).evaluate(corpus)
        assert result.ok
        assert len(sizes) == len(corpus)
        assert max(sizes) < 256

    def test_workers_write_the_entries(
        self, machine, corpus, tmp_path, monkeypatch
    ):
        """No entry is written by the parent, and every entry holds the
        bytes a serial run writes.  The forked workers inherit the
        logging wrapper."""
        log = tmp_path / "writers.txt"
        real_write = engine_module.atomic_write

        def logged(path, text):
            with open(log, "a") as stream:
                stream.write(f"{os.getpid()}\n")
            real_write(path, text)

        monkeypatch.setattr(engine_module, "atomic_write", logged)
        pooled = EvaluationEngine(machine, jobs=2, cache_dir=tmp_path / "pool")
        assert pooled.evaluate(corpus).ok
        writers = log.read_text().split()
        assert len(writers) == len(corpus)
        assert str(os.getpid()) not in writers

        monkeypatch.setattr(engine_module, "atomic_write", real_write)
        serial = EvaluationEngine(
            machine, jobs=1, cache_dir=tmp_path / "serial"
        )
        assert serial.evaluate(corpus).ok
        for loop in corpus:
            key = serial.key_for(loop)
            assert (
                pooled.cache_path(key).read_bytes()
                == serial.cache_path(key).read_bytes()
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_write_leaves_the_loop_uncached(
        self, machine, corpus, tmp_path, monkeypatch, jobs
    ):
        """A write that raises ``OSError`` keeps the loop's evaluation and
        becomes a run diagnostic naming the loop."""

        def refuse(path, text):
            raise OSError(28, "No space left on device")

        clean = EvaluationEngine(machine).evaluate(corpus)
        monkeypatch.setattr(engine_module, "atomic_write", refuse)
        cache = tmp_path / "cache"
        result = EvaluationEngine(
            machine, jobs=jobs, cache_dir=cache
        ).evaluate(corpus)
        assert result.ok
        assert _bytes_of(result, machine) == _bytes_of(clean, machine)
        assert not list(cache.glob("??/*.json"))
        notes = [n for n in result.diagnostics if "cache write failed" in n]
        assert len(notes) == len(corpus)
        for loop in corpus:
            assert any(f"loop {loop.name} " in note for note in notes)


class TestFailureRecords:
    def test_infeasible_loop_becomes_failure_record(self, machine, corpus):
        mixed = [corpus[0], _infeasible_loop(machine), corpus[1]]
        result = EvaluationEngine(machine).evaluate(mixed)
        assert len(result.evaluations) == 2
        assert [e.loop.name for e in result.evaluations] == [
            corpus[0].name,
            corpus[1].name,
        ]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 1
        assert failure.loop_name == "infeasible"
        assert failure.phase == "mindist"
        assert failure.error_type == "GraphError"
        assert "zero-distance" in failure.message
        assert failure.traceback
        assert not result.ok

    def test_evaluate_corpus_surfaces_failures(self, machine, corpus):
        """A failed loop is a JSON-ready record beside the evaluations."""
        mixed = [_infeasible_loop(machine), corpus[0]]
        result = EvaluationEngine(machine).evaluate(mixed)
        assert len(result.evaluations) == 1
        records = json.loads(
            json.dumps([failure.to_dict() for failure in result.failures])
        )
        assert len(records) == 1
        assert records[0]["loop"] == "infeasible"
        assert records[0]["error_type"] == "GraphError"
        assert records[0]["kind"] == "deterministic"

    def test_failures_appear_in_timing_report(self, machine, corpus, tmp_path):
        """The run's timed record, its ``repro.obs.v2`` export, counts the
        failure and marks the failed loop's span."""
        obs = ObsContext()
        mixed = [_infeasible_loop(machine), corpus[0]]
        EvaluationEngine(machine, obs=obs).evaluate(mixed)
        path = write_jsonl(obs.to_dict(), tmp_path / "run.jsonl", run={})
        records = load_obs_records(path)
        assert export_counters(records)["engine.failures"] == 1
        failed = [
            r["attrs"] for r in records
            if r["type"] == "span" and r["name"] == "loop"
            and not r["attrs"]["ok"]
        ]
        assert len(failed) == 1
        assert failed[0]["loop"] == "infeasible"
        assert failed[0]["failed_phase"] == "mindist"
        assert failed[0]["kind"] == "deterministic"

    def test_parallel_failures_also_structured(self, machine, corpus):
        mixed = [corpus[0], _infeasible_loop(machine), corpus[1]]
        result = EvaluationEngine(machine, jobs=2).evaluate(mixed)
        assert len(result.evaluations) == 2
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "GraphError"

    def test_evaluate_loop_raises(self, machine):
        engine = EvaluationEngine(machine)
        with pytest.raises(RuntimeError, match="infeasible"):
            engine.evaluate_loop(_infeasible_loop(machine))


class TestTimingReport:
    """A run's timings: per loop on ``result.timings``, and for the whole
    run in its ``repro.obs.v2`` export."""

    def test_report_structure(self, machine, corpus, tmp_path):
        engine = EvaluationEngine(machine, cache_dir=tmp_path / "cache")
        result = engine.evaluate(corpus)
        assert [t.index for t in result.timings] == list(range(len(corpus)))
        assert [t.loop_name for t in result.timings] == [
            loop.name for loop in corpus
        ]
        timing = result.timings[0]
        assert timing.key == engine.key_for(corpus[0])
        assert not timing.cache_hit
        assert timing.seconds["total"] > 0.0

    def test_write_and_load_round_trip(self, machine, corpus, tmp_path):
        def run(name):
            obs = ObsContext()
            engine = EvaluationEngine(
                machine, cache_dir=tmp_path / "cache", obs=obs
            )
            engine.evaluate(corpus)
            path = write_jsonl(obs.to_dict(), tmp_path / name, run={})
            records = load_obs_records(path)
            (root,) = [
                r for r in records
                if r["type"] == "span" and r["name"] == "corpus.evaluate"
            ]
            return export_counters(records), root["dur"]

        cold, cold_seconds = run("cold.jsonl")
        warm, warm_seconds = run("warm.jsonl")
        assert cold["engine.cache.misses"] == len(corpus)
        assert warm["engine.cache.hits"] == len(corpus)
        assert warm["engine.cache.misses"] == 0
        assert cold_seconds / warm_seconds > 0.0

    def test_load_rejects_other_documents(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(ValueError):
            load_obs_records(path)
