"""Fault-tolerant corpus execution, proved end to end by fault injection.

Every resilience mechanism is exercised against the real engine with
deterministic injected faults (:mod:`repro.analysis.faultinject`): the
cooperative/SIGALRM watchdog, the pool reaper, crash-isolated retries,
the degradation ladder, cache-corruption recovery, the cache as the
run's checkpoint and the quarantine.  The load-bearing property
throughout: after transient faults are retried away, results are
*bit-identical* to a clean run.
"""

from __future__ import annotations

import json
import os
import pickle
import time

import pytest

import repro.backends.ims as ims_module
from repro.analysis.engine import (
    RELAXED_BUDGET_RATIO,
    EvaluationEngine,
    LoopFailure,
    _WatchdogAlarm,
    evaluation_to_dict,
)
from repro.analysis.faultinject import (
    ExoticError,
    FaultPlan,
    FaultSpecError,
    InjectedTransientError,
    NULL_PLAN,
    parse_fault_spec,
)
from repro.analysis.resilience import (
    DETERMINISTIC,
    Deadline,
    DeadlineExceeded,
    RESOURCE,
    RetryPolicy,
    TRANSIENT,
    atomic_write,
    classify_failure,
    load_quarantine,
    write_quarantine,
)
from repro.core.mii import compute_mii
from repro.core.mindist import compute_mindist
from repro.core.scheduler import (
    AttemptRecord,
    SchedulingFailure,
    modulo_schedule,
)
from repro.loopir import compile_loop_full
from repro.machine import cydra5
from repro.obs.context import ObsContext
from repro.workloads import build_corpus
from repro.workloads.corpus import CorpusLoop
from repro.workloads.kernels import KERNELS


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    return build_corpus(machine, n_synthetic=4, seed=3, include_kernels=False)


def _out_of_budget(*iis):
    """The failure IMS raises after trying ``iis`` at a 9-step budget."""
    return SchedulingFailure(
        "out of budget",
        records=[AttemptRecord("ims", ii, False, 9, "budget") for ii in iis],
        budget=9,
    )


def _bytes_of(result, machine):
    """Canonical serialized records — the bit-identity yardstick."""
    return [
        json.dumps(evaluation_to_dict(e, machine), sort_keys=True)
        for e in result.evaluations
    ]


@pytest.fixture(scope="module")
def clean(machine, corpus):
    """A fault-free reference run (serial, no cache)."""
    result = EvaluationEngine(machine, fault_plan=NULL_PLAN).evaluate(corpus)
    assert result.ok
    return result


# ----------------------------------------------------------------------
# Policy units


def _expired_deadline():
    deadline = Deadline(1e-6)
    time.sleep(0.002)
    return deadline


class TestDeadline:
    def test_fresh_deadline_has_time(self):
        deadline = Deadline(60.0)
        assert not deadline.expired
        assert deadline.remaining() > 0
        deadline.check("anywhere")  # no raise

    def test_expired_deadline_raises_with_location(self):
        deadline = _expired_deadline()
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="mindist"):
            deadline.check("mindist")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_threads_through_mindist(self, machine, corpus):
        graph = corpus[0].graph
        with pytest.raises(DeadlineExceeded):
            compute_mindist(graph, 1, deadline=_expired_deadline())

    def test_threads_through_modulo_schedule(self, machine, corpus):
        with pytest.raises(DeadlineExceeded):
            modulo_schedule(
                corpus[0].graph, machine, deadline=_expired_deadline()
            )

    def test_watchdog_alarm_backstop(self):
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded, match="SIGALRM"):
            with _WatchdogAlarm(0.05):
                time.sleep(5.0)
        assert time.monotonic() - started < 2.0


class TestTaxonomy:
    @pytest.mark.parametrize(
        "error_type,kind",
        [
            ("WorkerCrash", TRANSIENT),
            ("WorkerHang", TRANSIENT),
            ("BrokenProcessPool", TRANSIENT),
            ("InjectedTransientError", TRANSIENT),
            ("DeadlineExceeded", RESOURCE),
            ("MemoryError", RESOURCE),
            ("GraphError", DETERMINISTIC),
            ("SchedulingFailure", DETERMINISTIC),
            ("VerificationError", DETERMINISTIC),
            ("NeverHeardOfThisError", DETERMINISTIC),
        ],
    )
    def test_classification(self, error_type, kind):
        assert classify_failure(error_type) == kind

    def test_deterministic_failures_never_retry(self):
        policy = RetryPolicy(max_retries=5)
        assert not policy.should_retry(DETERMINISTIC, 0)
        assert policy.should_retry(TRANSIENT, 0)
        assert policy.should_retry(RESOURCE, 4)
        assert not policy.should_retry(TRANSIENT, 5)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)


class TestFaultSpec:
    def test_round_trips(self):
        plan = parse_fault_spec("crash@3;hang@5:60;raise@4:exotic!;corrupt@2")
        assert plan.spec() == "crash@3;hang@5:60;raise@4:exotic!;corrupt@2"
        assert plan.corrupts_cache(2) and not plan.corrupts_cache(3)
        assert [d.kind for d in plan.for_loop(3)] == ["crash"]
        assert plan.for_loop(2) == ()  # corrupt is engine-side

    def test_transient_fires_on_first_attempt_only(self):
        directive = parse_fault_spec("crash@0").directives[0]
        assert directive.fires(0) and not directive.fires(1)
        persistent = parse_fault_spec("crash@0!").directives[0]
        assert persistent.fires(0) and persistent.fires(7)

    @pytest.mark.parametrize(
        "bad", ["wedge@1", "crash", "crash@x", "raise@1:NoSuchError"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_from_env(self):
        plan = FaultPlan.from_env({"REPRO_FAULT_INJECT": "slow@1:0.5"})
        assert plan and plan.directives[0].kind == "slow"
        assert not FaultPlan.from_env({})


class TestDurableWrites:
    def test_fsync_precedes_rename(
        self, machine, corpus, tmp_path, monkeypatch
    ):
        """Cache entries and quarantine.json share one writer, which
        fsyncs the temp file before renaming it into place."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, os.fspath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        engine = EvaluationEngine(
            machine, cache_dir=tmp_path / "cache", fault_plan=NULL_PLAN
        )
        engine.evaluate(corpus[:2])

        renamed = [event for event in events if event[0] == "replace"]
        assert sorted(event[2] for event in renamed) == sorted(
            [str(engine.cache_path(engine.key_for(loop)))
             for loop in corpus[:2]]
            + [str(engine.quarantine_path)]
        )
        for position, event in enumerate(events):
            if event[0] == "replace":
                assert ("fsync", event[1]) in events[:position], event

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "entry.json"
        atomic_write(path, "old")

        def interrupted(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "fsync", interrupted)
        with pytest.raises(KeyboardInterrupt):
            atomic_write(path, "new")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


class TestQuarantine:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "quarantine.json"
        entries = [{"loop": "bad", "kind": DETERMINISTIC, "detail": {}}]
        write_quarantine(path, "cydra5", entries)
        assert load_quarantine(path) == entries

    def test_written_even_when_empty(self, tmp_path):
        path = write_quarantine(tmp_path / "q.json", "cydra5", [])
        assert load_quarantine(path) == []

    def test_foreign_document_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_quarantine(path)


class TestFailurePickling:
    def test_scheduling_failure_survives_pickle(self):
        failure = SchedulingFailure(
            "no schedule",
            records=[
                AttemptRecord("ims", 4, False, 60, "budget"),
                AttemptRecord("ims", 5, False, 60, "budget"),
                AttemptRecord("ims", 6, False, 12, "budget"),
            ],
            budget=60,
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.records == failure.records
        assert clone.attempted_iis == [4, 5, 6]
        assert clone.steps_by_ii == {4: 60, 5: 60, 6: 12}
        assert clone.detail()["budget_per_ii"] == 60
        assert clone.detail()["steps_total"] == 132
        assert clone.detail()["attempted_iis"] == [4, 5, 6]

    def test_loop_failure_record_survives_pickle(self):
        failure = LoopFailure(
            index=3, loop_name="l", phase="scheduling",
            error_type="ExoticError", message="exotic failure code=13",
            kind=DETERMINISTIC, attempts=1, detail={"code": 13},
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone == failure

    def test_exotic_error_itself_refuses_pickle(self):
        with pytest.raises(TypeError):
            pickle.dumps(ExoticError(13, {}))


# ----------------------------------------------------------------------
# End-to-end fault injection


class TestTransientRetries:
    def test_serial_transient_is_retried_to_identical_result(
        self, machine, corpus, clean
    ):
        engine = EvaluationEngine(
            machine, fault_plan=parse_fault_spec("raise@1:transient")
        )
        result = engine.evaluate(corpus)
        assert result.ok
        assert result.retries == 1
        assert _bytes_of(result, machine) == _bytes_of(clean, machine)
        assert result.counters.snapshot() == clean.counters.snapshot()

    def test_serial_crash_analogue_is_recoverable(
        self, machine, corpus, clean
    ):
        # In-process a crash degrades to a transient exception (killing
        # the caller would defeat the harness); still retried away.
        engine = EvaluationEngine(
            machine, fault_plan=parse_fault_spec("crash@0")
        )
        result = engine.evaluate(corpus)
        assert result.ok and result.retries == 1
        assert _bytes_of(result, machine) == _bytes_of(clean, machine)

    def test_pool_crash_is_salvaged_and_retried(
        self, machine, corpus, clean
    ):
        engine = EvaluationEngine(
            machine, jobs=2, fault_plan=parse_fault_spec("crash@1")
        )
        result = engine.evaluate(corpus)
        assert result.ok
        assert result.crashes >= 1 and result.retries >= 1
        assert any("pool broke" in note for note in result.diagnostics)
        assert _bytes_of(result, machine) == _bytes_of(clean, machine)

    def test_retry_budget_exhaustion_quarantines(
        self, machine, corpus, tmp_path
    ):
        quarantine = tmp_path / "quarantine.json"
        engine = EvaluationEngine(
            machine,
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            quarantine_path=quarantine,
            fault_plan=parse_fault_spec("raise@2:transient!"),
        )
        result = engine.evaluate(corpus)
        assert not result.ok and len(result.failures) == 1
        failure = result.failures[0]
        assert failure.kind == TRANSIENT
        assert failure.attempts == 2  # original + one retry
        assert result.quarantined == 1
        entries = load_quarantine(quarantine)
        assert entries[0]["loop"] == corpus[2].name
        assert entries[0]["attempts"] == 2

    def test_no_quarantine_file_quarantines_nothing(self, machine):
        """``quarantined`` counts the loops written to quarantine.json:
        with no file (no cache, no path) the result and the export agree
        on zero, however many loops a crash took down."""
        corpus = build_corpus(
            machine, n_synthetic=20, seed=5, include_kernels=False
        )
        obs = ObsContext()
        engine = EvaluationEngine(
            machine,
            jobs=2,
            obs=obs,
            retry_policy=RetryPolicy(max_retries=0),
            fault_plan=parse_fault_spec("crash@3"),
        )
        assert engine.quarantine_path is None
        result = engine.evaluate(corpus)
        assert result.crashes and result.failures
        assert result.quarantined == 0
        counters = obs.metrics.snapshot()["counters"]
        assert "resilience.quarantined" not in counters

    def test_deterministic_failure_is_never_retried(
        self, machine, corpus, tmp_path
    ):
        engine = EvaluationEngine(
            machine,
            quarantine_path=tmp_path / "q.json",
            fault_plan=parse_fault_spec("raise@0:ValueError!"),
        )
        result = engine.evaluate(corpus)
        assert result.retries == 0
        assert result.failures[0].kind == DETERMINISTIC
        assert result.failures[0].attempts == 1

    def test_exotic_exception_cannot_poison_the_pool(
        self, machine, corpus
    ):
        # ExoticError's instances refuse to pickle; the worker must
        # reduce it to a structured record before it rides back.
        engine = EvaluationEngine(
            machine, jobs=2, fault_plan=parse_fault_spec("raise@0:exotic!")
        )
        result = engine.evaluate(corpus)
        assert len(result.evaluations) == len(corpus) - 1
        failure = result.failures[0]
        assert failure.error_type == "ExoticError"
        assert "exotic failure code=13" in failure.message
        assert failure.kind == DETERMINISTIC


class TestWatchdogAndReaper:
    def test_slow_loop_times_out_and_retry_succeeds(
        self, machine, corpus, clean
    ):
        engine = EvaluationEngine(
            machine,
            loop_timeout=0.2,
            degrade=False,
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            fault_plan=parse_fault_spec("slow@0:5"),
        )
        result = engine.evaluate(corpus)
        assert result.ok
        assert result.timeouts == 1 and result.retries == 1
        assert _bytes_of(result, machine) == _bytes_of(clean, machine)

    @pytest.mark.parametrize("retries", [0, 1])
    def test_memory_error_is_not_a_timeout(self, machine, corpus, retries):
        obs = ObsContext()
        engine = EvaluationEngine(
            machine,
            obs=obs,
            retry_policy=RetryPolicy(max_retries=retries, backoff_base=0.0),
            fault_plan=parse_fault_spec("raise@0:MemoryError"),
        )
        result = engine.evaluate(corpus[:3])
        assert result.timeouts == 0 and result.retries == retries
        assert "resilience.timeouts" not in obs.metrics.snapshot()["counters"]
        if retries:
            assert result.ok
        else:
            (failure,) = result.failures
            assert failure.error_type == "MemoryError"
            assert failure.kind == RESOURCE

    def test_repeated_memory_error_is_retried_then_quarantined(
        self, machine, corpus, tmp_path
    ):
        engine = EvaluationEngine(
            machine,
            quarantine_path=tmp_path / "quarantine.json",
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            fault_plan=parse_fault_spec("raise@0:MemoryError!"),
        )
        result = engine.evaluate(corpus[:3])
        (failure,) = result.failures
        assert failure.kind == RESOURCE and failure.attempts == 2
        assert result.retries == 1 and result.quarantined == 1
        assert result.timeouts == 0

    def test_hung_worker_is_reaped_and_loop_retried(
        self, machine, corpus, clean
    ):
        # The injected hang ignores SIGALRM, so only the pool-side
        # reaper can recover the worker.
        engine = EvaluationEngine(
            machine,
            jobs=2,
            loop_timeout=0.2,
            reap_after=1.0,
            retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
            fault_plan=parse_fault_spec("hang@1:30"),
        )
        started = time.monotonic()
        result = engine.evaluate(corpus)
        assert time.monotonic() - started < 25.0
        assert result.ok
        assert result.reaped >= 1
        assert any("reaper" in note for note in result.diagnostics)
        assert _bytes_of(result, machine) == _bytes_of(clean, machine)


class TestDegradationLadder:
    def test_deadline_exhaustion_degrades_to_relaxed_ims(
        self, machine, corpus
    ):
        engine = EvaluationEngine(
            machine,
            loop_timeout=0.2,
            retry_policy=RetryPolicy(max_retries=0),
            fault_plan=parse_fault_spec("slow@0:5!"),
        )
        result = engine.evaluate(corpus)
        assert result.ok
        assert result.degraded == 1
        evaluation = result.evaluations[0]
        assert evaluation.degraded
        assert evaluation.degradation_level == 1
        assert evaluation.degradation["name"] == "relaxed-ims"
        assert evaluation.degradation["reason"] == "DeadlineExceeded"
        # A legal (if worse) modulo schedule was still produced.
        assert evaluation.ii >= 1

    def test_deadline_degradation_is_not_cached(
        self, machine, corpus, tmp_path
    ):
        engine = EvaluationEngine(
            machine,
            cache_dir=tmp_path / "cache",
            loop_timeout=0.2,
            retry_policy=RetryPolicy(max_retries=0),
            fault_plan=parse_fault_spec("slow@0:5!"),
        )
        first = engine.evaluate(corpus)
        assert first.degraded == 1
        # Wall-clock outcomes must not be resurrected: the degraded
        # loop misses again, the clean loops hit.
        second = engine.evaluate(corpus)
        assert second.hits == len(corpus) - 1
        assert second.misses == 1

    def test_budget_exhaustion_walks_to_list_fallback(
        self, machine, corpus, tmp_path, monkeypatch
    ):
        calls = {"n": 0}
        real = ims_module.modulo_schedule

        def always_out_of_budget(graph, machine_, **kwargs):
            calls["n"] += 1
            raise _out_of_budget(2, 3)

        monkeypatch.setattr(
            ims_module, "modulo_schedule", always_out_of_budget
        )
        engine = EvaluationEngine(
            machine, cache_dir=tmp_path / "cache", fault_plan=NULL_PLAN
        )
        result = engine.evaluate(corpus[:1])
        assert result.ok and result.degraded == 1
        evaluation = result.evaluations[0]
        assert evaluation.degradation_level == 2
        assert evaluation.degradation["name"] == "list-fallback"
        assert evaluation.degradation["reason"] == "SchedulingFailure"
        assert evaluation.degradation["detail"]["attempted_iis"] == [2, 3]
        assert evaluation.degradation["detail"]["budget_per_ii"] == 9
        # A smaller budget cannot succeed where this one failed, so the
        # relaxed rung is skipped.
        assert "relaxed_error" not in evaluation.degradation
        assert calls["n"] == 1
        # The list rung is the list backend's own result.
        assert evaluation.result.backend == "list"
        assert evaluation.result.attempts == 1
        assert evaluation.result.budget_ratio == engine.budget_ratio
        # Budget exhaustion is deterministic, so the fallback is cached.
        monkeypatch.setattr(ims_module, "modulo_schedule", real)
        warm = engine.evaluate(corpus[:1])
        assert warm.hits == 1
        assert warm.evaluations[0].degradation_level == 2

    def test_failed_rung_keeps_its_reasons(
        self, machine, corpus, monkeypatch
    ):
        """The ladder puts IMS's own records in the payload: a dead II
        (0 steps) stays ``infeasible``, not ``budget``."""
        failure = SchedulingFailure(
            "no schedule",
            records=[
                AttemptRecord("ims", 2, False, 9, "budget"),
                AttemptRecord("ims", 3, False, 0, "infeasible"),
            ],
            budget=9,
        )

        def dead_ii(graph, machine_, **kwargs):
            raise failure

        monkeypatch.setattr(ims_module, "modulo_schedule", dead_ii)
        result = EvaluationEngine(machine, fault_plan=NULL_PLAN).evaluate(
            corpus[:1]
        )
        assert result.ok and result.degraded == 1
        evaluation = result.evaluations[0]
        records = evaluation_to_dict(evaluation, machine)["search"][
            "attempt_records"
        ]
        assert records[:2] == [r.to_dict() for r in failure.records]
        assert [r["backend"] for r in records] == ["ims", "ims", "list"]
        assert evaluation.degradation["detail"] == failure.detail()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadline_before_the_mii_degrades_a_recurrence_bound_loop(
        self, machine, jobs
    ):
        """A deadline that fires before the MII search ends leaves the
        relaxed rung only the ResMII as its seed.  Below the RecMII,
        HeightR rejects it, and the loop falls to the list rung instead
        of failing."""
        name = "abs_sum_signs"
        lowered = compile_loop_full(KERNELS[name].source, machine, name=name)
        mii = compute_mii(lowered.graph, machine)
        assert mii.rec_mii > mii.res_mii
        loop = CorpusLoop(
            name=name,
            graph=lowered.graph,
            category=KERNELS[name].category,
            entry_freq=1,
            loop_freq=100,
            executed=True,
            lowered=lowered,
        )
        engine = EvaluationEngine(
            machine,
            jobs=jobs,
            loop_timeout=0.2,
            retry_policy=RetryPolicy(max_retries=0),
            fault_plan=parse_fault_spec("slow@0:5!"),
        )
        result = engine.evaluate([loop])
        assert result.ok, [f.describe() for f in result.failures]
        assert result.degraded == 1
        evaluation = result.evaluations[0]
        assert evaluation.degradation["reason"] == "DeadlineExceeded"
        assert evaluation.degradation["name"] == "list-fallback"
        assert evaluation.degradation["relaxed_error"].startswith(
            "GraphError: "
        )
        assert not evaluation.mii_result.rec_mii_exact
        assert [r.backend for r in evaluation.result.attempt_records] == [
            "list"
        ]

    def test_no_degrade_surfaces_budget_detail(
        self, machine, corpus, monkeypatch
    ):
        def always_out_of_budget(graph, machine_, **kwargs):
            raise _out_of_budget(2)

        monkeypatch.setattr(
            ims_module, "modulo_schedule", always_out_of_budget
        )
        engine = EvaluationEngine(machine, degrade=False, fault_plan=NULL_PLAN)
        result = engine.evaluate(corpus[:1])
        assert not result.ok
        failure = result.failures[0]
        assert failure.error_type == "SchedulingFailure"
        assert failure.kind == DETERMINISTIC
        assert failure.detail["attempted_iis"] == [2]
        assert failure.detail["budget_per_ii"] == 9


class TestCorruptionInjection:
    def test_injected_corruption_is_recovered_next_run(
        self, machine, corpus, tmp_path, clean
    ):
        cache = tmp_path / "cache"
        poisoned = EvaluationEngine(
            machine, cache_dir=cache,
            fault_plan=parse_fault_spec("corrupt@0"),
        )
        first = poisoned.evaluate(corpus)
        assert first.ok and first.cache_corrupt == 0

        healthy = EvaluationEngine(machine, cache_dir=cache,
                                   fault_plan=NULL_PLAN)
        second = healthy.evaluate(corpus)
        assert second.cache_corrupt == 1
        assert second.hits == len(corpus) - 1 and second.misses == 1
        assert second.ok
        assert _bytes_of(second, machine) == _bytes_of(clean, machine)


class TestCacheCheckpoint:
    def test_rerun_after_interrupt_hits_finished_loops(
        self, machine, corpus, tmp_path, monkeypatch, clean
    ):
        """A Ctrl-C on the third loop keeps the two loops finished before
        it; re-running the same engine over the cache hits them and
        evaluates the rest, and the results match an uninterrupted run."""
        real = ims_module.modulo_schedule
        calls = []

        def interrupt_third(graph, machine_, **kwargs):
            calls.append(graph.name)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(graph, machine_, **kwargs)

        monkeypatch.setattr(ims_module, "modulo_schedule", interrupt_third)
        cache = tmp_path / "cache"
        engine = EvaluationEngine(
            machine, cache_dir=cache, fault_plan=NULL_PLAN
        )
        with pytest.raises(KeyboardInterrupt):
            engine.evaluate(corpus)
        assert len(list(cache.glob("??/*.json"))) == 2
        assert not list(cache.glob("??/*.tmp"))

        monkeypatch.setattr(ims_module, "modulo_schedule", real)
        rerun = engine.evaluate(corpus)
        assert rerun.ok
        assert rerun.hits == 2 and rerun.misses == len(corpus) - 2
        assert [t.cache_hit for t in rerun.timings] == (
            [True, True] + [False] * (len(corpus) - 2)
        )
        assert _bytes_of(rerun, machine) == _bytes_of(clean, machine)

    def test_leftover_journal_is_ignored(
        self, machine, corpus, tmp_path, clean
    ):
        """Older builds kept a checkpoint journal in the cache directory;
        a run over such a directory neither reads nor touches it."""
        cache = tmp_path / "cache"
        cache.mkdir()
        journal = cache / "journal.jsonl"
        journal.write_text(json.dumps(
            {"format": "repro.journal.v1", "key": "k", "index": 0,
             "loop": corpus[0].name, "ok": True, "payload": {}}
        ) + "\n")
        before = journal.read_bytes()
        result = EvaluationEngine(
            machine, cache_dir=cache, fault_plan=NULL_PLAN
        ).evaluate(corpus)
        assert result.ok and result.misses == len(corpus)
        assert result.cache_corrupt == 0 and not result.diagnostics
        assert journal.read_bytes() == before
        assert _bytes_of(result, machine) == _bytes_of(clean, machine)


class TestObsIdentityUnderFaults:
    def test_metrics_identical_after_transient_retry(self, machine, corpus):
        def run(plan):
            obs = ObsContext()
            EvaluationEngine(machine, obs=obs, fault_plan=plan).evaluate(
                corpus
            )
            return obs.metrics.snapshot()

        clean = run(NULL_PLAN)
        faulted = run(parse_fault_spec("raise@1:transient"))
        assert "resilience.retries" in faulted["counters"]
        for kind in ("counters", "gauges", "histograms"):
            filtered = {
                name: value
                for name, value in faulted[kind].items()
                if not name.startswith("resilience.")
            }
            assert filtered == clean[kind]

    def test_clean_run_has_no_resilience_metrics(self, machine, corpus):
        obs = ObsContext()
        EvaluationEngine(machine, obs=obs, fault_plan=NULL_PLAN).evaluate(
            corpus
        )
        names = list(obs.metrics.snapshot()["counters"])
        assert not [n for n in names if n.startswith("resilience.")]
        assert "cache.corrupt" not in names


class TestCli:
    def test_corpus_resilience_flags(self, machine, tmp_path, capsys):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            [
                "corpus", "--loops", "4", "--seed", "3", "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--loop-timeout", "60", "--retries", "1",
            ],
            out=out,
        )
        assert code == 0
        assert "engine:" in out.getvalue()
        assert (tmp_path / "cache" / "quarantine.json").is_file()
        assert not (tmp_path / "cache" / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "flags", [["--resume"], ["--journal", "j.jsonl"]],
        ids=["resume", "journal"],
    )
    def test_corpus_rejects_resume_and_journal(self, flags, capsys):
        import io

        from repro.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(["corpus", "--loops", "4", *flags], out=io.StringIO())
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestAttemptMetadataNormalization:
    """The ladder records *which backend* tried every candidate II.

    Before attempt records were normalized, a degraded payload only
    said "list-fallback" at the top level — the cache entry could not
    tell which rung (full IMS, relaxed IMS, list) produced which candidate
    II.  Every rung now contributes AttemptRecords naming its backend,
    concatenated in ladder order, and they survive the cache payload.
    """

    def _out_of_budget(self, graph, machine_, **kwargs):
        raise _out_of_budget(2, 3)

    def test_every_rung_names_its_backend(
        self, machine, corpus, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            ims_module, "modulo_schedule", self._out_of_budget
        )
        engine = EvaluationEngine(
            machine, cache_dir=tmp_path / "cache", fault_plan=NULL_PLAN
        )
        result = engine.evaluate(corpus[:1])
        assert result.ok and result.degraded == 1
        evaluation = result.evaluations[0]
        assert evaluation.backend == "list"
        assert evaluation.degradation["backend"] == "list"
        records = evaluation.result.attempt_records
        # Rung 0 (full IMS) tried IIs 2 and 3; a budget failure goes
        # straight to the list rung: three records, ladder order.
        assert [r.backend for r in records] == ["ims"] * 2 + ["list"]
        assert [r.success for r in records] == [False] * 2 + [True]
        assert [r.ii for r in records[:2]] == [2, 3]
        assert all(r.reason == "budget" for r in records[:2])
        assert records[-1].reason == "scheduled"
        assert records[-1].ii == evaluation.ii

    def test_cache_entry_keeps_the_records(
        self, machine, corpus, tmp_path, monkeypatch
    ):
        real = ims_module.modulo_schedule
        monkeypatch.setattr(
            ims_module, "modulo_schedule", self._out_of_budget
        )
        engine = EvaluationEngine(
            machine, cache_dir=tmp_path / "cache", fault_plan=NULL_PLAN
        )
        cold = engine.evaluate(corpus[:1])
        records = cold.evaluations[0].result.attempt_records

        # The cache entry's payload carries the same normalized records.
        entry = engine.cache_path(engine.key_for(corpus[0]))
        search = json.loads(entry.read_text())["search"]
        assert search["backend"] == "list"
        assert [r["backend"] for r in search["attempt_records"]] == (
            ["ims"] * 2 + ["list"]
        )

        # A warm cache hit restores them bit-for-bit.
        monkeypatch.setattr(ims_module, "modulo_schedule", real)
        warm = engine.evaluate(corpus[:1])
        assert warm.hits == 1
        assert warm.evaluations[0].result.attempt_records == records
        assert warm.evaluations[0].degradation["backend"] == "list"

    def test_relaxed_rung_is_attributed_to_ims(
        self, machine, corpus, monkeypatch
    ):
        real = ims_module.modulo_schedule
        calls = {"n": 0}

        def first_call_times_out(graph, machine_, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DeadlineExceeded("injected deadline")
            return real(graph, machine_, **kwargs)

        monkeypatch.setattr(
            ims_module, "modulo_schedule", first_call_times_out
        )
        engine = EvaluationEngine(machine, fault_plan=NULL_PLAN)
        result = engine.evaluate(corpus[:1])
        assert result.ok and result.degraded == 1
        assert calls["n"] == 2
        evaluation = result.evaluations[0]
        assert evaluation.degradation["reason"] == "DeadlineExceeded"
        assert evaluation.degradation["name"] == "relaxed-ims"
        assert evaluation.degradation["backend"] == "ims"
        # A deadline carries no records: the relaxed IMS run's own are
        # the payload's, each attributed to IMS, the last one a success.
        records = evaluation.result.attempt_records
        relaxed = real(
            corpus[0].graph, machine, budget_ratio=RELAXED_BUDGET_RATIO
        )
        assert records == relaxed.attempt_records
        assert all(r.backend == "ims" for r in records)
        assert records[-1].success
