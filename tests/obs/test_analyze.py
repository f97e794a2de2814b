"""Derived profiles and run-to-run diffing over the run store."""

import pytest

from repro.obs import ObsContext
from repro.obs.analyze import (
    TOP_KEYS,
    check_baseline,
    diff_runs,
    make_baseline,
    percentile,
    phase_profile,
    top_loops,
)
from repro.obs.schema import records_from_snapshot
from repro.obs.store import RunStore


def _snapshot(slow_loop=None, extra_failure=False, cache=(0, 2)):
    """A traced two-loop run; optionally inflate one loop's wall clock.

    The inflation widens the ``loop`` span without touching the nested
    phase spans — exactly the signature of the ``slow@i`` fault the
    diff's per-loop attribution has to catch.  ``extra_failure`` fails
    one loop the way the engine records it (its span names the failure
    kind); ``cache`` is the run's (hits, misses) counter pair.
    """
    obs = ObsContext()
    with obs.span("corpus.evaluate", loops=2):
        for idx, name in enumerate(("dot", "fir")):
            with obs.span("loop", loop=name, index=idx) as loop:
                with obs.span("scheduling", loop=name):
                    pass
                with obs.span("codegen", loop=name):
                    pass
                loop.set("ii", 4 + idx)
                if extra_failure and name == "fir":
                    loop.set("ok", False)
                    loop.set("failed_phase", "codegen")
                    loop.set("kind", "deterministic")
                else:
                    loop.set("ok", True)
    obs.counter("ops_scheduled").inc(50)
    obs.counter("engine.cache.hits").inc(cache[0])
    obs.counter("engine.cache.misses").inc(cache[1])
    snapshot = obs.to_dict()
    if slow_loop is not None:
        for span in snapshot["spans"]:
            if span["name"] == "loop" and span["attrs"].get("loop") == slow_loop:
                span["dur"] += 2.0
            if span["name"] == "corpus.evaluate":
                span["dur"] += 2.0
    return snapshot


def _ingest(store, snapshot):
    return store.ingest_records(records_from_snapshot(snapshot)).run_id


@pytest.fixture()
def store():
    with RunStore(":memory:") as s:
        yield s


class TestPercentile:
    def test_nearest_rank_on_known_data(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.00) == 100

    def test_single_value_is_every_percentile(self):
        for fraction in (0.01, 0.5, 0.99):
            assert percentile([7.0], fraction) == 7.0

    def test_unsorted_input_is_handled(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestPhaseProfile:
    def test_self_time_ranks_phases(self, store):
        run_id = _ingest(store, _snapshot())
        profile = phase_profile(store, run_id)
        names = [stat.name for stat in profile]
        assert set(names) >= {"corpus.evaluate", "loop", "scheduling"}
        # Every stat is internally consistent.
        for stat in profile:
            assert stat.count >= 1
            assert stat.self_total <= stat.total + 1e-9
            assert stat.p50 <= stat.p95 <= stat.p99 <= stat.max

    def test_sorted_by_self_time_descending(self, store):
        run_id = _ingest(store, _snapshot())
        profile = phase_profile(store, run_id)
        self_totals = [stat.self_total for stat in profile]
        assert self_totals == sorted(self_totals, reverse=True)


class TestTopLoops:
    def test_wall_ranking_puts_the_slow_loop_first(self, store):
        run_id = _ingest(store, _snapshot(slow_loop="fir"))
        ranked = top_loops(store, run_id, by="wall")
        assert ranked[0]["name"] == "fir"

    def test_every_advertised_key_works(self, store):
        run_id = _ingest(store, _snapshot())
        for key in TOP_KEYS:
            ranked = top_loops(store, run_id, by=key)
            assert isinstance(ranked, list)

    def test_unknown_key_raises(self, store):
        run_id = _ingest(store, _snapshot())
        with pytest.raises(ValueError, match="unknown attribution"):
            top_loops(store, run_id, by="charm")

    def test_n_truncates(self, store):
        run_id = _ingest(store, _snapshot())
        assert len(top_loops(store, run_id, by="wall", n=1)) == 1


class TestDiffRuns:
    def test_self_diff_is_clean(self, store):
        run_id = _ingest(store, _snapshot())
        diff = diff_runs(store, run_id, run_id)
        assert diff.clean
        assert diff.regressions == []
        assert diff.new_failure_kinds == []

    def test_twin_runs_diff_clean(self, store):
        # Two separate traces of the same workload: timing jitter only.
        a = _ingest(store, _snapshot())
        b = _ingest(store, _snapshot())
        diff = diff_runs(store, a, b)
        assert diff.clean

    def test_injected_slowdown_is_flagged_and_attributed(self, store):
        base = _ingest(store, _snapshot())
        slow = _ingest(store, _snapshot(slow_loop="fir"))
        diff = diff_runs(store, base, slow)
        assert not diff.clean
        regressed = {delta.name for delta in diff.regressions}
        assert "loop" in regressed
        # Attribution names the loop that moved, not just the phase.
        movers = [entry["loop"] for entry in diff.slower_loops]
        assert movers and movers[0] == "fir"
        assert diff.slower_loops[0]["delta"] == pytest.approx(2.0, abs=0.1)

    def test_improvement_is_report_only(self, store):
        slow = _ingest(store, _snapshot(slow_loop="fir"))
        fast = _ingest(store, _snapshot())
        diff = diff_runs(store, slow, fast)
        assert diff.clean  # faster is never a regression
        assert any(delta.name == "loop" for delta in diff.improvements)

    def test_new_failure_kind_always_regresses(self, store):
        base = _ingest(store, _snapshot())
        other = _ingest(store, _snapshot(extra_failure=True))
        diff = diff_runs(store, base, other)
        assert not diff.clean
        assert "deterministic" in diff.new_failure_kinds
        reverse = diff_runs(store, other, base)
        assert "deterministic" in reverse.vanished_failure_kinds
        assert reverse.clean  # vanished kinds never regress

    def test_cache_and_counter_deltas_are_informational(self, store):
        a = _ingest(store, _snapshot(cache=(0, 10)))
        b = _ingest(store, _snapshot(cache=(8, 2)))
        diff = diff_runs(store, a, b)
        assert diff.clean
        assert diff.cache_hit_rate["base"] == pytest.approx(0.0)
        assert diff.cache_hit_rate["other"] == pytest.approx(0.8)
        assert diff.counter_deltas == {
            "engine.cache.hits": 8, "engine.cache.misses": -8,
        }

    def test_noise_floor_suppresses_tiny_deltas(self, store):
        base = _ingest(store, _snapshot())
        other_snapshot = _snapshot()
        for span in other_snapshot["spans"]:
            if span["name"] == "codegen":
                span["dur"] += 0.001  # 1ms: below any sane floor
        other = _ingest(store, other_snapshot)
        strict = diff_runs(store, base, other, noise_floor=0.0,
                           noise_ratio=0.0)
        lenient = diff_runs(store, base, other)
        assert not strict.clean
        assert lenient.clean


class TestBaseline:
    def test_round_trip_is_clean(self, store):
        run_id = _ingest(store, _snapshot())
        baseline = make_baseline(store, run_id)
        assert baseline["format"] == "repro.obs.baseline.v1"
        assert check_baseline(store, run_id, baseline) == []

    def test_headroom_scales_budgets(self, store):
        run_id = _ingest(store, _snapshot())
        tight = make_baseline(store, run_id, headroom=1.0)
        loose = make_baseline(store, run_id, headroom=10.0)
        # Budgets are rounded to microsecond precision, so compare with
        # a matching absolute tolerance.
        for phase, budget in tight["per_loop_self_seconds"].items():
            assert loose["per_loop_self_seconds"][phase] == pytest.approx(
                budget * 10.0, abs=1e-5
            )

    def test_breach_is_reported(self, store):
        base = _ingest(store, _snapshot())
        baseline = make_baseline(store, base, headroom=1.0)
        slow = _ingest(store, _snapshot(slow_loop="fir"))
        breaches = check_baseline(store, slow, baseline)
        assert breaches
        assert any("loop" in b for b in breaches)

    def test_phases_absent_from_baseline_are_ignored(self, store):
        run_id = _ingest(store, _snapshot())
        baseline = make_baseline(store, run_id)
        baseline["per_loop_self_seconds"] = {"scheduling":
            baseline["per_loop_self_seconds"].get("scheduling", 1.0)}
        assert check_baseline(store, run_id, baseline) == []

    def test_wrong_format_is_itself_a_breach(self, store):
        run_id = _ingest(store, _snapshot())
        breaches = check_baseline(store, run_id, {"format": "nope"})
        assert breaches and "repro.obs.baseline.v1" in breaches[0]
