"""The ObsContext: span nesting, the metrics registry, merge/absorb,
the PhaseTimer/Counters views, and the disabled-context cost contract."""

import json
import re
import timeit
from pathlib import Path

import pytest

from repro.core.stats import Counters
from repro.core.trace import PhaseTimer
from repro.obs import NULL_OBS, Histogram, MetricsRegistry, NullObsContext, ObsContext
from repro.obs.context import _NULL_METRIC, _NULL_SPAN


class TestSpans:
    def test_nesting_records_parent_chain(self):
        obs = ObsContext()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                with obs.span("leaf") as leaf:
                    pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id

    def test_spans_append_on_exit_innermost_first(self):
        obs = ObsContext()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            assert [s.name for s in obs.spans] == ["inner"]
        assert [s.name for s in obs.spans] == ["inner", "outer"]

    def test_siblings_share_a_parent(self):
        obs = ObsContext()
        with obs.span("parent") as parent:
            with obs.span("a") as a:
                pass
            with obs.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == parent.span_id

    def test_span_ids_are_unique(self):
        obs = ObsContext()
        for _ in range(5):
            with obs.span("x"):
                with obs.span("y"):
                    pass
        ids = [s.span_id for s in obs.spans]
        assert len(ids) == len(set(ids)) == 10

    def test_attrs_via_kwargs_and_set(self):
        obs = ObsContext()
        with obs.span("s", ii=13) as span:
            span.set("steps", 7)
        assert span.attrs == {"ii": 13, "steps": 7}

    def test_non_scalar_attr_rejected(self):
        obs = ObsContext()
        with obs.span("s") as span:
            with pytest.raises(TypeError, match="JSON scalar"):
                span.set("bad", [1, 2])

    def test_duration_charged_even_when_body_raises(self):
        obs = ObsContext()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError
        assert [s.name for s in obs.spans] == ["boom"]
        assert obs.spans[0].dur >= 0.0

    def test_snapshot_is_json_serializable(self):
        obs = ObsContext()
        with obs.span("a", graph="dot"):
            obs.counter("c").inc()
            obs.histogram("h").observe(3)
        json.dumps(obs.to_dict())  # must not raise


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.snapshot()["counters"] == {"c": 5}

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1)
        reg.gauge("g").set(9)
        assert reg.snapshot()["gauges"] == {"g": 9}

    def test_histogram_summary(self):
        hist = Histogram()
        for value in (4, 2, 9):
            hist.observe(value)
        assert hist.to_dict() == {"count": 3, "total": 15, "min": 2, "max": 9}

    def test_merge_sums_counters_and_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.histogram("h").observe(1)
        b.histogram("h").observe(10)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["histograms"]["h"] == {
            "count": 2, "total": 11, "min": 1, "max": 10,
        }

    def test_merge_is_order_independent(self):
        """The property the byte-identical-across-jobs guarantee rests on."""
        def registry(values):
            reg = MetricsRegistry()
            for v in values:
                reg.counter("c").inc(v)
                reg.histogram("h").observe(v)
            return reg

        parts = [registry([1, 5]), registry([3]), registry([2, 2])]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for part in parts:
            forward.merge(part.snapshot())
        for part in reversed(parts):
            backward.merge(part.snapshot())
        assert json.dumps(forward.snapshot(), sort_keys=True) == json.dumps(
            backward.snapshot(), sort_keys=True
        )

    def test_merging_empty_histogram_is_a_no_op(self):
        hist = Histogram()
        hist.observe(5)
        hist.merge(Histogram().to_dict())
        assert hist.to_dict() == {"count": 1, "total": 5, "min": 5, "max": 5}

    def test_snapshot_keys_are_sorted(self):
        reg = MetricsRegistry()
        for name in ("z", "a", "m"):
            reg.counter(name).inc()
        assert list(reg.snapshot()["counters"]) == ["a", "m", "z"]


class TestAbsorb:
    def _worker_snapshot(self):
        worker = ObsContext()
        with worker.span("loop", loop="dot") as loop:
            with worker.span("scheduling"):
                pass
            loop.set("ii", 3)
        worker.counter("sched.loops").inc()
        worker.histogram("loop.ops").observe(12)
        return worker.to_dict()

    def test_ids_remapped_without_collision(self):
        parent = ObsContext()
        with parent.span("corpus.evaluate") as root:
            pass
        parent.absorb(self._worker_snapshot(), parent=root)
        parent.absorb(self._worker_snapshot(), parent=root)
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids)) == 5

    def test_roots_reparented_and_labeled(self):
        parent = ObsContext()
        with parent.span("corpus.evaluate") as root:
            pass
        parent.absorb(self._worker_snapshot(), parent=root, index=7)
        by_name = {s.name: s for s in parent.spans if s.name != "corpus.evaluate"}
        loop, sched = by_name["loop"], by_name["scheduling"]
        assert loop.parent_id == root.span_id
        assert loop.attrs["index"] == 7 and loop.attrs["ii"] == 3
        assert sched.parent_id == loop.span_id  # child link preserved
        assert "index" not in sched.attrs  # extra attrs only on roots

    def test_absorb_under_currently_open_span(self):
        parent = ObsContext()
        with parent.span("corpus.evaluate") as root:
            parent.absorb(self._worker_snapshot())
        loop = next(s for s in parent.spans if s.name == "loop")
        assert loop.parent_id == root.span_id

    def test_absorb_merges_metrics(self):
        parent = ObsContext()
        parent.counter("sched.loops").inc()
        parent.absorb(self._worker_snapshot())
        snap = parent.metrics.snapshot()
        assert snap["counters"]["sched.loops"] == 2
        assert snap["histograms"]["loop.ops"]["count"] == 1

    def test_absorb_none_is_a_no_op(self):
        parent = ObsContext()
        parent.absorb(None)
        assert parent.spans == []

    def test_absorb_round_trips_through_json(self):
        """The corpus engine ships snapshots between processes as JSON."""
        snapshot = json.loads(json.dumps(self._worker_snapshot()))
        parent = ObsContext()
        parent.absorb(snapshot)
        assert {s.name for s in parent.spans} == {"loop", "scheduling"}


class TestViews:
    def test_timer_view_charges_and_traces(self):
        obs = ObsContext()
        timer = obs.timer()
        with timer.phase("mindist"):
            pass
        with timer.phase("mindist"):
            pass
        assert set(timer.seconds) == {"mindist"}
        assert [s.name for s in obs.spans] == ["mindist", "mindist"]
        assert isinstance(timer, PhaseTimer)

    def test_timer_view_nests_under_open_span(self):
        obs = ObsContext()
        timer = obs.timer()
        with obs.span("loop") as loop:
            with timer.phase("scheduling"):
                pass
        assert obs.spans[0].parent_id == loop.span_id

    def test_absorb_counters_lands_under_algo_prefix(self):
        counters = Counters(ops_scheduled=8, ops_forced=2)
        obs = ObsContext()
        obs.absorb_counters(counters)
        snap = obs.metrics.snapshot()["counters"]
        assert snap["algo.ops_scheduled"] == 8
        assert snap["algo.ops_forced"] == 2

    def test_documented_algo_metrics_are_counters_fields(self):
        """Every ``algo.<name>`` docs/OBSERVABILITY.md names is one
        ``absorb_counters`` emits: a :class:`Counters` field."""
        doc = (
            Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
        ).read_text()
        named = set(re.findall(r"\balgo\.([a-z_]+)", doc))
        assert named, "the metric inventory names no algo.* metric"
        fields = set(Counters().snapshot())
        assert named <= fields, sorted(named - fields)


class TestNullContext:
    def test_everything_returns_preallocated_singletons(self):
        obs = NullObsContext()
        assert obs.span("a") is obs.span("b") is _NULL_SPAN
        assert obs.counter("c") is obs.gauge("g") is _NULL_METRIC
        assert obs.histogram("h") is _NULL_METRIC
        assert not obs.enabled and NULL_OBS.enabled is False

    def test_null_span_is_an_inert_context_manager(self):
        with NULL_OBS.span("x", ii=3) as span:
            span.set("k", 1)
        NULL_OBS.counter("c").inc(5)
        NULL_OBS.gauge("g").set(2)
        NULL_OBS.histogram("h").observe(9)
        NULL_OBS.absorb_counters(Counters(ops_scheduled=3))
        NULL_OBS.absorb({"spans": [{"name": "x"}]})
        snapshot = NULL_OBS.to_dict()
        assert snapshot["spans"] == []
        assert snapshot["metrics"]["counters"] == {}

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with NULL_OBS.span("x"):
                raise ValueError

    def test_timer_is_a_plain_phase_timer(self):
        timer = NULL_OBS.timer()
        assert type(timer) is PhaseTimer
        with timer.phase("scheduling"):
            pass
        assert "scheduling" in timer.seconds

    def test_disabled_overhead_is_unmeasurable(self):
        """Acceptance criterion: with observability off, the instrumented
        hot path costs one attribute lookup and one call per site — no
        allocation, no branching.  Bound the *absolute* per-site cost
        (min over repeats, generous CI slack) rather than a flaky ratio.
        """
        obs = NULL_OBS
        span = obs.span  # the call sites cache nothing; measure the raw idiom

        def instrumented():
            counter = obs.counter("sched.loops")
            for _ in range(1000):
                with span("schedule.attempt", ii=3) as s:
                    s.set("steps", 7)
                    counter.inc()

        per_call = min(timeit.repeat(instrumented, number=10, repeat=5)) / 1e4
        # Three no-op method calls plus a with-block; anything close to
        # real work (allocation, dict writes, span bookkeeping) would sit
        # orders of magnitude above this bound.
        assert per_call < 20e-6, f"null-obs site costs {per_call * 1e6:.2f}us"

    def test_modulo_schedule_accepts_missing_and_null_obs(self):
        from repro.core import modulo_schedule
        from repro.machine import single_alu_machine
        from tests.conftest import chain_graph

        machine = single_alu_machine()
        graph = chain_graph(machine, ["fadd", "fmul"])
        default = modulo_schedule(graph, machine)
        explicit = modulo_schedule(graph, machine, obs=NULL_OBS)
        assert default.ii == explicit.ii
        assert default.schedule.times == explicit.schedule.times


class TestTracedScheduling:
    """The pipeline emits the spans/metrics the docs promise."""

    def test_schedule_spans_and_metrics(self):
        from repro.core import modulo_schedule
        from repro.machine import cydra5
        from repro.workloads import synthetic_graph

        machine = cydra5()
        graph = synthetic_graph(machine, seed=1)
        obs = ObsContext()
        result = modulo_schedule(graph, machine, obs=obs)
        names = {s.name for s in obs.spans}
        assert {"mii", "mii.res", "mii.rec", "schedule",
                "schedule.attempt"} <= names
        schedule_span = next(s for s in obs.spans if s.name == "schedule")
        assert schedule_span.attrs["ii"] == result.ii
        attempts = [s for s in obs.spans if s.name == "schedule.attempt"]
        assert attempts[-1].attrs["success"] is True
        assert all("budget" in s.attrs for s in attempts)
        snap = obs.metrics.snapshot()
        assert snap["counters"]["sched.loops"] == 1
        assert snap["histograms"]["sched.ii"]["max"] == result.ii

    def test_attempt_spans_follow_the_ii_search(self):
        from repro.core import modulo_schedule
        from repro.core.trace import ScheduleTrace
        from repro.machine import cydra5
        from repro.workloads import synthetic_graph

        machine = cydra5()
        graph = synthetic_graph(machine, seed=4)
        obs = ObsContext()
        trace = ScheduleTrace()
        modulo_schedule(graph, machine, trace=trace, obs=obs)
        span_iis = [
            s.attrs["ii"] for s in obs.spans if s.name == "schedule.attempt"
        ]
        assert span_iis == trace.attempts()
