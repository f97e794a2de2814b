"""Backend-conformance harness: every registered backend, one contract.

Each backend reachable through :func:`repro.backends.get_backend` must
produce deterministic, statically valid schedules with an II in the
documented bounds, emit observability spans and counters, and key the
result cache on its own name.  The suite is parametrized over
:func:`backend_names`, so registering a new backend automatically puts
it under contract.
"""

from __future__ import annotations

import pytest

from repro.analysis.engine import (
    cache_key,
    evaluation_from_dict,
    evaluation_to_dict,
)
from repro.analysis.runner import evaluate_loop
from repro.backends import IIPolicy, SchedulerBackend, backend_names, get_backend
from repro.check import check_schedule
from repro.core import compute_mii
from repro.core.scheduler import default_max_ii
from repro.ir import schedule_to_json
from repro.loopir import compile_loop_full
from repro.machine import cydra5
from repro.obs import ObsContext
from repro.workloads.corpus import CorpusLoop

_SOURCES = {
    "dot": "for i in n:\n    s = s + x[i] * y[i]\n",
    "daxpy": "for i in n:\n    y[i] = y[i] + a * x[i]\n",
    "clipped": (
        "for i in n:\n"
        "    t = a[i] * w + b[i+1]\n"
        "    if t > hi:\n"
        "        t = hi\n"
        "    s = s + t\n"
        "    c[i] = t\n"
    ),
}


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def graphs(machine):
    return {
        name: compile_loop_full(source, machine, name=name).graph
        for name, source in _SOURCES.items()
    }


@pytest.fixture(scope="module")
def loop(machine):
    lowered = compile_loop_full(_SOURCES["dot"], machine, name="dot")
    return CorpusLoop(
        name="dot",
        graph=lowered.graph,
        category="test",
        entry_freq=1,
        loop_freq=100,
        executed=True,
        lowered=lowered,
    )


def _backend(name):
    return get_backend(name)


class TestRegistry:
    def test_expected_backends_registered(self):
        assert {"exact", "ims", "list"} <= set(backend_names())

    def test_names_sorted_and_unique(self):
        names = backend_names()
        assert names == sorted(set(names))

    def test_unknown_backend_is_a_clean_error(self):
        with pytest.raises(ValueError, match="no-such-backend"):
            get_backend("no-such-backend")

    @pytest.mark.parametrize("name", backend_names())
    def test_instances_declare_capabilities(self, name):
        backend = _backend(name)
        assert isinstance(backend, SchedulerBackend)
        assert backend.name == name
        assert isinstance(backend.modulo, bool)
        assert isinstance(backend.proves_optimality, bool)


@pytest.mark.parametrize("name", backend_names())
class TestScheduleContract:
    def test_deterministic(self, name, machine, graphs):
        for graph in graphs.values():
            first = _backend(name).schedule(graph, machine, IIPolicy())
            second = _backend(name).schedule(graph, machine, IIPolicy())
            assert first.ii == second.ii
            assert schedule_to_json(
                first.schedule, machine
            ) == schedule_to_json(second.schedule, machine)

    def test_checker_finds_no_errors(self, name, machine, graphs):
        for graph in graphs.values():
            result = _backend(name).schedule(graph, machine, IIPolicy())
            diags = check_schedule(graph, machine, result.schedule)
            assert diags.ok, diags.render()

    def test_ii_within_bounds(self, name, machine, graphs):
        backend = _backend(name)
        for graph in graphs.values():
            mii = compute_mii(graph, machine, exact=True).mii
            result = backend.schedule(graph, machine, IIPolicy())
            assert result.ii >= mii
            if backend.modulo:
                assert result.ii <= default_max_ii(graph, mii)

    def test_result_is_attributed(self, name, machine, graphs):
        graph = graphs["dot"]
        result = _backend(name).schedule(graph, machine, IIPolicy())
        assert result.backend == name
        records = result.attempt_records
        assert records, "backends must report their attempt history"
        assert records[-1].success
        assert records[-1].ii == result.ii
        assert all(r.backend in backend_names() for r in records)

    def test_obs_spans_and_counters_emitted(self, name, machine, graphs):
        obs = ObsContext()
        _backend(name).schedule(graphs["dot"], machine, IIPolicy(), obs=obs)
        snapshot = obs.to_dict()
        assert any(
            span["name"].startswith("schedule") for span in snapshot["spans"]
        )
        counters = snapshot["metrics"]["counters"]
        assert any(
            counters.get(key, 0) >= 1
            for key in ("sched.loops", "exact.loops")
        )

    def test_optimality_claims_match_capability(self, name, machine, graphs):
        backend = _backend(name)
        for graph in graphs.values():
            mii = compute_mii(graph, machine, exact=True).mii
            result = backend.schedule(graph, machine, IIPolicy())
            if result.optimal:
                # A proven-minimal II at the MII needs no solver; above
                # it, only a proving backend may claim optimality.
                assert backend.proves_optimality or result.ii == mii


@pytest.mark.parametrize("name", backend_names())
class TestCacheAndPayload:
    def test_cache_key_depends_on_backend(self, name, machine, loop):
        key = cache_key(loop, machine, backend=name)
        others = [
            cache_key(loop, machine, backend=other)
            for other in backend_names()
            if other != name
        ]
        assert key not in others
        if name != "ims":
            assert key != cache_key(loop, machine)

    def test_payload_round_trips_backend_fields(self, name, machine, loop):
        evaluation = evaluate_loop(loop, machine, backend=name)
        payload = evaluation_to_dict(evaluation, machine)
        restored = evaluation_from_dict(payload, loop, machine)
        assert restored.backend == evaluation.backend == name
        assert restored.optimal == evaluation.optimal
        assert restored.result.attempt_records == (
            evaluation.result.attempt_records
        )
        assert restored.result.certificates == evaluation.result.certificates
        assert restored.ii == evaluation.ii
