"""Property tests: serialization round trips over random inputs."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.check import check_schedule
from repro.core import compute_mii, modulo_schedule
from repro.ir import (
    graph_from_json,
    graph_to_json,
    schedule_from_json,
    schedule_to_json,
)
from repro.machine import cydra5
from repro.workloads import synthetic_graph

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRoundTripProperties:
    @given(st.integers(min_value=0, max_value=5000))
    @_SETTINGS
    def test_graph_round_trip_preserves_structure(self, seed):
        machine = cydra5()
        graph = synthetic_graph(machine, seed=seed)
        clone = graph_from_json(graph_to_json(graph), machine)
        assert clone.describe() == graph.describe()

    @given(st.integers(min_value=0, max_value=5000))
    @_SETTINGS
    def test_round_trip_preserves_mii(self, seed):
        machine = cydra5()
        graph = synthetic_graph(machine, seed=seed)
        clone = graph_from_json(graph_to_json(graph), machine)
        assert (
            compute_mii(clone, machine).mii == compute_mii(graph, machine).mii
        )

    @given(st.integers(min_value=0, max_value=1000))
    @_SETTINGS
    def test_schedule_round_trip_stays_valid(self, seed):
        machine = cydra5()
        graph = synthetic_graph(machine, seed=seed)
        result = modulo_schedule(graph, machine, budget_ratio=6.0)
        clone = schedule_from_json(
            schedule_to_json(result.schedule, machine), machine
        )
        assert clone.times == result.schedule.times
        assert not check_schedule(clone.graph, machine, clone).errors

    @given(st.integers(min_value=0, max_value=5000))
    @_SETTINGS
    def test_double_round_trip_is_fixed_point(self, seed):
        machine = cydra5()
        graph = synthetic_graph(machine, seed=seed)
        once = graph_to_json(graph)
        twice = graph_to_json(graph_from_json(once, machine))
        assert once == twice
