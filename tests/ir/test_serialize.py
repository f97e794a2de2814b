"""Graph and schedule serialization round trips."""

import json

import pytest

from repro.check import check_schedule
from repro.core import modulo_schedule
from repro.ir import (
    DependenceGraph,
    GraphError,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    schedule_from_json,
    schedule_to_json,
)
from repro.loopir import compile_loop_full
from repro.machine import cydra5, single_alu_machine
from repro.simulator import check_equivalence
from repro.workloads import synthetic_graph

from tests.conftest import chain_graph, reduction_graph


@pytest.fixture
def alu():
    return single_alu_machine()


class TestGraphRoundTrip:
    def test_structure_preserved(self, alu):
        graph = reduction_graph(alu)
        clone = graph_from_dict(graph_to_dict(graph), alu)
        assert clone.describe() == graph.describe()

    def test_json_text_round_trip(self, alu):
        graph = chain_graph(alu, ["fmul", "fadd", "load"])
        text = graph_to_json(graph, indent=2)
        clone = graph_from_json(text, alu)
        assert clone.n_real_ops == graph.n_real_ops
        assert clone.n_edges == graph.n_edges

    def test_synthetic_graphs_round_trip(self):
        machine = cydra5()
        for seed in range(5):
            graph = synthetic_graph(machine, seed=seed)
            clone = graph_from_json(graph_to_json(graph), machine)
            assert clone.describe() == graph.describe()

    def test_unsealed_graph_rejected(self, alu):
        graph = DependenceGraph(alu)
        graph.add_operation("fadd")
        with pytest.raises(GraphError):
            graph_to_dict(graph)

    def test_bad_format_rejected(self, alu):
        with pytest.raises(GraphError):
            graph_from_dict({"format": "something-else"}, alu)

    def test_operand_descriptors_survive(self):
        machine = cydra5()
        lowered = compile_loop_full(
            "for i in n:\n    s = s + x[i]\n", machine
        )
        clone = graph_from_json(graph_to_json(lowered.graph), machine)
        for original, copied in zip(
            lowered.graph.real_operations(), clone.real_operations()
        ):
            assert copied.attrs.get("operands") == original.attrs.get(
                "operands"
            )

    def test_delay_model_preserved(self, alu):
        from repro.ir import DelayModel

        graph = DependenceGraph(alu, delay_model=DelayModel.CONSERVATIVE)
        graph.add_operation("fadd")
        graph.seal()
        clone = graph_from_dict(graph_to_dict(graph), alu)
        assert clone.delay_model is DelayModel.CONSERVATIVE


class TestScheduleRoundTrip:
    def test_schedule_survives_and_validates(self):
        machine = cydra5()
        lowered = compile_loop_full(
            "for i in n:\n    y[i] = y[i] + q * x[i]\n", machine
        )
        result = modulo_schedule(lowered.graph, machine)
        text = schedule_to_json(result.schedule, machine, indent=1)
        clone = schedule_from_json(text, machine)
        assert clone.ii == result.ii
        assert clone.times == result.schedule.times
        assert not check_schedule(clone.graph, machine, clone).errors

    def test_reloaded_schedule_still_simulates(self):
        """A reloaded graph keeps enough metadata to re-execute — the
        schedule times transfer onto the reloaded graph's equal indices."""
        machine = cydra5()
        lowered = compile_loop_full(
            "for i in n:\n    s = s + x[i]\n", machine
        )
        result = modulo_schedule(lowered.graph, machine)
        clone = schedule_from_json(
            schedule_to_json(result.schedule, machine), machine
        )
        # Splice the reloaded schedule back onto the lowered loop.
        report = check_equivalence(lowered, clone, n=15, seed=8)
        assert report.ok, report.describe()

    def test_alternative_names_resolved(self):
        machine = cydra5()
        lowered = compile_loop_full(
            "for i in n:\n    y[i] = x[i]\n", machine
        )
        result = modulo_schedule(lowered.graph, machine)
        clone = schedule_from_json(
            schedule_to_json(result.schedule, machine), machine
        )
        for op, alt in result.schedule.alternatives.items():
            if alt is None:
                assert clone.alternatives[op] is None
            else:
                assert clone.alternatives[op].name == alt.name

    def test_json_is_plain_data(self):
        machine = cydra5()
        lowered = compile_loop_full(
            "for i in n:\n    y[i] = x[i]\n", machine
        )
        result = modulo_schedule(lowered.graph, machine)
        data = json.loads(schedule_to_json(result.schedule, machine))
        assert data["format"] == "repro.schedule.v1"
        assert isinstance(data["times"], dict)
