"""Machine description serialization round trips."""

import pytest

from repro.check import check_schedule
from repro.core import modulo_schedule
from repro.machine import (
    MachineError,
    bus_conflict_machine,
    cydra5,
    machine_from_dict,
    machine_from_json,
    machine_to_dict,
    machine_to_json,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)

_ALL = [
    cydra5,
    single_alu_machine,
    two_alu_machine,
    superscalar_machine,
    bus_conflict_machine,
]


class TestRoundTrip:
    @pytest.mark.parametrize("factory", _ALL)
    def test_describe_identical(self, factory):
        machine = factory()
        clone = machine_from_json(machine_to_json(machine))
        assert clone.describe() == machine.describe()

    @pytest.mark.parametrize("factory", _ALL)
    def test_tables_identical(self, factory):
        machine = factory()
        clone = machine_from_dict(machine_to_dict(machine))
        for name in machine.opcode_names:
            original = machine.opcode(name)
            copied = clone.opcode(name)
            assert copied.latency == original.latency
            assert copied.commutative == original.commutative
            assert [a.uses for a in copied.alternatives] == [
                a.uses for a in original.alternatives
            ]

    def test_reloaded_machine_schedules_identically(self):
        from tests.conftest import reduction_graph

        machine = cydra5()
        clone = machine_from_json(machine_to_json(machine))
        graph = reduction_graph(clone)
        result = modulo_schedule(graph, clone)
        assert not check_schedule(graph, clone, result.schedule).errors
        reference = modulo_schedule(reduction_graph(machine), machine)
        assert result.ii == reference.ii

    def test_bad_format_rejected(self):
        with pytest.raises(MachineError):
            machine_from_dict({"format": "nope"})

    def test_json_is_indentable(self):
        text = machine_to_json(single_alu_machine(), indent=2)
        assert text.startswith("{\n")
