"""The static validator must catch every class of illegal schedule."""

import pytest

from repro.check import check_schedule
from repro.core import Schedule, modulo_schedule
from repro.ir import DependenceGraph, DependenceKind
from repro.machine import single_alu_machine

from tests.conftest import chain_graph, reduction_graph


@pytest.fixture
def alu():
    return single_alu_machine()


@pytest.fixture
def scheduled(alu):
    graph = chain_graph(alu, ["fmul", "fadd"])
    result = modulo_schedule(graph, alu)
    return graph, result.schedule


class TestAccepts:
    def test_valid_schedule_passes(self, alu, scheduled):
        graph, schedule = scheduled
        assert list(check_schedule(graph, alu, schedule)) == []

    def test_assert_valid_does_not_raise(self, alu, scheduled):
        """Asserting ``ok``, with the rendered findings as the message."""
        graph, schedule = scheduled
        diags = check_schedule(graph, alu, schedule)
        assert diags.ok, diags.render()


class TestRejects:
    def test_missing_operation(self, alu, scheduled):
        graph, schedule = scheduled
        times = dict(schedule.times)
        del times[1]
        broken = Schedule(graph, schedule.ii, times, dict(schedule.alternatives))
        diags = check_schedule(graph, alu, broken)
        assert any("not scheduled" in d.message for d in diags)

    def test_start_not_at_zero(self, alu, scheduled):
        graph, schedule = scheduled
        times = dict(schedule.times)
        times[graph.START] = 1
        broken = Schedule(graph, schedule.ii, times, dict(schedule.alternatives))
        diags = check_schedule(graph, alu, broken)
        assert any("START" in d.message for d in diags)

    def test_dependence_violation(self, alu, scheduled):
        graph, schedule = scheduled
        times = dict(schedule.times)
        times[2] = times[1]  # consumer issued with its producer
        broken = Schedule(graph, schedule.ii, times, dict(schedule.alternatives))
        diags = check_schedule(graph, alu, broken)
        assert any("dependence violated" in d.message for d in diags)

    def test_modulo_resource_violation(self, alu):
        graph = chain_graph(alu, ["fadd", "fadd"])
        result = modulo_schedule(graph, alu)
        times = dict(result.schedule.times)
        # Put both adds at congruent slots on the single ALU.
        times[2] = times[1] + result.ii
        broken = Schedule(
            graph, result.ii, times, dict(result.schedule.alternatives)
        )
        diags = check_schedule(graph, alu, broken)
        assert any("modulo constraint" in d.message for d in diags)

    def test_negative_time(self, alu, scheduled):
        graph, schedule = scheduled
        times = dict(schedule.times)
        times[1] = -1
        broken = Schedule(graph, schedule.ii, times, dict(schedule.alternatives))
        diags = check_schedule(graph, alu, broken)
        assert any("negative" in d.message for d in diags)

    def test_missing_alternative(self, alu, scheduled):
        graph, schedule = scheduled
        alts = dict(schedule.alternatives)
        alts[1] = None
        broken = Schedule(graph, schedule.ii, dict(schedule.times), alts)
        diags = check_schedule(graph, alu, broken)
        assert any("no reservation alternative" in d.message for d in diags)

    def test_foreign_alternative(self, alu, scheduled):
        from repro.machine import ReservationTable

        graph, schedule = scheduled
        alts = dict(schedule.alternatives)
        alts[1] = ReservationTable("fake", [("alu", 0)])
        broken = Schedule(graph, schedule.ii, dict(schedule.times), alts)
        diags = check_schedule(graph, alu, broken)
        assert any("not belonging" in d.message for d in diags)

    def test_interiteration_violation(self, alu):
        graph = reduction_graph(alu)
        result = modulo_schedule(graph, alu)
        # Shrink the II below RecMII while keeping the times: the self
        # recurrence (delay 1, distance 1) then requires gap >= 1 - ii.
        broken = Schedule(
            graph, 1, dict(result.schedule.times), dict(result.schedule.alternatives)
        )
        diags = check_schedule(graph, alu, broken)
        assert not diags.ok  # at least the resource fold or a dependence

    def test_assert_raises_with_details(self, alu, scheduled):
        """The rendered findings name the code and the violation."""
        graph, schedule = scheduled
        times = dict(schedule.times)
        times[graph.START] = 5
        broken = Schedule(graph, schedule.ii, times, dict(schedule.alternatives))
        diags = check_schedule(graph, alu, broken)
        with pytest.raises(AssertionError) as excinfo:
            assert diags.ok, diags.render()
        assert "SCHED003" in str(excinfo.value)
        assert "START" in str(excinfo.value)
