"""The independent schedule validator (acceptance side).

Rejection coverage — one corrupted fixture per code — lives in
``test_mutants.py``; this file pins the acceptance behavior: production
schedules (modulo, list-baseline, all machines) pass, and the
``Schedule.modulo`` flag selects the right occupancy grid.
"""

import pytest

from repro.baselines import list_schedule
from repro.check import check_schedule
from repro.core import modulo_schedule
from repro.loopir import compile_loop_full
from repro.machine import cydra5, single_alu_machine, two_alu_machine

DOT = "for i in n:\n    s = s + x[i] * y[i]\n"


@pytest.fixture(
    params=[single_alu_machine, two_alu_machine, cydra5],
    ids=["single_alu", "two_alu", "cydra5"],
)
def machine(request):
    return request.param()


class TestAcceptance:
    def test_modulo_schedule_accepted(self, machine):
        lowered = compile_loop_full(DOT, machine)
        result = modulo_schedule(lowered.graph, machine)
        diags = check_schedule(lowered.graph, machine, result.schedule)
        assert diags.ok, diags.render()

    def test_codegen_cross_checks_accepted(self, machine):
        lowered = compile_loop_full(DOT, machine)
        result = modulo_schedule(lowered.graph, machine)
        diags = check_schedule(
            lowered.graph, machine, result.schedule, codegen=True
        )
        assert diags.ok, diags.render()
        assert len(diags) == 0

    def test_list_schedule_accepted_on_linear_grid(self, machine):
        """The list baseline must not be folded mod II (false wrap conflicts)."""
        lowered = compile_loop_full(DOT, machine)
        schedule = list_schedule(lowered.graph, machine)
        assert schedule.modulo is False
        diags = check_schedule(lowered.graph, machine, schedule)
        assert diags.ok, diags.render()

    def test_list_schedule_would_fail_as_modulo(self):
        """Folding a linear single-ALU schedule at II=SL creates conflicts
        unless the schedule is sparse; the flag is what protects it."""
        machine = single_alu_machine()
        lowered = compile_loop_full(DOT, machine)
        schedule = list_schedule(lowered.graph, machine)
        # Sanity: the linear grid books each cycle at most once.
        diags = check_schedule(lowered.graph, machine, schedule)
        assert "SCHED010" not in diags.codes()


class TestLegacyStringApi:
    """The retired ``validate_schedule`` returned each finding's message;
    the diagnostics carry the same messages."""

    def test_validate_schedule_returns_messages(self):
        machine = single_alu_machine()
        lowered = compile_loop_full(DOT, machine)
        result = modulo_schedule(lowered.graph, machine)
        assert list(check_schedule(lowered.graph, machine, result.schedule)) == []
        bad_times = dict(result.schedule.times)
        bad_times[lowered.graph.START] = 3
        from repro.core.schedule import Schedule

        bad = Schedule(
            lowered.graph, result.schedule.ii, bad_times,
            dict(result.schedule.alternatives),
        )
        diags = check_schedule(lowered.graph, machine, bad)
        messages = [d.message for d in diags]
        assert "START scheduled at 3, expected 0" in messages
        assert not diags.ok

    def test_diagnostics_carry_edge_identity(self):
        """SCHED005 names the edge: op ids, kind, distance, delay."""
        machine = single_alu_machine()
        lowered = compile_loop_full(DOT, machine)
        result = modulo_schedule(lowered.graph, machine)
        from tests.check.mutate import mutant

        diags = mutant("squeezed-edge").run()
        finding = next(d for d in diags if d.code == "SCHED005")
        for key in ("pred", "succ", "kind", "distance", "delay", "gap",
                    "required"):
            assert key in finding.detail
        assert result is not None  # the clean baseline still schedules
