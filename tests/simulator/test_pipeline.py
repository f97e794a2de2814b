"""The pipelined executor and the end-to-end equivalence check."""

import pytest

from repro.baselines import list_schedule
from repro.core import Schedule, modulo_schedule
from repro.loopir import compile_loop_full
from repro.machine import cydra5, single_alu_machine, two_alu_machine
from repro.simulator import (
    SimulationError,
    check_equivalence,
    make_initial_state,
    run_pipelined,
    run_reference,
)

_KERNELS = {
    "saxpy": "for i in n:\n    y[i] = y[i] + a * x[i]\n",
    "dot": "for i in n:\n    s = s + x[i] * y[i]\n",
    "first_sum": "for i in n:\n    x[i] = x[i-1] + y[i]\n",
    "branchy": (
        "for i in n:\n"
        "    t = a[i] - b[i]\n"
        "    if t > 0.0:\n"
        "        s = s + t\n"
        "    else:\n"
        "        s = s - t\n"
    ),
    "cond_store": (
        "for i in n:\n"
        "    if a[i] > 0.5:\n"
        "        b[i] = a[i] * 2.0\n"
    ),
    "shifted": "for i in n:\n    a[i+2] = a[i] * 0.5 + b[i]\n",
}


def _compiled(name, machine):
    return compile_loop_full(_KERNELS[name], machine, name=name)


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(_KERNELS))
    @pytest.mark.parametrize(
        "machine_factory", [single_alu_machine, two_alu_machine, cydra5]
    )
    def test_modulo_schedule_matches_reference(self, name, machine_factory):
        machine = machine_factory()
        lowered = _compiled(name, machine)
        result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
        report = check_equivalence(lowered, result.schedule, n=23, seed=5)
        assert report.ok, report.describe()

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_list_schedule_matches_reference(self, name):
        """Sanity for the simulator itself: a non-overlapped schedule."""
        machine = single_alu_machine()
        lowered = _compiled(name, machine)
        schedule = list_schedule(lowered.graph, machine)
        report = check_equivalence(lowered, schedule, n=17, seed=2)
        assert report.ok, report.describe()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_small_trip_counts(self, n):
        machine = single_alu_machine()
        lowered = _compiled("dot", machine)
        result = modulo_schedule(lowered.graph, machine)
        report = check_equivalence(lowered, result.schedule, n=n, seed=0)
        assert report.ok, report.describe()

    def test_report_describe_mentions_loop(self):
        machine = single_alu_machine()
        lowered = _compiled("saxpy", machine)
        result = modulo_schedule(lowered.graph, machine)
        report = check_equivalence(lowered, result.schedule, n=5)
        assert "saxpy" in report.describe()
        assert "OK" in report.describe()


class TestViolationDetection:
    """A corrupted schedule must be *caught*, not silently accepted."""

    def _broken_times(self, lowered, schedule):
        """Pull a flow consumer below its producer's completion."""
        graph = lowered.graph
        times = dict(schedule.times)
        for edge in graph.edges:
            pred = graph.operation(edge.pred)
            succ = graph.operation(edge.succ)
            if pred.is_pseudo or succ.is_pseudo or edge.distance != 0:
                continue
            if edge.delay > 1:
                times[edge.succ] = times[edge.pred]
                return times
        raise AssertionError("no suitable edge to corrupt")

    def test_flow_violation_raises_or_mismatches(self):
        machine = single_alu_machine()
        lowered = _compiled("saxpy", machine)
        result = modulo_schedule(lowered.graph, machine)
        times = self._broken_times(lowered, result.schedule)
        broken = Schedule(
            lowered.graph,
            result.ii,
            times,
            dict(result.schedule.alternatives),
        )
        state = make_initial_state(lowered, 10, seed=0)
        with pytest.raises(SimulationError):
            run_pipelined(lowered, broken, state.copy(), 10)

    def test_memory_distance_violation_changes_answer(self):
        """Scheduling a dependent load before its store's commit must
        produce a different final state (check_ready off so the run
        completes)."""
        machine = single_alu_machine()
        lowered = _compiled("first_sum", machine)
        result = modulo_schedule(lowered.graph, machine)
        graph = lowered.graph
        times = dict(result.schedule.times)
        store = next(
            op.index
            for op in graph.real_operations()
            if op.opcode == "store"
        )
        load = next(
            op.index
            for op in graph.real_operations()
            if op.opcode == "load" and op.attrs.get("array") == "x"
        )
        # Shift every real operation up by one II, then drop the load back
        # to the store's *original* time: iteration k's load now samples
        # strictly before iteration k-1's store commits.  (Also violates
        # scalar flow; disable the readiness check to observe the
        # memory-level corruption.)
        for op in list(times):
            if op != graph.START:
                times[op] += result.ii
        times[load] = times[store] - result.ii
        broken = Schedule(
            graph, result.ii, times, dict(result.schedule.alternatives)
        )
        state = make_initial_state(lowered, 12, seed=3)
        reference = run_reference(lowered.loop, state.copy(), 12)
        pipelined = run_pipelined(
            lowered, broken, state.copy(), 12, check_ready=False
        )
        assert reference.differences(pipelined)

    def test_negative_iteration_count_rejected(self):
        machine = single_alu_machine()
        lowered = _compiled("saxpy", machine)
        result = modulo_schedule(lowered.graph, machine)
        with pytest.raises(ValueError):
            run_pipelined(
                lowered,
                result.schedule,
                make_initial_state(lowered, 4),
                -1,
            )

    @pytest.mark.parametrize("ii", [0, -1])
    def test_initiation_interval_below_one_rejected(self, ii):
        """II 0 would play every iteration in one cycle."""
        machine = single_alu_machine()
        lowered = _compiled("saxpy", machine)
        result = modulo_schedule(lowered.graph, machine)
        schedule = Schedule(
            lowered.graph,
            ii,
            dict(result.schedule.times),
            dict(result.schedule.alternatives),
        )
        with pytest.raises(ValueError, match="initiation interval"):
            run_pipelined(lowered, schedule, make_initial_state(lowered, 4), 4)
