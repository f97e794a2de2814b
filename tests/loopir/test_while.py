"""WHILE-loops: speculative execution with an alive-predicate recurrence."""

import pytest

from repro.check import check_schedule
from repro.core import compute_mii, modulo_schedule
from repro.loopir import compile_loop_full, parse_loop
from repro.loopir.ast import Compare
from repro.machine import cydra5, single_alu_machine
from repro.simulator import (
    check_equivalence,
    make_initial_state,
    run_pipelined,
    run_reference,
)


@pytest.fixture
def machine():
    return cydra5()


class TestParsing:
    def test_while_clause(self):
        loop = parse_loop("for i in n while s > 0.0:\n    s = s - d[i]\n")
        assert isinstance(loop.while_cond, Compare)
        assert loop.trip == "n"

    def test_plain_loop_has_no_condition(self):
        loop = parse_loop("for i in n:\n    a[i] = 1.0\n")
        assert loop.while_cond is None

    def test_boolean_while_condition(self):
        loop = parse_loop(
            "for i in n while s > 0.0 and x[i] < hi:\n    s = s - x[i]\n"
        )
        assert loop.while_cond is not None


class TestLowering:
    def test_alive_recurrence_exists(self, machine):
        lowered = compile_loop_full(
            "for i in n while s > 0.0:\n    s = s - d[i]\n", machine
        )
        assert lowered.alive_op is not None
        alive = lowered.graph.operation(lowered.alive_op)
        assert alive.attrs["role"] == "alive"
        self_edges = [
            e
            for e in lowered.graph.succ_edges(lowered.alive_op)
            if e.succ == lowered.alive_op
        ]
        assert self_edges and self_edges[0].distance == 1

    def test_all_stores_guarded_by_alive(self, machine):
        lowered = compile_loop_full(
            "for i in n while q > 0.0:\n"
            "    a[i] = x[i]\n"
            "    if x[i] > 0.0:\n"
            "        b[i] = x[i]\n",
            machine,
        )
        for op in lowered.graph.real_operations():
            if op.opcode == "store":
                assert op.attrs["predicated"] is True
                assert op.predicate is not None

    def test_alive_survives_dce(self, machine):
        # The loop writes nothing through the alive path directly, yet
        # the alive op must survive for exit detection.
        lowered = compile_loop_full(
            "for i in n while s > 0.0:\n    s = s - d[i]\n", machine
        )
        assert lowered.alive_op is not None
        assert (
            lowered.graph.operation(lowered.alive_op).attrs["role"] == "alive"
        )

    def test_while_recurrence_contributes_to_mii(self, machine):
        lowered = compile_loop_full(
            "for i in n while s > 0.0:\n    s = s - d[i]\n", machine
        )
        result = compute_mii(lowered.graph, machine)
        # alive's pand self-circuit: delay 2 at distance 1.
        assert result.rec_mii >= 2


class TestSemantics:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_data_dependent_exit(self, machine, seed):
        lowered = compile_loop_full(
            "for i in n while x[i] < limit:\n"
            "    s = s + x[i]\n"
            "    y[i] = s\n",
            machine,
            name="while_threshold",
        )
        result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
        assert not check_schedule(lowered.graph, machine, result.schedule).errors
        report = check_equivalence(lowered, result.schedule, n=31, seed=seed)
        assert report.ok, report.describe()

    def test_exit_on_first_iteration(self, machine):
        lowered = compile_loop_full(
            "for i in n while gate > 0.0:\n    a[i] = 7.0\n    s = s + 1.0\n",
            machine,
        )
        result = modulo_schedule(lowered.graph, machine)
        state = make_initial_state(lowered, 10, seed=0)
        state.scalars["gate"] = -1.0
        reference = run_reference(lowered.loop, state.copy(), 10)
        pipelined = run_pipelined(lowered, result.schedule, state.copy(), 10)
        assert reference.differences(pipelined) == []
        # Nothing committed, scalars untouched.
        assert pipelined.arrays["a"][0] == state.arrays["a"][0]
        assert pipelined.scalars["s"] == state.scalars["s"]

    def test_exit_mid_loop_exact_boundary(self, machine):
        lowered = compile_loop_full(
            "for i in n while countdown > 0.5:\n"
            "    countdown = countdown - 1.0\n"
            "    out[i] = countdown\n",
            machine,
        )
        result = modulo_schedule(lowered.graph, machine)
        n = 20
        state = make_initial_state(lowered, n, seed=0)
        state.scalars["countdown"] = 5.0
        reference = run_reference(lowered.loop, state.copy(), n)
        pipelined = run_pipelined(lowered, result.schedule, state.copy(), n)
        assert reference.differences(pipelined) == []
        # Exactly five iterations ran.
        assert pipelined.scalars["countdown"] == 0.0
        assert pipelined.arrays["out"][4] == 0.0
        assert pipelined.arrays["out"][5] == state.arrays["out"][5]

    def test_condition_never_false_runs_all_iterations(self, machine):
        lowered = compile_loop_full(
            "for i in n while one > 0.0:\n    y[i] = x[i]\n", machine
        )
        result = modulo_schedule(lowered.graph, machine)
        state = make_initial_state(lowered, 12, seed=2)
        state.scalars["one"] = 1.0
        reference = run_reference(lowered.loop, state.copy(), 12)
        pipelined = run_pipelined(lowered, result.schedule, state.copy(), 12)
        assert reference.differences(pipelined) == []

    def test_while_on_single_alu(self):
        machine = single_alu_machine()
        lowered = compile_loop_full(
            "for i in n while s < 9.0:\n    s = s + a[i]\n    b[i] = s\n",
            machine,
        )
        result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
        report = check_equivalence(lowered, result.schedule, n=17, seed=7)
        assert report.ok, report.describe()
