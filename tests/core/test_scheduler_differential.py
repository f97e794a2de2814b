"""Differential tests: the fused IterativeSchedule against the oracle.

``tests/oracles/scheduler.py`` keeps the method-per-step schedulers the
fused attempt in :mod:`repro.core.scheduler` replaced.  For each style —
the paper's operation scheduler, its greedy ablation and the footnote's
instruction-driven style — both run the same attempts, and every
observable must agree:

* the attempt result: success, issue times, alternatives by name and
  steps;
* the ``Counters`` snapshot (Table 4's counters and HeightR's);
* the ``ScheduleTrace`` event list, in order.

The corpus half goes II by II from the MII until the oracle succeeds,
on every DSL kernel on the four front-end machines and on every tenth
synthetic loop of the paper corpus.  The hypothesis half draws small
graphs, IIs and budgets from 1 to 6N, so exhausted budgets, forced
displacement on Figure 1's bus machine and the dead II of a Cydra 5
load (its port is busy at issue and 19 cycles later, so it folds onto
itself at II 1 and 19) are all covered.  A deadline that expires on its
k-th check must leave the same counters billed on both sides.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import tests.oracles.scheduler as oracle
from repro.core.deadline import DeadlineExceeded
from repro.core.instruction_scheduler import InstructionDrivenScheduler
from repro.core.mii import compute_mii
from repro.core.scheduler import (
    PRIORITY_SCHEMES,
    GreedyScheduler,
    IterativeScheduler,
    default_max_ii,
)
from repro.core.stats import Counters
from repro.core.trace import ScheduleTrace
from repro.ir import DependenceGraph, DependenceKind
from repro.loopir import compile_loop_full
from repro.machine import (
    bus_conflict_machine,
    cydra5,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)
from repro.workloads.kernels import KERNELS
from repro.workloads.synthetic import synthetic_graph
from tests.core.test_properties import random_graphs

#: style -> (production class, oracle class).
STYLES = {
    "operation": (IterativeScheduler, oracle.IterativeScheduler),
    "greedy": (GreedyScheduler, oracle.GreedyScheduler),
    "instruction": (
        InstructionDrivenScheduler,
        oracle.InstructionDrivenScheduler,
    ),
}

#: The machines the DSL front end lowers every kernel to.
FRONT_END_MACHINES = {
    "cydra5": cydra5,
    "single_alu": single_alu_machine,
    "two_alu": two_alu_machine,
    "superscalar": superscalar_machine,
}

#: Synthetic loops of the paper corpus (``build_corpus(seed=0)`` gives
#: synthetic loop ``i`` the generator seed ``i``), every tenth of them.
PAPER_SYNTHETIC = range(0, 1262, 10)


def _run(cls, graph, machine, ii, budget, priority="heightr", deadline=None):
    """One attempt: ``(result or the exception, counters, trace events)``."""
    counters = Counters()
    trace = ScheduleTrace()
    try:
        result = cls(
            graph, machine, ii, counters, priority=priority, trace=trace,
            deadline=deadline,
        ).run(budget)
    except DeadlineExceeded as exc:
        result = exc
    return result, counters.snapshot(), trace.events


def _observable(result):
    if isinstance(result, Exception):
        return type(result).__name__
    return (
        result.success,
        result.times,
        {
            op: None if alt is None else alt.name
            for op, alt in result.alternatives.items()
        },
        result.steps,
    )


def _assert_same_attempt(style, graph, machine, ii, budget, **kwargs):
    """Run both implementations of ``style``; return the oracle's result."""
    production, reference = STYLES[style]
    fresh = _run(production, graph, machine, ii, budget, **kwargs)
    expected = _run(reference, graph, machine, ii, budget, **kwargs)
    where = f"{style} {graph.name} on {machine.name} at II {ii}"
    assert _observable(fresh[0]) == _observable(expected[0]), where
    assert fresh[1] == expected[1], where
    assert fresh[2] == expected[2], where
    return expected[0]


#: How many candidate IIs the corpus walk compares per loop.  The
#: instruction-driven style escalates slowly on the widest synthetic
#: loops: synthetic970 and synthetic1010 need about 30 IIs, 4 s for the
#: two implementations together.  Capping the walk keeps the suite at a
#: few seconds.
MAX_WALK = 4


def _assert_same_search(style, graph, machine, budget_ratio=6.0):
    """II by II from the MII until the oracle succeeds (or MAX_WALK IIs)."""
    mii = compute_mii(graph, machine).mii
    budget = int(budget_ratio * graph.n_ops)
    for ii in range(mii, min(default_max_ii(graph, mii), mii + MAX_WALK)):
        if _assert_same_attempt(style, graph, machine, ii, budget).success:
            return


@pytest.fixture(scope="module")
def kernel_graphs():
    return {
        machine_name: (
            machine,
            [
                compile_loop_full(KERNELS[name].source, machine, name=name).graph
                for name in sorted(KERNELS)
            ],
        )
        for machine_name, machine in (
            (name, factory()) for name, factory in FRONT_END_MACHINES.items()
        )
    }


@pytest.fixture(scope="module")
def synthetic_graphs():
    machine = cydra5()
    return machine, [synthetic_graph(machine, seed=i) for i in PAPER_SYNTHETIC]


@pytest.mark.parametrize("style", sorted(STYLES))
class TestCorpora:
    @pytest.mark.parametrize("machine_name", sorted(FRONT_END_MACHINES))
    def test_every_kernel(self, kernel_graphs, style, machine_name):
        machine, graphs = kernel_graphs[machine_name]
        for graph in graphs:
            _assert_same_search(style, graph, machine)

    def test_every_tenth_synthetic_paper_loop(self, synthetic_graphs, style):
        machine, graphs = synthetic_graphs
        for graph in graphs:
            _assert_same_search(style, graph, machine)


_BUS_OPCODES = ["fadd", "fsub", "fmul", "mul"]
_CYDRA_OPCODES = ["load", "store", "fadd", "fmul", "aadd"]


@st.composite
def _machine_graphs(draw, machine, opcodes):
    """A small random graph on ``machine``, shaped like ``random_graphs``."""
    n = draw(st.integers(min_value=1, max_value=8))
    graph = DependenceGraph(machine, name=f"prop-{machine.name}")
    ops = [
        graph.add_operation(draw(st.sampled_from(opcodes)), dest=f"v{i}")
        for i in range(n)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        low = 0 if a < b else 1
        graph.add_edge(
            ops[a],
            ops[b],
            draw(st.sampled_from(list(DependenceKind))),
            distance=draw(st.integers(min_value=low, max_value=3)),
        )
    graph.seal()
    return machine, graph


_GRAPHS = st.one_of(
    random_graphs(),
    _machine_graphs(bus_conflict_machine(), _BUS_OPCODES),
    _machine_graphs(cydra5(), _CYDRA_OPCODES),
)


@given(
    machine_graph=_GRAPHS,
    style=st.sampled_from(sorted(STYLES)),
    priority=st.sampled_from(sorted(PRIORITY_SCHEMES)),
    data=st.data(),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_attempts_agree(machine_graph, style, priority, data):
    machine, graph = machine_graph
    mii = compute_mii(graph, machine)
    # HeightR has no solution below the RecMII; from there, IIs below
    # the ResMII exhaust the budget and a load at II 1 on the Cydra 5 is
    # a dead II.
    ii = data.draw(
        st.integers(min_value=mii.rec_mii, max_value=mii.mii + 3), label="ii"
    )
    budget = data.draw(
        st.integers(min_value=1, max_value=6 * graph.n_ops), label="budget"
    )
    _assert_same_attempt(
        style, graph, machine, ii, budget, priority=priority
    )


def test_a_dead_ii_fails_at_zero_steps_in_every_style():
    """A Cydra 5 load folds onto itself at II 1: both fail at 0 steps."""
    machine = cydra5()
    graph = DependenceGraph(machine, name="dead")
    graph.add_operation("load", dest="v")
    graph.seal()
    for style in STYLES:
        result = _assert_same_attempt(style, graph, machine, 1, 12)
        assert not result.success and result.steps == 0


class _CountdownDeadline:
    """A deadline whose ``check`` raises on its k-th call, and not before."""

    def __init__(self, k: int) -> None:
        self.remaining = k

    def check(self, where: str = "") -> None:
        self.remaining -= 1
        if self.remaining == 0:
            raise DeadlineExceeded(f"countdown expired in {where}")


@pytest.mark.parametrize("style", sorted(STYLES))
@pytest.mark.parametrize("k", [1, 2])
def test_a_deadline_mid_attempt_bills_the_same_counters(style, k):
    """The fused attempt adds its counters in a ``finally``: a deadline
    raised on the k-th check leaves exactly the oracle's counters and
    trace behind.  At its MII, paper loop synthetic790 (80 operations)
    reaches a second check in every style."""
    machine = cydra5()
    graph = synthetic_graph(machine, seed=790)
    mii = compute_mii(graph, machine).mii
    budget = 6 * graph.n_ops
    production, reference = STYLES[style]
    fresh = _run(
        production, graph, machine, mii, budget,
        deadline=_CountdownDeadline(k),
    )
    expected = _run(
        reference, graph, machine, mii, budget,
        deadline=_CountdownDeadline(k),
    )
    assert isinstance(expected[0], DeadlineExceeded)
    assert _observable(fresh[0]) == _observable(expected[0])
    assert fresh[1] == expected[1]
    assert fresh[2] == expected[2]
    assert fresh[1]["ops_scheduled"] >= 32
