"""Hypothesis property: the static validator agrees with the simulator.

For random perturbations of a legal schedule, acceptance by the static
validator must imply the pipelined execution matches the sequential
oracle — and, contrapositively, any perturbation the simulator rejects
(a dynamic dependence violation or a state mismatch) must already have
been rejected statically.  The validator may be *stricter* (it also
checks resource conflicts the simulator cannot observe), so the
implication is one-way by construction; the reverse direction is pinned
by targeted flow-edge violations that both must reject.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.check import check_schedule
from repro.core import modulo_schedule
from repro.ir.edges import DependenceKind
from repro.loopir import compile_loop_full
from repro.machine import single_alu_machine, two_alu_machine
from repro.simulator import check_equivalence
from tests.check.mutate import DOT_SOURCE, RECURRENCE_SOURCE, _clone

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FIXTURES = {}


def _fixture(source_name):
    if source_name not in _FIXTURES:
        source = {"dot": DOT_SOURCE, "recurrence": RECURRENCE_SOURCE}[
            source_name
        ]
        machine = {"dot": single_alu_machine, "recurrence": two_alu_machine}[
            source_name
        ]()
        lowered = compile_loop_full(source, machine)
        result = modulo_schedule(lowered.graph, machine)
        _FIXTURES[source_name] = (lowered, machine, result.schedule)
    return _FIXTURES[source_name]


@given(
    source_name=st.sampled_from(["dot", "recurrence"]),
    seed=st.integers(min_value=0, max_value=2**16),
    deltas=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=-4, max_value=6),
        ),
        min_size=1,
        max_size=3,
    ),
)
@_SETTINGS
def test_validator_acceptance_implies_simulator_acceptance(
    source_name, seed, deltas
):
    lowered, machine, schedule = _fixture(source_name)
    perturbed = _clone(schedule)
    real = [
        op.index
        for op in perturbed.graph.real_operations()
    ]
    for pick, delta in deltas:
        op = real[pick % len(real)]
        perturbed.times[op] = max(0, perturbed.times[op] + delta)
    diags = check_schedule(lowered.graph, machine, perturbed)
    report = check_equivalence(lowered, perturbed, n=6, seed=seed)
    if diags.ok:
        assert report.ok, (
            "validator accepted a schedule the simulator rejects:\n"
            + report.describe()
        )
    if not report.ok:
        # Contrapositive: anything observably wrong at run time must
        # already be a static finding.
        assert not diags.ok


@given(seed=st.integers(min_value=0, max_value=2**16))
@_SETTINGS
def test_flow_violations_rejected_by_both(seed):
    """Pulling a consumer inside its producer's delay fails both checkers."""
    lowered, machine, schedule = _fixture("dot")
    graph = lowered.graph
    edge = next(
        e
        for e in graph.edges
        if e.kind is DependenceKind.FLOW
        and e.distance == 0
        and e.delay >= 2
        and not graph.operation(e.pred).is_pseudo
        and not graph.operation(e.succ).is_pseudo
    )
    bad = _clone(schedule)
    bad.times[edge.succ] = bad.times[edge.pred]
    diags = check_schedule(graph, machine, bad)
    assert "SCHED005" in diags.codes()
    report = check_equivalence(lowered, bad, n=6, seed=seed)
    assert not report.ok
    assert "SIM002" in report.diagnostics().codes()
