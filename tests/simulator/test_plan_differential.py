"""The compiled plan against the per-instance interpreter it replaced.

``repro.simulator.run_pipelined`` builds a plan per (loop, schedule) and
decides each read's readiness once; ``tests/oracles/pipeline.py`` keeps
the interpreter that checked every operation instance.  On every DSL
kernel, and on schedules of three small loops with operations moved in
time (the perturbation of ``tests/check/test_property.py``), both must
reach the same outcome: the same ``repr`` of every array cell and
scalar, or the same exception with the same message.
"""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import modulo_schedule
from repro.loopir import compile_loop_full
from repro.machine import (
    cydra5,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)
from repro.simulator import make_initial_state, run_pipelined
from repro.simulator.pipeline import _Plan
from repro.workloads import KERNELS
from tests.check.mutate import DOT_SOURCE, RECURRENCE_SOURCE, _clone
from tests.oracles import pipeline as oracle

_MACHINES = {
    "cydra5": cydra5,
    "single_alu": single_alu_machine,
    "two_alu": two_alu_machine,
    "superscalar": superscalar_machine,
}


def _outcome(run, lowered, schedule, state, n, check_ready=True):
    """What one executor makes of a run: final state or the exception."""
    try:
        final = run(lowered, schedule, state.copy(), n, check_ready=check_ready)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    arrays = {name: repr(array.snapshot()) for name, array in final.arrays.items()}
    return ("state", arrays, repr(sorted(final.scalars.items())))


def _agree(lowered, schedule, state, n, check_ready=True):
    plan = _outcome(run_pipelined, lowered, schedule, state, n, check_ready)
    interpreter = _outcome(
        oracle.run_pipelined, lowered, schedule, state, n, check_ready
    )
    assert plan == interpreter
    return plan


@pytest.mark.parametrize("machine_name", sorted(_MACHINES))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_every_kernel_matches_the_interpreter(machine_name, name):
    machine = _MACHINES[machine_name]()
    lowered = compile_loop_full(KERNELS[name].source, machine, name=name)
    schedule = modulo_schedule(lowered.graph, machine, budget_ratio=6.0).schedule
    state = make_initial_state(lowered, 64, seed=0)
    kind, *_ = _agree(lowered, schedule, state, 64)
    assert kind == "state"
    # A legal schedule reads nothing early, so no operation checks its
    # reads per instance.
    assert _Plan(lowered, schedule, state.copy(), 64, True).checked == []


_FIXTURES = {}

#: A carried scalar that an operation other than its definition reads at
#: distance 1, and a guarded store.  With the readiness check off, a
#: perturbed schedule can put a producer and a later iteration's consumer
#: in one cycle, where the order of events within the cycle shows; dot
#: and the recurrence read across iterations only through memory or an
#: operation's own value.
CARRIED_SOURCE = (
    "for i in n:\n"
    "    t = s * 0.5 + x[i]\n"
    "    if t > 0.0:\n"
    "        y[i] = t\n"
    "    s = t\n"
)


def _fixture(source_name):
    if source_name not in _FIXTURES:
        source, factory = {
            "dot": (DOT_SOURCE, single_alu_machine),
            "recurrence": (RECURRENCE_SOURCE, two_alu_machine),
            "carried": (CARRIED_SOURCE, cydra5),
        }[source_name]
        machine = factory()
        lowered = compile_loop_full(source, machine)
        result = modulo_schedule(lowered.graph, machine)
        _FIXTURES[source_name] = (lowered, result.schedule)
    return _FIXTURES[source_name]


@given(
    source_name=st.sampled_from(["dot", "recurrence", "carried"]),
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=0, max_value=8),
    check_ready=st.booleans(),
    deltas=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=-4, max_value=6),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(
    max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "150")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_perturbed_schedules_match_the_interpreter(
    source_name, seed, n, check_ready, deltas
):
    lowered, schedule = _fixture(source_name)
    perturbed = _clone(schedule)
    real = [op.index for op in perturbed.graph.real_operations()]
    for pick, delta in deltas:
        op = real[pick % len(real)]
        perturbed.times[op] = max(0, perturbed.times[op] + delta)
    state = make_initial_state(lowered, n, seed=seed)
    _agree(lowered, perturbed, state, n, check_ready)
