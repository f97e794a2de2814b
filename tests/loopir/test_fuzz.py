"""Whole-stack fuzzing: random loop programs, end to end (hypothesis).

Random ASTs are generated directly (so hypothesis can shrink failures to
minimal programs), compiled through IF-conversion + lowering, modulo
scheduled, and executed on the pipelined simulator against the sequential
oracle.  Any dependence-analysis, scheduling or simulation bug surfaces
as a state mismatch on randomized data.
"""

import os

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.check import check_schedule
from repro.core import modulo_schedule
from repro.loopir.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Compare,
    If,
    IndirectRef,
    IndirectStore,
    IVar,
    Loop,
    Num,
    Scalar,
    Store,
)
from repro.loopir.ifconv import if_convert
from repro.loopir.lower import lower_loop
from repro.machine import cydra5, two_alu_machine
from repro.simulator import check_equivalence

_ARRAYS = ["a", "b", "c"]
_SCALARS = ["s", "t", "u"]
_BINOPS = ["+", "-", "*"]
_CMPS = ["<", "<=", "==", "!=", ">", ">="]


@st.composite
def expressions(draw, depth=0):
    if depth >= 2:
        leaf = draw(st.integers(min_value=0, max_value=3))
    else:
        leaf = draw(st.integers(min_value=0, max_value=6))
    if leaf == 0:
        return Num(round(draw(st.floats(-4, 4, allow_nan=False)), 2))
    if leaf == 1:
        return Scalar(draw(st.sampled_from(_SCALARS)))
    if leaf == 2:
        return ArrayRef(
            draw(st.sampled_from(_ARRAYS)),
            draw(st.integers(min_value=-2, max_value=2)),
        )
    if leaf == 3:
        return IVar()
    if leaf == 6:
        # An indirect gather through a dedicated index array.
        return IndirectRef(
            draw(st.sampled_from(_ARRAYS)),
            ArrayRef("idx", draw(st.integers(min_value=-1, max_value=1))),
        )
    if leaf == 4:
        return BinOp(
            draw(st.sampled_from(_BINOPS)),
            draw(expressions(depth=depth + 1)),
            draw(expressions(depth=depth + 1)),
        )
    fn = draw(st.sampled_from(["abs", "neg", "min", "max"]))
    arity = 1 if fn in ("abs", "neg") else 2
    args = tuple(draw(expressions(depth=depth + 1)) for _ in range(arity))
    return Call(fn, args)


@st.composite
def statements(draw, depth=0):
    kind = draw(st.integers(min_value=0, max_value=3 if depth < 1 else 1))
    if kind == 0:
        return Assign(draw(st.sampled_from(_SCALARS)), draw(expressions()))
    if kind == 1:
        return Store(
            draw(st.sampled_from(_ARRAYS)),
            draw(st.integers(min_value=-2, max_value=2)),
            draw(expressions()),
        )
    if kind == 3:
        return IndirectStore(
            draw(st.sampled_from(_ARRAYS)),
            ArrayRef("idx", draw(st.integers(min_value=-1, max_value=1))),
            draw(expressions()),
        )
    cond = Compare(
        draw(st.sampled_from(_CMPS)), draw(expressions()), draw(expressions())
    )
    then_body = draw(
        st.lists(statements(depth=depth + 1), min_size=1, max_size=2)
    )
    else_body = draw(
        st.lists(statements(depth=depth + 1), min_size=0, max_size=2)
    )
    return If(cond, then_body, else_body)


@st.composite
def loops(draw):
    body = draw(st.lists(statements(), min_size=1, max_size=4))
    while_cond = None
    if draw(st.booleans()):
        while_cond = Compare(
            draw(st.sampled_from(_CMPS)),
            draw(expressions()),
            draw(expressions()),
        )
    return Loop(
        ivar="i", trip="n", body=body, name="fuzz", while_cond=while_cond
    )


#: Raise via REPRO_FUZZ_EXAMPLES for long fuzzing sessions.
_SETTINGS = settings(
    max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "40")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestWholeStack:
    @given(loops(), st.sampled_from([7, 23]))
    @_SETTINGS
    def test_random_programs_pipeline_correctly(self, loop, n):
        machine = cydra5()
        lowered = lower_loop(loop, if_convert(loop), machine)
        result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
        assert not check_schedule(lowered.graph, machine, result.schedule).errors
        report = check_equivalence(lowered, result.schedule, n=n, seed=13)
        assert report.ok, report.describe() + "\n" + lowered.graph.describe()

    @given(loops())
    @_SETTINGS
    def test_random_programs_on_two_alu_machine(self, loop):
        machine = two_alu_machine()
        lowered = lower_loop(loop, if_convert(loop), machine)
        result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
        report = check_equivalence(lowered, result.schedule, n=11, seed=5)
        assert report.ok, report.describe()
