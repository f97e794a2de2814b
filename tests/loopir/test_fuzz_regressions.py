"""Minimal counterexamples the whole-stack fuzzer found, pinned forever.

Each test is a shrunk hypothesis counterexample that exposed a real bug
during development; they run as plain examples so the bugs can never
quietly return (see docs/VERIFICATION.md for the stories).
"""

import pytest

from repro.core import compute_mii, modulo_schedule
from repro.core.mindist import compute_mindist, mindist_feasible
from repro.loopir import compile_loop_full
from repro.loopir.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Compare,
    If,
    IndirectRef,
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

from tests.conftest import traced_peak


def _verify(loop_or_source, machine, n=13, seeds=(0, 1, 2, 5)):
    if isinstance(loop_or_source, str):
        lowered = compile_loop_full(loop_or_source, machine, name="regression")
    else:
        lowered = lower_loop(loop_or_source, if_convert(loop_or_source), machine)
    result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
    for seed in seeds:
        report = check_equivalence(lowered, result.schedule, n=n, seed=seed)
        assert report.ok, report.describe()


@pytest.fixture(params=[cydra5, two_alu_machine])
def machine(request):
    return request.param()


class TestFuzzRegressions:
    def test_find1_assign_from_induction_variable(self, machine):
        """``s = i`` aliased the scalar to the induction recurrence and
        dropped its distance-1 read semantics."""
        _verify("for i in n:\n    s = i\n", machine)

    def test_find2_else_guard_staleness(self, machine):
        """The else-branch re-evaluated its condition after the
        then-branch redefined the scalar the condition reads."""
        _verify(
            "for i in n:\n"
            "    if 0.0 < s:\n"
            "        s = 0.0\n"
            "    else:\n"
            "        s = 1.0\n",
            machine,
        )

    def test_find3_while_condition_array_missing(self, machine):
        """An array read only by the while-condition was absent from
        Loop.arrays(), so the simulators had no storage for it."""
        _verify("for i in n while 0.0 < a[i]:\n    s = 0.0\n", machine)

    def test_find4_carried_scalar_aliasing(self, machine):
        """Two loop-carried scalars aliased to one defining op collapsed
        their distinct initial values."""
        loop = Loop(
            ivar="i",
            trip="n",
            body=[
                If(
                    Compare("<", Scalar("s"), Num(0.0)),
                    [Assign("u", Num(0.0))],
                    [],
                ),
                Assign("s", Scalar("u")),
            ],
            name="alias",
        )
        _verify(loop, machine)

    def test_find5_stale_indirect_condition(self, machine):
        """A cached predicate reading an array *indirectly* was not
        invalidated by a store to that array."""

        def cond():
            return Compare(
                ">",
                BinOp(
                    "-",
                    Call("neg", (Scalar("t"),)),
                    Call("abs", (IVar(),)),
                ),
                IndirectRef("c", ArrayRef("idx", 1)),
            )

        loop = Loop(
            ivar="i",
            trip="n",
            body=[
                Assign("s", Num(0.0)),
                If(cond(), [Assign("s", Num(0.0))], []),
                Store("c", 0, Num(0.0)),
                If(cond(), [Assign("u", ArrayRef("a", 0))], []),
            ],
            name="stale",
        )
        _verify(loop, machine, n=11)

    def test_find7_else_guard_of_a_repeated_condition(self, machine):
        """The second If's else-guard reused the first If's negated
        predicate: the two conditions are structurally equal, but the
        first If's then-branch changed the scalar they read."""
        _verify(
            "for i in n:\n"
            "    if x[i] < s:\n"
            "        s = 0.0\n"
            "    else:\n"
            "        t = 0.0\n"
            "    if x[i] < s:\n"
            "        t = 0.0\n"
            "    else:\n"
            "        s = b[i]\n",
            machine,
        )

    def test_pass_through_chain_of_aliases(self, machine):
        """Deeper variant of find 4: a chain of pass-throughs."""
        _verify(
            "for i in n:\n"
            "    t = u\n"
            "    u = s\n"
            "    s = x[i]\n"
            "    y[i] = t + u + s\n",
            machine,
        )


def test_find6_dense_recurrence_in_bounded_memory():
    """A 37-op loop (156 edges, one 23-op SCC) on which a once-per-graph
    parametric MinDist closure grew to 1.6 GB of Pareto planes.  The
    per-SCC ComputeMinDist search answers in well under 16 MiB."""
    machine = two_alu_machine()
    loop = Loop("i", "n", [
        If(Compare("<", Num(3.0), Num(0.0)),
           [Assign("t", Num(-2.34)), Store("c", 1, Scalar("t"))],
           [Assign("s", IndirectRef("a", ArrayRef("idx", 0)))]),
        If(Compare("<", BinOp("+", Num(0.0), ArrayRef("a", -2)), Num(2.0)),
           [Store("a", 2, Num(-0.0)),
            Store("c", 2, BinOp("-", BinOp("+", ArrayRef("b", 1), ArrayRef("a", 0)),
                                IndirectRef("a", ArrayRef("idx", -1))))],
           [Assign("t", BinOp("-", Scalar("u"), IVar())), Assign("u", ArrayRef("a", 2))]),
        Store("a", 2, BinOp("*", Num(3.47), ArrayRef("c", 0))),
        If(Compare(">=", IndirectRef("c", ArrayRef("idx", 0)), Num(-1.26)),
           [Store("a", 1, ArrayRef("b", 1))], []),
    ], name="fuzz")
    graph = lower_loop(loop, if_convert(loop), machine).graph
    assert (graph.n_ops, graph.n_edges) == (37, 156)
    result, peak = traced_peak(compute_mii, graph, machine)
    assert (result.mii, result.rec_mii) == (18, 15)
    assert peak < 16 * 2**20
    assert mindist_feasible(compute_mindist(graph, result.rec_mii)[0])
    assert not mindist_feasible(compute_mindist(graph, result.rec_mii - 1)[0])
    _verify(loop, machine)
