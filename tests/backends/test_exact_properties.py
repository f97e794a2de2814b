"""Property-based soundness tests for the exact (SAT) backend.

Two families of guarantees are exercised here, on randomly generated
small graphs (hypothesis shrinks counterexamples to minimal form):

* the backend ordering invariant — ``exact II <= IMS II <= list SL``,
  with the exact II never below the MII lower bound; and
* certificate soundness — when the exact backend claims a proven-minimal
  II, re-timing the very same assignment at any lower II must make the
  independent validator report violations (if it did not, a legal
  schedule below the "proven minimum" would exist, contradicting the
  proof).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.backends import IIPolicy, get_backend
from repro.check import check_schedule
from repro.core import compute_mii
from repro.core.schedule import Schedule
from repro.ir import DependenceGraph, DependenceKind
from repro.machine import (
    bus_conflict_machine,
    single_alu_machine,
    two_alu_machine,
)

_OPCODES = ["fadd", "fsub", "fmul", "load", "store", "copy"]

#: Reduced solver budgets: the generated graphs have <= 6 operations,
#: so every solvable instance fits far below these caps and anything
#: that does not is reported honestly as unproven rather than hanging
#: the suite.  The conflict cap matters most — a single adversarial
#: probe at the default 200k conflicts can burn minutes.
_POLICY_KW = dict(
    max_time_vars=2500, max_clauses=10000, max_conflicts=5000
)


@st.composite
def random_graphs(draw):
    """A small random graph over a machine with real resource contention."""
    machine = draw(
        st.sampled_from(
            [single_alu_machine(), two_alu_machine(), bus_conflict_machine()]
        )
    )
    n = draw(st.integers(min_value=1, max_value=6))
    opcodes = sorted(set(_OPCODES) & set(machine.opcode_names))
    graph = DependenceGraph(machine, name="prop")
    ops = [
        graph.add_operation(draw(st.sampled_from(opcodes)), dest=f"v{i}")
        for i in range(n)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a < b:
            distance = draw(st.integers(min_value=0, max_value=2))
        else:
            distance = draw(st.integers(min_value=1, max_value=3))
        kind = draw(
            st.sampled_from(
                [
                    DependenceKind.FLOW,
                    DependenceKind.ANTI,
                    DependenceKind.OUTPUT,
                ]
            )
        )
        graph.add_edge(ops[a], ops[b], kind, distance=distance)
    graph.seal()
    return machine, graph


_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _exact():
    return get_backend("exact", **_POLICY_KW)


def _retimed(schedule: Schedule, ii: int) -> Schedule:
    """The same assignment (times, alternatives) declared at a lower II."""
    return Schedule(
        schedule.graph,
        ii,
        dict(schedule.times),
        dict(schedule.alternatives),
    )


class TestBackendOrdering:
    @given(random_graphs())
    @_SETTINGS
    def test_exact_below_ims_below_list_and_valid(self, machine_graph):
        machine, graph = machine_graph
        mii = compute_mii(graph, machine, exact=True).mii
        exact = _exact().schedule(graph, machine, IIPolicy())
        ims = get_backend("ims").schedule(graph, machine, IIPolicy())
        lst = get_backend("list").schedule(graph, machine, IIPolicy())
        assert mii <= exact.ii <= ims.ii <= lst.ii
        assert exact.optimal in (True, None)
        diags = check_schedule(graph, machine, exact.schedule)
        assert diags.ok, diags.render()


class TestCertificateSoundness:
    @given(random_graphs())
    @_SETTINGS
    def test_minimality_claims_are_certified_and_unbeatable(
        self, machine_graph
    ):
        machine, graph = machine_graph
        mii = compute_mii(graph, machine, exact=True).mii
        result = _exact().schedule(graph, machine, IIPolicy())
        if result.optimal is not True:
            return  # unproven: no minimality claim to attack
        certs = result.certificates
        assert result.ii in certs and certs[result.ii]["status"] == "sat"
        for lower in range(mii, result.ii):
            assert certs[lower]["status"] in ("unsat", "infeasible")
            diags = check_schedule(
                graph, machine, _retimed(result.schedule, lower)
            )
            assert not diags.ok, (
                f"proven-minimal II={result.ii} but the same assignment "
                f"passed validation at II={lower}"
            )


class TestKnownCounterexample:
    """A fixed 3-op loop on the bus-conflict machine whose MII=3 is
    infeasible: the exact backend must refute II=3 and prove II=4."""

    @pytest.fixture(scope="class")
    def instance(self):
        machine = bus_conflict_machine()
        graph = DependenceGraph(machine, name="bus3")
        a = graph.add_operation("fadd", dest="v0")
        b = graph.add_operation("fmul", dest="v1")
        c = graph.add_operation("fsub", dest="v2")
        graph.add_edge(c, c, DependenceKind.FLOW, distance=2)
        graph.add_edge(b, a, DependenceKind.FLOW, distance=1)
        graph.add_edge(b, b, DependenceKind.OUTPUT, distance=2)
        graph.add_edge(c, c, DependenceKind.FLOW, distance=3)
        graph.add_edge(c, a, DependenceKind.OUTPUT, distance=1)
        graph.seal()
        return machine, graph, (a, b, c)

    def test_proves_ii_4_with_refutation_at_mii(self, instance):
        machine, graph, _ = instance
        mii = compute_mii(graph, machine, exact=True).mii
        assert mii == 3
        result = _exact().schedule(graph, machine, IIPolicy())
        assert result.ii == 4
        assert result.optimal is True
        assert result.certificates[3]["status"] in ("unsat", "infeasible")
        assert result.certificates[4]["status"] == "sat"
        if result.certificates[3]["status"] == "unsat":
            assert result.certificates[3]["solver"] == "cdcl"
        assert check_schedule(graph, machine, result.schedule).ok

    def test_retimed_below_proof_fails_validation(self, instance):
        machine, graph, _ = instance
        result = _exact().schedule(graph, machine, IIPolicy())
        diags = check_schedule(graph, machine, _retimed(result.schedule, 3))
        assert not diags.ok
        assert diags.errors

    def test_tampered_time_fails_validation(self, instance):
        machine, graph, ops = instance
        a, b, _ = ops
        result = _exact().schedule(graph, machine, IIPolicy())
        times = dict(result.schedule.times)
        # Violate the b -> a flow dependence (distance 1): pull the
        # consumer far before the producer's completion.
        times[a] = times[b] - 2 * result.ii
        tampered = Schedule(
            graph, result.ii, times, dict(result.schedule.alternatives)
        )
        diags = check_schedule(graph, machine, tampered)
        assert not diags.ok
