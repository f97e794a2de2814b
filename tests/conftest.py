"""Shared fixtures and graph-building helpers for the test suite."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import settings

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from repro.ir import DependenceGraph, DependenceKind
from repro.machine import (
    bus_conflict_machine,
    cydra5,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)

#: Tier-1 draws the same examples on every run and replays no stored
#: counterexamples, so a change is judged only on its own merits.  The
#: CI fuzz job explores at random instead: ``--hypothesis-profile=fuzz``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False, print_blob=True)
settings.load_profile("tier1")

#: Address-space cap for the whole test session (``RLIMIT_AS``).  A kernel
#: whose memory has no bound then fails as a ``MemoryError``, with
#: hypothesis's shrunk example, instead of exhausting the machine.
SESSION_MEMORY_CAP = 4 * 1024**3


def pytest_configure(config):
    """Lower the soft address-space limit to the session cap.

    Only ever lowers it: a tighter limit set by the caller (``ulimit -v``)
    stays in force.
    """
    if resource is None:
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > SESSION_MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (SESSION_MEMORY_CAP, hard))


def traced_peak(function, *args, **kwargs):
    """``(result, peak bytes)`` of one call, as tracemalloc saw it."""
    tracemalloc.start()
    try:
        result = function(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def export_counters(records):
    """The counter metrics of ``repro.obs.v2`` records, by name."""
    return {
        record["name"]: record["value"]
        for record in records
        if record["type"] == "metric" and record["kind"] == "counter"
    }


@pytest.fixture
def alu():
    return single_alu_machine()


@pytest.fixture
def two_alu():
    return two_alu_machine()


@pytest.fixture
def cydra():
    return cydra5()


@pytest.fixture
def figure1_machine():
    return bus_conflict_machine()


@pytest.fixture
def superscalar():
    return superscalar_machine()


def chain_graph(machine, opcodes, name="chain"):
    """A sealed graph: a straight dependence chain of the given opcodes."""
    graph = DependenceGraph(machine, name=name)
    previous = None
    for index, opcode in enumerate(opcodes):
        op = graph.add_operation(opcode, dest=f"v{index}")
        if previous is not None:
            graph.add_edge(previous, op, DependenceKind.FLOW)
        previous = op
    return graph.seal()


def reduction_graph(machine, load_op="load", acc_op="fadd", name="reduce"):
    """load -> accumulate, with a distance-1 self recurrence on the add."""
    graph = DependenceGraph(machine, name=name)
    load = graph.add_operation(load_op, dest="v")
    acc = graph.add_operation(acc_op, dest="s", srcs=("s", "v"))
    graph.add_edge(load, acc, DependenceKind.FLOW)
    graph.add_edge(acc, acc, DependenceKind.FLOW, distance=1)
    return graph.seal()


def cross_iteration_graph(machine, distance=2, name="cross"):
    """Two-op circuit whose recurrence spans ``distance`` iterations."""
    graph = DependenceGraph(machine, name=name)
    a = graph.add_operation("fadd", dest="a", srcs=("b",))
    b = graph.add_operation("fmul", dest="b", srcs=("a",))
    graph.add_edge(a, b, DependenceKind.FLOW)
    graph.add_edge(b, a, DependenceKind.FLOW, distance=distance)
    return graph.seal()
