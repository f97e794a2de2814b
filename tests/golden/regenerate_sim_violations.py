"""Regenerate the simulator violation snapshot, ``sim_violations.json``.

Run from the repository root (as a module: two cases reuse helpers of
``tests/simulator/test_pipeline.py``)::

    PYTHONPATH=src python -m tests.golden.regenerate_sim_violations

Each case corrupts one schedule, or poisons one input state, and records
what :func:`repro.simulator.check_equivalence` reports: the
``describe()`` text, the diagnostic codes in order, and the full SIM001
mismatch list.  Those texts are the simulator's vocabulary: SIM002 names
the cycle, the two operations and the violated edge; a read of an
instance that has not issued yet names the instance; SIM001 lists the
cells that differ.  ``tests/simulator/test_violation_golden.py``
recomputes every case and compares, so a change to the executor has to
reproduce them byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

GOLDEN_PATH = Path(__file__).with_name("sim_violations.json")
FORMAT = "repro.golden-sim-violations.v1"


def _record(case: str, report) -> Dict[str, Any]:
    return {
        "case": case,
        "describe": report.describe(),
        "codes": [finding.code for finding in report.diagnostics()],
        "problems": list(report.problems),
    }


def _sim002_mutant():
    """The ``early-consumer`` mutant: a consumer at its producer's cycle."""
    from tests.check.mutate import DOT_SOURCE, _clone, _flow_edge, _scheduled
    from repro.simulator import check_equivalence

    lowered, schedule = _scheduled("cydra5", DOT_SOURCE)
    bad = _clone(schedule)
    edge = _flow_edge(bad.graph, min_delay=2)
    bad.times[edge.succ] = bad.times[edge.pred]
    return check_equivalence(lowered, bad, n=6)


def _saxpy_broken_times():
    """``TestViolationDetection._broken_times`` on saxpy, single ALU."""
    from repro.core import Schedule, modulo_schedule
    from repro.machine import single_alu_machine
    from repro.simulator import check_equivalence
    from tests.simulator.test_pipeline import TestViolationDetection, _compiled

    machine = single_alu_machine()
    lowered = _compiled("saxpy", machine)
    result = modulo_schedule(lowered.graph, machine)
    times = TestViolationDetection()._broken_times(lowered, result.schedule)
    broken = Schedule(
        lowered.graph, result.ii, times, dict(result.schedule.alternatives)
    )
    return check_equivalence(lowered, broken, n=10, seed=0)


def _consumer_before_producer():
    """A distance-0 consumer moved one cycle ahead of its producer's
    issue, with the readiness check off: the read finds no value yet."""
    from tests.check.mutate import DOT_SOURCE, _clone, _scheduled
    from repro.simulator import check_equivalence

    lowered, schedule = _scheduled("cydra5", DOT_SOURCE)
    graph, bad = lowered.graph, _clone(schedule)
    edge = next(
        e
        for e in graph.edges
        if e.kind.value == "flow"
        and e.distance == 0
        and not graph.operation(e.pred).is_pseudo
        and not graph.operation(e.succ).is_pseudo
        and bad.times[e.pred] >= 1
    )
    bad.times[edge.succ] = bad.times[edge.pred] - 1
    return check_equivalence(lowered, bad, n=6, check_ready=False)


def _sim001_mutant():
    """The ``stale-store`` mutant: a store deferred five IIs."""
    from tests.check.mutate import RECURRENCE_SOURCE, _clone, _scheduled
    from repro.simulator import check_equivalence

    lowered, schedule = _scheduled("cydra5", RECURRENCE_SOURCE)
    bad = _clone(schedule)
    store = next(
        op.index for op in bad.graph.real_operations() if op.opcode == "store"
    )
    bad.times[store] += 5 * bad.ii
    return check_equivalence(lowered, bad, n=8)


def _memory_distance_corruption():
    """``test_memory_distance_violation_changes_answer``'s schedule: the
    x load samples before the previous iteration's store commits."""
    from repro.core import Schedule, modulo_schedule
    from repro.machine import single_alu_machine
    from repro.simulator import check_equivalence
    from tests.simulator.test_pipeline import _compiled

    machine = single_alu_machine()
    lowered = _compiled("first_sum", machine)
    result = modulo_schedule(lowered.graph, machine)
    graph = lowered.graph
    times = dict(result.schedule.times)
    store = next(
        op.index for op in graph.real_operations() if op.opcode == "store"
    )
    load = next(
        op.index
        for op in graph.real_operations()
        if op.opcode == "load" and op.attrs.get("array") == "x"
    )
    for op in list(times):
        if op != graph.START:
            times[op] += result.ii
    times[load] = times[store] - result.ii
    broken = Schedule(graph, result.ii, times, dict(result.schedule.alternatives))
    return check_equivalence(lowered, broken, n=12, seed=3, check_ready=False)


def _poisoned_masked_divide(machine_name: str):
    """A clean run through speculative poison: zero divisors make the
    unguarded division produce NaN/inf, and the guard discards it."""
    from repro.core import modulo_schedule
    from repro.loopir import compile_loop_full
    from repro.machine import cydra5, single_alu_machine
    from repro.simulator import check_equivalence, make_initial_state
    from repro.workloads import KERNELS

    machine = {"cydra5": cydra5, "single_alu": single_alu_machine}[
        machine_name
    ]()
    lowered = compile_loop_full(
        KERNELS["masked_divide"].source, machine, name="masked_divide"
    )
    schedule = modulo_schedule(lowered.graph, machine, budget_ratio=6.0).schedule
    state = make_initial_state(lowered, 32, seed=3)
    for index in range(0, 32, 3):
        state.arrays["b"][index] = 0.0
    for index in range(0, 32, 6):
        state.arrays["a"][index] = 0.0
    return check_equivalence(lowered, schedule, n=32, state=state)


def compute_cases() -> List[Dict[str, Any]]:
    """Every case's record, in snapshot order."""
    return [
        _record("sim002-mutant", _sim002_mutant()),
        _record("saxpy-broken-times", _saxpy_broken_times()),
        _record("consumer-before-producer", _consumer_before_producer()),
        _record("sim001-mutant", _sim001_mutant()),
        _record("memory-distance", _memory_distance_corruption()),
        _record("poison-cydra5", _poisoned_masked_divide("cydra5")),
        _record("poison-single_alu", _poisoned_masked_divide("single_alu")),
    ]


def encode(cases: List[Dict[str, Any]]) -> str:
    """The snapshot text: indented, key-sorted JSON."""
    document = {"format": FORMAT, "cases": cases}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def load(path: Path = GOLDEN_PATH) -> List[Dict[str, Any]]:
    """The committed cases, in snapshot order."""
    document = json.loads(path.read_text())
    if document.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} document")
    return document["cases"]


def main(argv: List[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else GOLDEN_PATH
    cases = compute_cases()
    path.write_text(encode(cases))
    print(f"wrote {len(cases)} cases to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
