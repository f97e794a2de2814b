"""Conventional acyclic list scheduling of one loop iteration.

Only intra-iteration dependences (distance 0) constrain a single
iteration, so the scheduler works on the acyclic distance-0 subgraph with
the classic height-based priority.  Resources use a *linear* schedule
reservation table — unlike modulo scheduling there is no wrap-around, so a
conflict-free slot always exists and no operation is ever displaced.

The resulting schedule length is one of the two components of the paper's
lower bound on the modulo schedule length (Section 4.2), and the cost of
scheduling each operation exactly once is the paper's complexity yardstick
for iterative modulo scheduling.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.mrt import LinearReservations
from repro.core.schedule import Schedule
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph, GraphError
from repro.machine.resources import ReservationTable


def _acyclic_heights(graph: DependenceGraph) -> List[int]:
    """Height-based priority over the distance-0 subgraph.

    The distance-0 subgraph of a legal loop is a DAG (a zero-distance
    circuit would make every II infeasible), so a reverse topological pass
    suffices.
    """
    n = graph.n_ops
    heights = [0] * n
    order = _topological_order(graph)
    for op in reversed(order):
        best = 0
        for edge in graph.succ_edges(op):
            if edge.distance != 0:
                continue
            candidate = heights[edge.succ] + edge.delay
            if candidate > best:
                best = candidate
        heights[op] = best
    return heights


def _topological_order(graph: DependenceGraph) -> List[int]:
    """Topological order of the distance-0 subgraph (Kahn's algorithm)."""
    n = graph.n_ops
    in_degree = [0] * n
    for edge in graph.edges:
        if edge.distance == 0 and edge.pred != edge.succ:
            in_degree[edge.succ] += 1
    ready = [op for op in range(n) if in_degree[op] == 0]
    order: List[int] = []
    while ready:
        op = ready.pop()
        order.append(op)
        for edge in graph.succ_edges(op):
            if edge.distance != 0 or edge.succ == edge.pred:
                continue
            in_degree[edge.succ] -= 1
            if in_degree[edge.succ] == 0:
                ready.append(edge.succ)
    if len(order) != n:
        raise GraphError(
            f"graph {graph.name!r} has a zero-distance dependence circuit"
        )
    return order


def list_schedule(
    graph: DependenceGraph,
    machine,
    counters: Optional[Counters] = None,
) -> Schedule:
    """List-schedule one iteration; returns a :class:`Schedule`.

    The returned schedule's ``ii`` is its schedule length (iterations do
    not overlap), clamped to at least 1.
    """
    if not graph.sealed:
        raise GraphError(f"graph {graph.name!r} must be sealed")
    heights = _acyclic_heights(graph)
    reservations = LinearReservations(machine=machine)
    times: Dict[int, int] = {}
    alts: Dict[int, Optional[ReservationTable]] = {}

    remaining_preds = [0] * graph.n_ops
    for edge in graph.edges:
        if edge.distance == 0 and edge.pred != edge.succ:
            remaining_preds[edge.succ] += 1
    ready: List[Tuple[int, int]] = []
    for op in range(graph.n_ops):
        if remaining_preds[op] == 0:
            heapq.heappush(ready, (-heights[op], op))

    scheduled = 0
    while ready:
        _, op = heapq.heappop(ready)
        estart = 0
        for edge in graph.pred_edges(op):
            if counters is not None:
                counters.estart_preds += 1
            if edge.distance != 0 or edge.pred == op:
                continue
            candidate = times[edge.pred] + edge.delay
            if candidate > estart:
                estart = candidate
        operation = graph.operation(op)
        if operation.is_pseudo:
            times[op] = estart
            alts[op] = None
        else:
            alternatives = machine.opcode(operation.opcode).alternatives
            time = estart
            placed = False
            while not placed:
                if counters is not None:
                    counters.findtimeslot_iters += 1
                for alternative in alternatives:
                    if not reservations.conflicts(alternative, time):
                        reservations.reserve(op, alternative, time)
                        times[op] = time
                        alts[op] = alternative
                        placed = True
                        break
                else:
                    time += 1
        if counters is not None:
            counters.ops_scheduled += 1
        scheduled += 1
        for edge in graph.succ_edges(op):
            if edge.distance != 0 or edge.succ == op:
                continue
            remaining_preds[edge.succ] -= 1
            if remaining_preds[edge.succ] == 0:
                heapq.heappush(ready, (-heights[edge.succ], edge.succ))

    if scheduled != graph.n_ops:
        raise GraphError(
            f"graph {graph.name!r}: list scheduling covered {scheduled} of "
            f"{graph.n_ops} operations"
        )
    length = times[graph.stop]
    # modulo=False: the reservations above are linear, so validators must
    # not fold them at t mod II — at II = SL a trailing resource use would
    # wrap onto cycle 0 and report a conflict the execution never has.
    return Schedule(graph, max(1, length), times, alts, modulo=False)


def list_schedule_length(
    graph: DependenceGraph,
    machine,
    counters: Optional[Counters] = None,
) -> int:
    """Schedule length achieved by acyclic list scheduling (Section 4.2)."""
    return list_schedule(graph, machine, counters).times[graph.stop]
