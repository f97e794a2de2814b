"""The per-instance pipelined interpreter: a test oracle for ``repro.simulator.pipeline``.

This is the executor the simulator shipped before it became a compiled
plan, kept verbatim.  It resolves everything on every operation
instance: the operation and its latency through the graph, each operand
descriptor, the readiness arithmetic, a dict of values keyed by
``(op, iteration)``, and a rescan of the pending store commits at every
event.  It shares the opcode semantics tables and
:class:`~repro.simulator.pipeline.SimulationError` with the plan and
nothing else, so the plan must reach exactly its outcome: the same final
arrays and scalars, or the same exception with the same message.

``tests/simulator/test_plan_differential.py`` drives both on every DSL
kernel and on hypothesis-perturbed schedules.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.schedule import Schedule
from repro.loopir.lower import LoweredLoop
from repro.simulator.pipeline import (
    _ARITH,
    _COMPARE,
    _PREDICATE,
    _UNARY,
    SimulationError,
)
from repro.simulator.state import LoopState


class _Executor:
    def __init__(
        self,
        lowered: LoweredLoop,
        schedule: Schedule,
        state: LoopState,
        n: int,
        check_ready: bool,
    ) -> None:
        self.lowered = lowered
        self.schedule = schedule
        self.graph = lowered.graph
        self.state = state
        self.n = n
        self.check_ready = check_ready
        self.initial_scalars = dict(state.scalars)
        self.values: Dict[Tuple[int, int], object] = {}
        self.carried_by_op = {op: name for name, op in lowered.carried_defs.items()}

    # -- operand resolution ------------------------------------------------

    def _initial_value(self, op: int) -> float:
        operation = self.graph.operation(op)
        role = operation.attrs.get("role")
        if role in ("address", "ivar"):
            return 0.0
        if role == "alive":
            return True  # alive[-1]: the loop is entered
        name = self.carried_by_op.get(op)
        if name is not None:
            return self.initial_scalars[name]
        raise SimulationError(
            f"operation {op} read at a negative iteration but has no "
            "initial value"
        )

    def _flow_edge(self, producer: int, consumer: int, distance: int):
        """The graph's flow edge behind an operand read, if it has one."""
        for edge in self.graph.succ_edges(producer):
            if (
                edge.succ == consumer
                and edge.distance == distance
                and edge.kind.value == "flow"
            ):
                return edge
        return None

    def _operand(self, descriptor: tuple, k: int, use_time: int, consumer: int):
        kind = descriptor[0]
        if kind == "const":
            return descriptor[1]
        if kind == "livein":
            try:
                return self.initial_scalars[descriptor[1]]
            except KeyError:
                raise SimulationError(
                    f"live-in scalar {descriptor[1]!r} missing from state"
                ) from None
        if kind != "op":
            raise SimulationError(f"unresolved operand descriptor {descriptor!r}")
        _, producer, distance = descriptor
        j = k - distance
        if j < 0:
            return self._initial_value(producer)
        if self.check_ready:
            available = (
                j * self.schedule.ii
                + self.schedule.times[producer]
                + self.graph.latency(producer)
            )
            if use_time < available:
                edge = self._flow_edge(producer, consumer, distance)
                edge_text = (
                    f"edge {edge.pred}->{edge.succ} distance={edge.distance} "
                    f"delay={edge.delay}"
                    if edge is not None
                    else f"implicit flow {producer}->{consumer} "
                    f"distance={distance} "
                    f"latency={self.graph.latency(producer)}"
                )
                raise SimulationError(
                    f"dynamic dependence violated at cycle {use_time}: op "
                    f"{consumer} ({self.graph.operation(consumer).opcode!r}, "
                    f"iteration {k}, t={self.schedule.times[consumer]}) reads "
                    f"op {producer} "
                    f"({self.graph.operation(producer).opcode!r}, iteration "
                    f"{j}, t={self.schedule.times[producer]}) before it "
                    f"completes at cycle {available}; violated {edge_text}"
                )
        try:
            return self.values[(producer, j)]
        except KeyError:
            raise SimulationError(
                f"op {consumer} at cycle {use_time} requested the value of "
                f"op {producer} iteration {j} before it executed"
            ) from None

    # -- one operation instance ---------------------------------------------

    def _execute(self, op: int, k: int, issue: int, commits: List) -> None:
        operation = self.graph.operation(op)
        opcode = operation.opcode
        operands = operation.attrs.get("operands", ())
        if opcode == "load":
            array = self.state.arrays[operation.attrs["array"]]
            # Touch the address operand so readiness is checked.
            self._operand(operands[0], k, issue, op)
            if operation.attrs.get("indirect"):
                position = int(self._operand(operands[1], k, issue, op))
            else:
                position = k + operation.attrs["offset"]
            self.values[(op, k)] = array[position]
            return
        if opcode == "store":
            address, value = operands[0], operands[1]
            self._operand(address, k, issue, op)
            committed = self._operand(value, k, issue, op)
            cursor = 2
            if operation.attrs.get("indirect"):
                position = int(self._operand(operands[cursor], k, issue, op))
                cursor += 1
            else:
                position = k + operation.attrs["offset"]
            take = True
            if operation.attrs.get("predicated"):
                take = bool(self._operand(operands[cursor], k, issue, op))
            if take:
                commits.append(
                    (
                        issue + self.graph.latency(op),
                        operation.attrs["array"],
                        position,
                        committed,
                    )
                )
            self.values[(op, k)] = None
            return
        if opcode == "brtop":
            self.values[(op, k)] = None
            return
        if opcode == "limm":
            self.values[(op, k)] = operands[0][1]
            return
        if operation.attrs.get("role") in ("address", "ivar"):
            # Address/induction recurrences produce the iteration index.
            self._operand(operands[0], k, issue, op)
            self.values[(op, k)] = float(k + 1)
            return
        args = [self._operand(d, k, issue, op) for d in operands]
        if opcode == "select":
            predicate, if_true, if_false = args
            self.values[(op, k)] = if_true if bool(predicate) else if_false
        elif opcode == "pnot":
            self.values[(op, k)] = not bool(args[0])
        elif opcode in _COMPARE:
            self.values[(op, k)] = _COMPARE[opcode](args[0], args[1])
        elif opcode in _PREDICATE:
            self.values[(op, k)] = _PREDICATE[opcode](args[0], args[1])
        elif opcode in _UNARY:
            self.values[(op, k)] = _UNARY[opcode](args[0])
        elif opcode in _ARITH:
            self.values[(op, k)] = _ARITH[opcode](args[0], args[1])
        else:
            raise SimulationError(f"no semantics for opcode {opcode!r}")

    # -- the run -------------------------------------------------------------

    def run(self) -> LoopState:
        """Play every operation instance in global time order."""
        events: List[Tuple[int, int, int, int]] = []
        for op in range(self.graph.n_ops):
            if self.graph.operation(op).is_pseudo:
                continue
            t = self.schedule.times[op]
            for k in range(self.n):
                events.append((k * self.schedule.ii + t, k, op))
        # Stable order: by cycle, then iteration, then operation index.
        events.sort()
        pending_commits: List[Tuple[int, str, int, float]] = []
        for issue, k, op in events:
            # Commit every store due at or before this cycle first: a load
            # sampling at cycle t sees stores committed at cycle <= t.
            if pending_commits:
                due = [c for c in pending_commits if c[0] <= issue]
                if due:
                    due.sort()
                    for _, array, index, value in due:
                        self.state.arrays[array][index] = value
                    pending_commits = [c for c in pending_commits if c[0] > issue]
            self._execute(op, k, issue, pending_commits)
        pending_commits.sort()
        for _, array, index, value in pending_commits:
            self.state.arrays[array][index] = value
        # WHILE-loops: find the exit iteration from the alive predicate.
        # Iterations at and beyond it executed speculatively — their
        # stores were suppressed by the alive guard, and their scalar
        # values must not be written back.
        last = self.n
        alive = self.lowered.alive_op
        if alive is not None:
            for k in range(self.n):
                if not self.values[(alive, k)]:
                    last = k
                    break
        # Write back the final value of every assigned scalar.
        if last > 0:
            for name, op in self.lowered.final_defs.items():
                self.state.scalars[name] = self.values[(op, last - 1)]
        return self.state


def run_pipelined(
    lowered: LoweredLoop,
    schedule: Schedule,
    state: LoopState,
    n: int,
    check_ready: bool = True,
) -> LoopState:
    """Execute ``n`` iterations of ``schedule``, mutating and returning state.

    With ``check_ready=True`` (the default) every operand read asserts the
    producing instance has completed — a dynamic flow-dependence check on
    top of the value-level equivalence the caller compares.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    return _Executor(lowered, schedule, state, n, check_ready).run()
