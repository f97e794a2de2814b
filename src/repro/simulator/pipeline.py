"""Pipelined executor: runs a modulo schedule against real state.

Iteration ``k`` of a modulo schedule issues operation ``op`` at cycle
``k * II + time(op)``.  This executor plays all ``n`` iterations in global
time order — which covers the pipeline's fill (prologue), steady state
(kernel) and drain (epilogue) implicitly — with the memory semantics that
make dependence mistakes *observable*:

* a load samples memory at its issue cycle;
* a store evaluates its operands at its issue cycle and commits to memory
  one cycle later (its latency); commits at cycle ``t`` happen before
  samples at cycle ``t``.

So if the front end got a memory dependence distance wrong, or the
scheduler violated an edge, the final state differs from the sequential
reference.  Scalar dataflow follows the operand descriptors produced by
lowering (EVR semantics: instance ``k`` of a consumer at distance ``d``
reads instance ``k - d`` of the producer; negative instances read the
loop's initial state).  With ``check_ready=True`` every operand read also
asserts that the producing instance has completed, a dynamic re-statement
of the flow-dependence constraint.

Arithmetic beneath an untaken predicate executes speculatively (as the
hardware would); potentially-faulting speculative operations return IEEE
poison values (NaN/inf) instead of raising, and the ``select`` that merges
the result discards them.

The executor is a plan built once per call.  Kernel row ``t mod II``
holds the operations of stages ``t div II``: walking the rows cycle by
cycle, stages descending, then by op, yields the events in (cycle,
iteration, op) order.  Each operation's latency, semantics and readers
are resolved once; its values live in one list indexed by iteration.
Readiness is fixed per read: ``k*II + t_c < (k-d)*II + t_p + lat_p``
reduces to ``t_c + d*II < t_p + lat_p``, and so is whether the
producer's instance has issued yet.  An operation whose reads all
succeed runs a closure with no per-instance checks; any other checks its
reads per instance, in the interpreter's order, and raises the same
:class:`SimulationError` from the same event.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.core.schedule import Schedule
from repro.loopir.lower import LoweredLoop
from repro.simulator.state import LoopState


class SimulationError(RuntimeError):
    """A dynamic dependence violation or an unexecutable operation."""


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0:
            return math.nan
        return math.copysign(math.inf, a)
    return a / b


def _safe_sqrt(a: float) -> float:
    if a < 0.0:
        return math.nan
    return math.sqrt(a)


_ARITH = {
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "fdiv": _safe_div,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _safe_div,
    "aadd": operator.add,
    "asub": operator.sub,
    "fmin": min,
    "fmax": max,
}
_UNARY = {
    "fabs": abs,
    "fneg": operator.neg,
    "fsqrt": _safe_sqrt,
    "copy": lambda a: a,
    "pnot": operator.not_,
}
_COMPARE = {
    "cmp_lt": operator.lt,
    "cmp_le": operator.le,
    "cmp_eq": operator.eq,
    "cmp_ne": operator.ne,
    "cmp_gt": operator.gt,
    "cmp_ge": operator.ge,
}
_PREDICATE = {
    "pand": lambda a, b: bool(a) and bool(b),
    "por": lambda a, b: bool(a) or bool(b),
}


#: The two-operand opcodes: arithmetic, comparisons, predicate combines.
_BINARY = {**_ARITH, **_COMPARE, **_PREDICATE}


class _Plan:
    """One run of a schedule, with every per-(loop, schedule) fact resolved.

    Operation ``op`` at iteration ``k`` writes ``values[op][depth[op] + k]``.
    The first ``depth[op]`` cells (the deepest distance ``op`` is read at)
    hold its initial value, the value of every negative iteration.
    """

    def __init__(self, lowered, schedule, state, n, check_ready) -> None:
        self.lowered, self.schedule, self.state = lowered, schedule, state
        self.graph, self.n, self.ii = lowered.graph, n, schedule.ii
        self.check_ready = check_ready
        self.initial_scalars = dict(state.scalars)
        self.carried_by_op = {op: name for name, op in lowered.carried_defs.items()}
        real = [op.index for op in self.graph.operations if not op.is_pseudo]
        self.times = {op: schedule.times[op] for op in real}
        self.depth = dict.fromkeys(real, 0)
        for op in real:
            for kind, *link in self.graph.operation(op).attrs.get("operands", ()):
                if kind == "op" and link[0] in self.depth:
                    self.depth[link[0]] = max(self.depth[link[0]], link[1])
        self.values: Dict[int, list] = {}
        for op, depth in self.depth.items():
            try:
                initial = self._initial_value(op) if depth else None
            except (SimulationError, KeyError):
                initial = None  # the reads below zero check and raise it
            self.values[op] = [initial] * depth + [None] * n
        self.commits: List[tuple] = []  # heap of (cycle, issue order, commit)
        self.issue_order = itertools.count()
        self.checked: List[int] = []  # operations that check every read
        # Kernel pass q issues iteration q - stage of entry (row, stage, step)
        # at cycle q*II + row; rows, then stages descending, then ops give
        # the (cycle, iteration, op) order.
        ii = self.ii
        slots = sorted((t % ii, -(t // ii), op) for op, t in self.times.items())
        self.kernel = [(row, -s, self._step(op)) for row, s, op in slots]
        stages = [stage for _, stage, _ in self.kernel] or [0]
        self.passes = range(min(stages), max(stages) + n)

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

    def _issued_before(self, producer: int, distance: int, consumer: int) -> bool:
        """Whether instance ``k - distance`` of ``producer`` issues before
        instance ``k`` of ``consumer``: the same answer for every ``k``."""
        times = self.times
        return producer in times and (
            times[producer] - distance * self.ii, -distance, producer
        ) < (times[consumer], 0, consumer)

    def _safe(self, descriptor: tuple, consumer: int) -> bool:
        """Whether reading ``descriptor`` succeeds at every iteration.

        Iteration 0 reads the initial value when ``distance > 0``; at
        every ``k >= distance`` the checks compare the same times, so
        iteration ``distance`` answers for all of them.
        """
        distance = descriptor[2] if descriptor[0] == "op" else 0
        try:
            for k in {0, distance}:
                issue = k * self.ii + self.times[consumer]
                self._check(descriptor, k, issue, consumer)
        except (SimulationError, KeyError):
            return False
        return distance >= 0

    def _reader(self, descriptor: tuple) -> Tuple[list, int]:
        """``(cells, offset)``: iteration ``k`` reads ``cells[offset + k]``."""
        kind = descriptor[0]
        if kind == "const":
            return [descriptor[1]] * self.n, 0
        if kind == "livein":
            return [self.initial_scalars.get(descriptor[1])] * self.n, 0
        if kind == "op" and descriptor[1] in self.values:
            _, producer, distance = descriptor
            return self.values[producer], self.depth[producer] - distance
        return [None] * self.n, 0  # never read: its check always raises

    def _step(self, op: int) -> Callable[[int], None]:
        """Iteration ``k`` of ``op``: its closure, behind per-instance
        checks of its reads when one of them can fail."""
        reads, step = self._compile(op)
        if all(self._safe(descriptor, op) for descriptor in reads):
            return step
        self.checked.append(op)
        return partial(self._checked, op, reads, step)

    def _compile(self, op: int) -> Tuple[tuple, Callable[[int], None]]:
        """The descriptors ``op`` reads, in the interpreter's order, and the
        closure running one instance on unchecked reads."""
        operation = self.graph.operation(op)
        opcode, attrs = operation.opcode, operation.attrs
        operands = attrs.get("operands", ())
        out, o = self.values[op], self.depth[op]
        if opcode in ("brtop", "limm"):
            if opcode == "limm":  # reads see only issued instances
                out[o:] = [operands[0][1]] * self.n
            return (), lambda k: None
        readers = [self._reader(descriptor) for descriptor in operands]
        if opcode == "load":
            array = self.state.arrays[attrs["array"]]
            cells, get = array.cells(), array.__getitem__
            if attrs.get("indirect"):
                index, at = readers[1]
                def step(k):
                    out[o + k] = get(int(index[at + k]))
            elif 0 <= attrs["offset"] + array.halo <= len(cells) - self.n:
                at = attrs["offset"] + array.halo  # in bounds at every k
                def step(k):
                    out[o + k] = cells[at + k]
            else:
                offset = attrs["offset"]
                def step(k):
                    out[o + k] = get(k + offset)
        elif opcode == "store":
            (value, vo), rest = readers[1], iter(readers[2:])
            index, io = next(rest) if attrs.get("indirect") else (None, 0)
            guard, go = next(rest) if attrs.get("predicated") else (None, 0)
            offset = None if index is not None else attrs["offset"]
            name, t, ii = attrs["array"], self.times[op], self.ii
            latency, commits = self.graph.latency(op), self.commits
            issue_order = self.issue_order
            def step(k):
                position = k + offset if index is None else int(index[io + k])
                if guard is None or guard[go + k]:
                    due = k * ii + t + latency
                    commit = (due, name, position, value[vo + k])
                    heapq.heappush(commits, (due, next(issue_order), commit))
        elif attrs.get("role") in ("address", "ivar"):
            # Address/induction recurrences produce the iteration index.
            def step(k):
                out[o + k] = float(k + 1)
            return operands[:1], step
        elif opcode == "select":
            (p, po), (a, ao), (b, bo) = readers
            def step(k):
                out[o + k] = a[ao + k] if p[po + k] else b[bo + k]
        elif opcode in _UNARY:
            fn, ((a, ao),) = _UNARY[opcode], readers[:1]
            def step(k):
                out[o + k] = fn(a[ao + k])
        elif opcode in _BINARY:
            fn, ((a, ao), (b, bo)) = _BINARY[opcode], readers[:2]
            def step(k):
                out[o + k] = fn(a[ao + k], b[bo + k])
        else:
            def step(k):
                raise SimulationError(f"no semantics for opcode {opcode!r}")
        return operands, step

    # -- per-instance checks, for reads that can fail ------------------------

    def _flow_edge(self, producer: int, consumer: int, distance: int):
        """The graph's flow edge behind an operand read, if it has one."""
        for edge in self.graph.succ_edges(producer):
            link = (edge.succ, edge.distance, edge.kind.value)
            if link == (consumer, distance, "flow"):
                return edge
        return None

    def _check(self, descriptor: tuple, k: int, use_time: int, consumer: int):
        """Raise whatever reading ``descriptor`` at iteration ``k`` raises."""
        kind = descriptor[0]
        if kind == "const":
            return
        if kind == "livein":
            if descriptor[1] not in self.initial_scalars:
                raise SimulationError(
                    f"live-in scalar {descriptor[1]!r} missing from state"
                )
            return
        if kind != "op":
            raise SimulationError(f"unresolved operand descriptor {descriptor!r}")
        _, producer, distance = descriptor
        j = k - distance
        if j < 0:
            self._initial_value(producer)
            return
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
        if j >= self.n or not self._issued_before(producer, distance, consumer):
            raise SimulationError(
                f"op {consumer} at cycle {use_time} requested the value of "
                f"op {producer} iteration {j} before it executed"
            )

    def _checked(self, op: int, reads: tuple, step, k: int) -> None:
        issue = k * self.ii + self.times[op]
        for descriptor in reads:
            self._check(descriptor, k, issue, op)
        step(k)

    def _flush(self, cycle: float) -> None:
        """Apply the stores due by ``cycle`` as the interpreter did: sorted
        by (cycle, array, index, value) from issue order, which also fixes
        where NaN values, unordered under ``<``, land."""
        commits, due = self.commits, []
        while commits and commits[0][0] <= cycle:
            due.append(heapq.heappop(commits))
        due.sort(key=operator.itemgetter(1))
        for _, array, index, value in sorted([entry[2] for entry in due]):
            self.state.arrays[array][index] = value

    def run(self) -> LoopState:
        """Play every operation instance in global time order."""
        n, ii, commits, flush = self.n, self.ii, self.commits, self._flush
        for q in self.passes:
            cycle = q * ii
            for row, stage, step in self.kernel:
                k = q - stage
                if 0 <= k < n:
                    # A load sampling at cycle t sees the stores
                    # committed at cycle <= t.
                    if commits and commits[0][0] <= cycle + row:
                        flush(cycle + row)
                    step(k)
        flush(math.inf)
        # WHILE-loops: find the exit iteration from the alive predicate.
        # Iterations at and beyond it executed speculatively — their
        # stores were suppressed by the alive guard, and their scalar
        # values must not be written back.
        last = n
        alive = self.lowered.alive_op
        if alive is not None:
            flags = self.values[alive][self.depth[alive] :]
            last = next((k for k, flag in enumerate(flags) if not flag), n)
        # Write back the final value of every assigned scalar.
        if last > 0:
            for name, op in self.lowered.final_defs.items():
                value = self.values[op][self.depth[op] + last - 1]
                self.state.scalars[name] = value
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
    top of the value-level equivalence the caller compares.  ``n < 0``
    and ``II < 1`` raise :class:`ValueError`.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    if schedule.ii < 1:
        raise ValueError(f"initiation interval must be >= 1, got {schedule.ii}")
    return _Plan(lowered, schedule, state, n, check_ready).run()
