"""The method-per-step IterativeSchedule: a test oracle for ``repro.core.scheduler``.

These are the operation scheduler, its greedy ablation and the
instruction-driven style as ``repro.core.scheduler`` and
``repro.core.instruction_scheduler`` shipped them before the attempt
became one fused loop over per-attempt tables, kept verbatim: a
``_prepare`` step per attempt (with the ``_sched_cache`` memo it leaves
on the graph and the numpy Estart for high-fanin operations), then one
method call per pop, Estart, FindTimeSlot, placement and displacement,
each billing ``Counters`` field by field.  They share the priority
schemes, the attempt result type and the modulo reservation table with
the production schedulers and nothing else, so the fused attempt must
reach exactly their outcome: the same success, times, alternatives and
steps, the same ``Counters`` and the same ``ScheduleTrace`` events.

``tests/core/test_scheduler_differential.py`` drives both.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.deadline import Deadline
from repro.core.mrt import ModuloReservations
from repro.core.scheduler import PRIORITY_SCHEMES, _AttemptResult
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph, GraphError
from repro.machine.resources import ReservationTable


class IterativeScheduler:
    """One invocation of ``IterativeSchedule`` (Figure 3) at a fixed II."""

    #: Whether a failed FindTimeSlot may force a slot and displace
    #: conflicting operations.  The greedy (non-iterative) subclass turns
    #: this off to quantify what iteration itself buys.
    allow_displacement = True

    def __init__(
        self,
        graph: DependenceGraph,
        machine,
        ii: int,
        counters: Optional[Counters] = None,
        priority: str = "heightr",
        trace=None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        if not graph.sealed:
            raise GraphError(f"graph {graph.name!r} must be sealed")
        self.graph = graph
        self.machine = machine
        self.ii = ii
        self.counters = counters if counters is not None else Counters()
        self.trace = trace
        self.deadline = deadline
        try:
            scheme = PRIORITY_SCHEMES[priority]
        except KeyError:
            raise ValueError(
                f"unknown priority scheme {priority!r}; "
                f"choose from {sorted(PRIORITY_SCHEMES)}"
            ) from None
        self.heights = scheme(graph, ii, self.counters)

    # ------------------------------------------------------------------

    def _prepare(self) -> Optional[_AttemptResult]:
        """Per-attempt setup shared by both scheduling styles.

        Complex reservation tables can fold onto themselves at specific
        IIs (same resource at offsets differing by a multiple of II);
        such alternatives are unplaceable at this II.  If any operation
        loses every alternative, the II is infeasible outright and a
        failed attempt is returned; otherwise None.
        """
        graph = self.graph
        mask_set = self.machine.compiled_masks(self.ii)
        self._mrt = ModuloReservations(self.ii, mask_set)
        self._feasible_alts: Dict[str, tuple] = {}
        for operation in graph.real_operations():
            if operation.opcode in self._feasible_alts:
                continue
            # Self-conflicting alternatives were rejected once at
            # mask-compile time; reuse that verdict per (machine, II).
            usable = mask_set.feasible(operation.opcode)
            if not usable:
                return _AttemptResult(False, {}, {}, 0)
            self._feasible_alts[operation.opcode] = usable
        # Hot-loop views: pseudo flags, opcodes, successor edge lists,
        # and raw predecessor edges.  All of it is II-independent for a
        # sealed graph, so it is computed once and cached on the graph
        # (``graph.succ_edges`` copies into a fresh tuple per call —
        # thousands of calls per attempt otherwise); only the
        # II-resolved weights below are rebuilt per attempt.
        cache = getattr(graph, "_sched_cache", None)
        if cache is None:
            all_ops = [graph.operation(op) for op in range(graph.n_ops)]
            pred_raw = []
            for op in range(graph.n_ops):
                entries = []
                count = 0
                for edge in graph.pred_edges(op):
                    count += 1
                    if edge.pred == op:
                        continue
                    entries.append((edge.pred, edge.delay, edge.distance))
                pred_raw.append((tuple(entries), count))
            cache = graph._sched_cache = (
                [operation.is_pseudo for operation in all_ops],
                [
                    None if operation.is_pseudo else operation.opcode
                    for operation in all_ops
                ],
                [graph.succ_edges(op) for op in range(graph.n_ops)],
                pred_raw,
            )
        self._is_pseudo, opcodes, self._succ_lists, pred_raw = cache
        self._op_alts = [
            None if opcode is None else self._feasible_alts[opcode]
            for opcode in opcodes
        ]
        # Estart sweeps run once per scheduling step (and per readiness
        # probe in the instruction-driven style); precompute each
        # operation's predecessor array with the II-resolved edge weight
        # ``delay - II*distance`` so the sweep is a max over pairs — and
        # a vectorized numpy max for high-fanin operations.
        n_ops = graph.n_ops
        ii = self.ii
        pred_pairs: List[tuple] = [
            tuple(
                (pred, delay - ii * distance)
                for pred, delay, distance in entries
            )
            for entries, _ in pred_raw
        ]
        self._pred_pairs = pred_pairs
        self._pred_counts = [count for _, count in pred_raw]
        self._pred_vec: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        wide = [op for op in range(n_ops) if len(pred_pairs[op]) >= 16]
        for op in wide:
            arr = np.array(pred_pairs[op], dtype=np.int64)
            self._pred_vec[op] = (arr[:, 0], arr[:, 1].astype(float))
        self._time_arr = (
            np.full(n_ops, -np.inf) if wide else None
        )
        # Dense slot array: None marks unscheduled.  Indexing beats a
        # dict in the Estart sweep, the hottest read in the attempt.
        self._times: List[Optional[int]] = [None] * n_ops
        self._alts: Dict[int, Optional[ReservationTable]] = {}
        self._prev_time: Dict[int, int] = {}
        self._never_scheduled: Set[int] = set(range(graph.n_ops))
        self._unscheduled: Set[int] = set(range(1, graph.n_ops))
        self._heap: List[Tuple[int, int]] = [
            (-self.heights[op], op) for op in self._unscheduled
        ]
        heapq.heapify(self._heap)
        return None

    def run(self, budget: int) -> _AttemptResult:
        """Attempt to schedule every operation within ``budget`` steps."""
        graph = self.graph
        dead = self._prepare()
        if dead is not None:
            return dead
        steps = 0

        # START is pinned at time 0 (Figure 3) and consumes no resources.
        self._place(graph.START, 0, None)
        steps += 1

        while self._unscheduled and steps < budget:
            # Cooperative watchdog: one clock read every 32 steps keeps
            # the overhead unmeasurable while bounding a wedged attempt.
            if self.deadline is not None and (steps & 31) == 0:
                self.deadline.check("scheduling")
            op = self._pop_highest_priority()
            estart = self._calculate_early_start(op)
            if self.trace is not None:
                self.trace.pick(op, estart)
            slot, alternative = self._find_time_slot(op, estart)
            if (
                alternative is None
                and not self._is_pseudo[op]
                and not self.allow_displacement
            ):
                # Greedy mode: no conflict-free slot means this II is
                # abandoned on the spot — no unscheduling, no retries.
                break
            self._schedule(op, slot, alternative)
            steps += 1

        return _AttemptResult(
            success=not self._unscheduled,
            times={
                op: t for op, t in enumerate(self._times) if t is not None
            },
            alternatives=dict(self._alts),
            steps=steps,
        )

    # ------------------------------------------------------------------

    def _pop_highest_priority(self) -> int:
        """HighestPriorityOperation: lazy-deletion max-heap on HeightR."""
        while self._heap:
            _, op = heapq.heappop(self._heap)
            if op in self._unscheduled:
                return op
        raise AssertionError("heap empty while operations remain unscheduled")

    def _calculate_early_start(self, op: int) -> int:
        """Estart per Figure 5b: only scheduled predecessors constrain.

        The sweep runs over the per-operation predecessor arrays built in
        :meth:`_prepare` (weights already II-resolved); high-fanin
        operations take a vectorized numpy max over the scheduled-time
        array, where unscheduled predecessors sit at −inf and drop out of
        the max for free.
        """
        self.counters.estart_preds += self._pred_counts[op]
        vec = self._pred_vec.get(op)
        if vec is not None:
            best = float(np.max(self._time_arr[vec[0]] + vec[1]))
            return int(best) if best > 0 else 0
        estart = 0
        times = self._times
        for pred, weight in self._pred_pairs[op]:
            pred_time = times[pred]
            if pred_time is None:
                continue
            candidate = pred_time + weight
            if candidate > estart:
                estart = candidate
        return estart

    def _find_time_slot(
        self, op: int, min_time: int
    ) -> Tuple[int, Optional[ReservationTable]]:
        """FindTimeSlot per Figure 4, extended over the opcode alternatives.

        Searches ``[min_time, min_time + II - 1]`` time-major,
        alternative-minor.  ``findtimeslot_iters`` counts the
        (slot, alternative) pairs that scan examines up to its answer —
        all II × alternatives of them when the window is full.

        Returns ``(slot, alternative)``; ``alternative`` is ``None`` when
        the slot was forced (the caller then displaces conflicting
        operations) or when the operation is a pseudo-operation.
        """
        if self._is_pseudo[op]:
            self.counters.findtimeslot_iters += 1
            return min_time, None
        alternatives = self._op_alts[op]
        time, index = self._mrt.first_free_slot(alternatives, min_time)
        if time is not None:
            self.counters.findtimeslot_iters += (
                (time - min_time) * len(alternatives) + index + 1
            )
            return time, alternatives[index]
        self.counters.findtimeslot_iters += self.ii * len(alternatives)
        # No conflict-free slot: pick one that guarantees forward progress.
        if op in self._never_scheduled or min_time > self._prev_time[op]:
            return min_time, None
        return self._prev_time[op] + 1, None

    def _schedule(
        self, op: int, slot: int, alternative: Optional[ReservationTable]
    ) -> None:
        """Schedule per Figure 3's note: displace whatever conflicts."""
        forced = False
        if not self._is_pseudo[op]:
            alternatives = self._op_alts[op]
            if alternative is None:
                # Forced placement (Section 3.4): displace every operation
                # conflicting with *any* alternative, then take the first.
                forced = True
                for victim in sorted(
                    self._mrt.conflicting_ops(alternatives, slot)
                ):
                    self._unschedule(victim, culprit=op)
                alternative = alternatives[0]
        if forced:
            self.counters.ops_forced += 1
        if self.trace is not None:
            if forced:
                self.trace.force(op, slot)
            else:
                self.trace.place(
                    op, slot, alternative.name if alternative else "pseudo"
                )
        self._place(op, slot, alternative)
        # Displace dependence-violated successors; predecessors were
        # honoured through Estart.
        times = self._times
        ii = self.ii
        for edge in self._succ_lists[op]:
            if edge.succ == op:
                continue
            succ_time = times[edge.succ]
            if succ_time is None:
                continue
            if succ_time < slot + edge.delay - ii * edge.distance:
                self._unschedule(edge.succ, culprit=op)

    def _place(
        self, op: int, slot: int, alternative: Optional[ReservationTable]
    ) -> None:
        if alternative is not None:
            self._mrt.reserve(op, alternative, slot)
            # The MRT works on CompiledAlternative wrappers; the schedule
            # itself records the underlying table.
            alternative = getattr(alternative, "table", alternative)
        self._times[op] = slot
        if self._time_arr is not None:
            self._time_arr[op] = slot
        self._alts[op] = alternative
        self._prev_time[op] = slot
        self._unscheduled.discard(op)
        self._never_scheduled.discard(op)
        self.counters.ops_scheduled += 1

    def _unschedule(self, op: int, culprit: int = -1) -> None:
        if op == self.graph.START:
            raise AssertionError("START must never be displaced")
        if self.trace is not None:
            self.trace.displace(op, self._times[op], culprit)
        self._mrt.release(op)
        self._times[op] = None
        if self._time_arr is not None:
            self._time_arr[op] = -np.inf
        del self._alts[op]
        self._unscheduled.add(op)
        heapq.heappush(self._heap, (-self.heights[op], op))
        self.counters.ops_unscheduled += 1


class GreedyScheduler(IterativeScheduler):
    """Non-iterative ablation: list scheduling onto the MRT.

    Identical to :class:`IterativeScheduler` except that nothing is ever
    displaced: if the highest-priority operation finds no conflict-free
    slot in its II-wide window, the candidate II is abandoned
    immediately.  This is modulo scheduling *without* the paper's
    contribution, and the ablation benchmark measures how much II (and
    how many wasted attempts) that costs on complex reservation tables.
    """

    allow_displacement = False


class InstructionDrivenScheduler(IterativeScheduler):
    """IterativeSchedule with a time cursor instead of a priority pop."""

    def run(self, budget: int) -> _AttemptResult:
        """Attempt to schedule every operation within ``budget`` steps."""
        graph = self.graph
        prepared = self._prepare()
        if prepared is not None:
            return prepared
        steps = 0
        self._place(graph.START, 0, None)
        steps += 1

        time = 0
        while self._unscheduled and steps < budget:
            if self.deadline is not None and (steps & 31) == 0:
                self.deadline.check("scheduling")
            placed_someone = False
            # Ready operations at this cycle, most critical first.
            ready = sorted(
                (
                    op
                    for op in self._unscheduled
                    if self._calculate_early_start(op) <= time
                ),
                key=lambda op: (-self.heights[op], op),
            )
            for op in ready:
                if steps >= budget:
                    break
                if op not in self._unscheduled:
                    continue  # displaced by an earlier placement this cycle
                if self._calculate_early_start(op) > time:
                    # An earlier placement this cycle was a predecessor;
                    # the operation is no longer ready at this time.
                    continue
                slot_alt = self._fits_at(op, time)
                if slot_alt is None:
                    continue
                if self.trace is not None:
                    self.trace.pick(op, time)
                self._schedule(op, time, slot_alt)
                steps += 1
                placed_someone = True
            if not self._unscheduled or steps >= budget:
                break
            # Force progress for any operation whose window has closed:
            # every slot in [Estart, Estart + II) has now been swept.
            overdue = [
                op
                for op in self._unscheduled
                if time - self._calculate_early_start(op) >= self.ii - 1
            ]
            if overdue:
                op = min(overdue, key=lambda o: (-self.heights[o], o))
                estart = self._calculate_early_start(op)
                if self.trace is not None:
                    self.trace.pick(op, estart)
                slot, alternative = self._forced_slot(op, estart)
                self._schedule(op, slot, alternative)
                steps += 1
                time = max(time, slot)
                continue
            if not placed_someone:
                time += 1

        return _AttemptResult(
            success=not self._unscheduled,
            times={
                op: t for op, t in enumerate(self._times) if t is not None
            },
            alternatives=dict(self._alts),
            steps=steps,
        )

    # ------------------------------------------------------------------

    def _fits_at(
        self, op: int, time: int
    ) -> Optional[ReservationTable]:
        """First conflict-free alternative at exactly this cycle.

        Returns the alternative, or None when nothing fits (pseudo
        operations always 'fit' and return None through ``_schedule``'s
        pseudo path, so they are special-cased here).
        """
        operation = self.graph.operation(op)
        if operation.is_pseudo:
            self.counters.findtimeslot_iters += 1
            return _PSEUDO_FIT
        # One findtimeslot_iters tick per (slot, alternative) probe,
        # matching the operation scheduler's FindTimeSlot accounting.
        for alternative in self._feasible_alts[operation.opcode]:
            self.counters.findtimeslot_iters += 1
            if not self._mrt.conflicts(alternative, time):
                return alternative
        return None

    def _forced_slot(self, op: int, estart: int):
        """Figure 4's fallback for an operation that never found a slot."""
        operation = self.graph.operation(op)
        if operation.is_pseudo:
            return estart, None
        if op in self._never_scheduled or estart > self._prev_time[op]:
            return estart, None
        return self._prev_time[op] + 1, None

    def _schedule(self, op, slot, alternative) -> None:
        if alternative is _PSEUDO_FIT:
            alternative = None
        super()._schedule(op, slot, alternative)


class _PseudoFit:
    """Sentinel: a pseudo-operation 'fits' anywhere without resources."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<pseudo-fit>"


_PSEUDO_FIT = _PseudoFit()
