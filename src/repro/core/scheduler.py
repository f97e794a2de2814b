"""Iterative modulo scheduling (Section 3, Figures 2-4).

:func:`modulo_schedule` is the paper's procedure ``ModuloSchedule``: it
computes the MII, then calls the inner scheduler (:class:`IterativeScheduler`,
the paper's ``IterativeSchedule``) for successively larger candidate IIs
until one succeeds within the operation-scheduling budget
``BudgetRatio * NumberOfOperations``.

The inner scheduler differs from acyclic list scheduling exactly as the
paper describes:

* it is an *operation* scheduler — the highest-priority unscheduled
  operation is picked even if predecessors are currently unscheduled, and
  the same operation may be picked repeatedly after being displaced;
* priorities are HeightR (Figure 5a);
* Estart considers only *currently scheduled* predecessors (Figure 5b);
* only II contiguous candidate time slots are tried, on a modulo
  reservation table — one bitmask sweep per window
  (:meth:`repro.core.mrt.ModuloReservations.first_free_slot`) returns
  the slot and alternative Figure 4's time-major, alternative-minor scan
  would pick, and ``findtimeslot_iters`` counts the (slot, alternative)
  pairs that scan examines up to its answer (Table 4);
* when no conflict-free slot exists, a slot is forced with the
  forward-progress rule of Figure 4, and every operation conflicting with
  any of the opcode's alternatives is displaced (Section 3.4), along with
  any dependence-violated successors.

Each attempt (:meth:`IterativeScheduler.run`) is one loop over local
variables.  It first resolves the sealed graph into flat per-operation
tables for its II (:func:`_attempt_tables`): feasible alternatives,
II-resolved predecessor and successor weights, and raw fan-in.  Nothing
is memoized on the graph.  Estart, placement and displacement are
defined once, as closures over those tables, and the operation style,
its greedy ablation and the instruction-driven style all use them.
Table 4's counters stay in locals and reach ``Counters`` once per
attempt.  The method-per-step schedulers this replaced are the
differential oracle in ``tests/oracles/scheduler.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.deadline import Deadline, check_deadline
from repro.core.heights import height_r
from repro.core.mii import MIIResult, compute_mii
from repro.core.mrt import ModuloReservations
from repro.core.schedule import Schedule
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph, GraphError
from repro.machine.resources import ReservationTable


class SchedulingFailure(RuntimeError):
    """No modulo schedule was found up to the II cap.

    The exception carries the whole search trajectory as ``records``,
    one :class:`AttemptRecord` per candidate II attempted (its steps
    and why it failed), so a failure record, a quarantine entry or a
    degraded result is actionable without re-running the scheduler.
    It pickles cleanly through worker pools.
    """

    def __init__(
        self,
        message: str,
        records: Optional[List[AttemptRecord]] = None,
        budget: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.records = list(records or [])
        self.budget = budget

    @property
    def attempted_iis(self) -> List[int]:
        """Every candidate II attempted, in search order."""
        return [record.ii for record in self.records]

    @property
    def steps_by_ii(self) -> Dict[int, int]:
        """The scheduling steps burned at each attempted II."""
        return {record.ii: record.steps for record in self.records}

    def detail(self) -> Dict[str, object]:
        """JSON-compatible search trajectory for structured failure records."""
        return {
            "attempted_iis": self.attempted_iis,
            "steps_by_ii": {
                str(ii): steps for ii, steps in self.steps_by_ii.items()
            },
            "budget_per_ii": self.budget,
            "steps_total": sum(record.steps for record in self.records),
        }

    def __reduce__(self):
        return type(self), (self.args[0], self.records, self.budget)


@dataclass(frozen=True)
class AttemptRecord:
    """One candidate-II attempt by one backend, normalized across backends.

    Historically the budget/attempt bookkeeping lived only in
    :func:`modulo_schedule`'s per-call totals, so a degradation-ladder
    run (full IMS, then relaxed IMS, then the list fallback) reported
    only the *last* call's attempts and nothing recorded which scheduler
    produced which rung.  Attempt records fix that: every backend tags
    each candidate II it tries with its own name, the ladder concatenates
    the records across rungs, and the cache payload carries the full
    sequence.

    ``steps`` is the backend's unit of search effort — operation
    scheduling steps for the heuristic schedulers, solver conflicts for
    the exact backend.
    """

    backend: str
    ii: int
    success: bool
    steps: int
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form for cache payloads."""
        return {
            "backend": self.backend,
            "ii": self.ii,
            "success": self.success,
            "steps": self.steps,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AttemptRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            backend=data["backend"],
            ii=int(data["ii"]),
            success=bool(data["success"]),
            steps=int(data["steps"]),
            reason=data.get("reason", ""),
        )


@dataclass
class _AttemptResult:
    """Outcome of one IterativeSchedule invocation at a fixed II."""

    success: bool
    times: Dict[int, int]
    alternatives: Dict[int, Optional[ReservationTable]]
    steps: int


@dataclass
class ModuloScheduleResult:
    """Outcome of the full ModuloSchedule procedure.

    Attributes
    ----------
    schedule:
        The legal modulo schedule that was found.
    mii_result:
        The MII computation the search started from.
    budget_ratio:
        The BudgetRatio used.
    attempts:
        Number of candidate II values tried (the successful one included).
    steps_total:
        Operation scheduling steps across *all* attempts — the quantity the
        paper's aggregate scheduling inefficiency (Figure 6) is built from.
    steps_last:
        Steps in the successful attempt only (Table 3's "number of nodes
        scheduled" uses this).
    counters:
        Instrumentation accumulated over the whole run.
    backend:
        Registered name of the scheduler backend that produced the
        schedule (``"ims"`` for this module's heuristic search).
    optimal:
        ``True`` when the II is *proven* minimal (the exact backend's
        claim, or II == MII), ``False`` when proven non-minimal, and
        ``None`` when nothing proved anything either way — the heuristic
        backends always report ``None`` unless II == MII.
    attempt_records:
        Per-candidate-II :class:`AttemptRecord` sequence, each tagged
        with the backend that ran the attempt (the degradation ladder
        concatenates records across its rungs).
    certificates:
        For the exact backend: ``{ii: unsat-certificate}`` for every II
        it refuted below the achieved one (solver statistics + encoding
        shape; empty for heuristic backends).
    """

    schedule: Schedule
    mii_result: MIIResult
    budget_ratio: float
    attempts: int
    steps_total: int
    steps_last: int
    counters: Counters
    backend: str = "ims"
    optimal: Optional[bool] = None
    attempt_records: List[AttemptRecord] = field(default_factory=list)
    certificates: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ii(self) -> int:
        """The achieved initiation interval."""
        return self.schedule.ii

    @property
    def delta_ii(self) -> int:
        """Achieved II minus the MII lower bound (0 means optimal-vs-bound)."""
        return self.schedule.ii - self.mii_result.mii

    @property
    def ii_ratio(self) -> float:
        """Achieved II over the MII lower bound (1.0 = optimal-vs-bound)."""
        return self.schedule.ii / self.mii_result.mii

    @property
    def schedule_length(self) -> int:
        """SL of the found schedule (one iteration, issue to completion)."""
        return self.schedule.schedule_length

    @property
    def inefficiency(self) -> float:
        """Nodes scheduled per node, within the successful attempt."""
        return self.steps_last / self.schedule.graph.n_ops

    @property
    def heuristic_ii(self) -> Optional[int]:
        """II the heuristic (non-exact) search achieved for this loop.

        For a heuristic backend this is the achieved II itself.  For the
        exact backend it is the II of the successful IMS attempt that
        seeded the upper bound — the quantity the optimality-gap study
        compares against the proven-minimal II — or ``None`` when the
        heuristic found nothing.
        """
        for record in self.attempt_records:
            if record.backend != "exact" and record.success:
                return record.ii
        return self.ii if self.backend != "exact" else None

    @property
    def optimality_gap(self) -> Optional[int]:
        """``heuristic II − proven-minimal II`` (None unless proven)."""
        if self.optimal is not True or self.heuristic_ii is None:
            return None
        return self.heuristic_ii - self.ii


def _priority_heightr(graph: DependenceGraph, ii: int, counters) -> List[int]:
    """The paper's HeightR priority (Figure 5a) — the default."""
    return height_r(graph, ii, counters)


def _priority_input_order(graph: DependenceGraph, ii: int, counters) -> List[int]:
    """Ablation: schedule in (reverse) input order, ignoring structure."""
    return [graph.n_ops - op for op in range(graph.n_ops)]


def _priority_fanout(graph: DependenceGraph, ii: int, counters) -> List[int]:
    """Ablation: prioritize by immediate successor count only."""
    return [len(graph.succ_edges(op)) for op in range(graph.n_ops)]


#: Priority schemes selectable by name; ``"heightr"`` is the paper's.
PRIORITY_SCHEMES = {
    "heightr": _priority_heightr,
    "input_order": _priority_input_order,
    "fanout": _priority_fanout,
}


def _attempt_tables(graph: DependenceGraph, mask_set, ii: int):
    """The flat per-operation tables one attempt at ``ii`` runs on.

    Returns ``(alternatives, preds, succs, fan_in)``, each indexed by
    operation:

    * the opcode's alternatives placeable at this II, or None for
      START/STOP;
    * ``(pred, weight)`` and ``(succ, weight)`` pairs for every edge
      but a self-edge, in insertion order, with the II-resolved weight
      ``delay - II * distance``;
    * the raw predecessor count (self-edges included) that Estart bills
      to ``estart_preds``.

    Complex reservation tables can fold onto themselves at specific IIs
    (the same resource at offsets differing by a multiple of II); such
    alternatives were rejected once at mask-compile time.  If an opcode
    loses every alternative the II is infeasible outright, and None is
    returned.
    """
    n_ops = graph.n_ops
    alternatives: List[Optional[tuple]] = [None] * n_ops
    # A sealed graph brackets its real operations with START and STOP.
    for operation in graph.operations[1:-1]:
        usable = mask_set.feasible(operation.opcode)
        if not usable:
            return None
        alternatives[operation.index] = usable
    preds: List[list] = [[] for _ in range(n_ops)]
    succs: List[list] = [[] for _ in range(n_ops)]
    fan_in = [0] * n_ops
    for edge in graph.edges:
        pred = edge.pred
        succ = edge.succ
        fan_in[succ] += 1
        if pred != succ:
            weight = edge.delay - ii * edge.distance
            preds[succ].append((pred, weight))
            succs[pred].append((succ, weight))
    return alternatives, preds, succs, fan_in


class IterativeScheduler:
    """One invocation of ``IterativeSchedule`` (Figure 3) at a fixed II."""

    #: Whether a failed FindTimeSlot may force a slot and displace
    #: conflicting operations.  The greedy (non-iterative) subclass turns
    #: this off to quantify what iteration itself buys.
    allow_displacement = True

    #: Whether a time cursor picks the operations (the footnote's
    #: instruction-driven style, see
    #: :mod:`repro.core.instruction_scheduler`) instead of the priority
    #: heap.
    instruction_driven = False

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

    def run(self, budget: int) -> _AttemptResult:
        """Attempt to schedule every operation within ``budget`` steps.

        The whole attempt runs on local variables: the flat tables of
        :func:`_attempt_tables`, the slot and alternative of every
        operation, and Table 4's counters, which are added to
        ``self.counters`` once, on the way out — also when a deadline
        expires mid-attempt, so the steps taken are still billed.
        """
        ii = self.ii
        mask_set = self.machine.compiled_masks(ii)
        tables = _attempt_tables(self.graph, mask_set, ii)
        if tables is None:
            return _AttemptResult(False, {}, {}, 0)
        op_alts, preds, succs, fan_in = tables
        mrt = ModuloReservations(ii, mask_set)
        reserve = mrt.reserve
        release = mrt.release
        heights = self.heights
        trace = self.trace
        deadline = self.deadline
        n_ops = len(op_alts)
        # Dense slot arrays: None marks unscheduled (``times``) and never
        # scheduled in this attempt (``prev_time``, Figure 4's PrevTime).
        times: List[Optional[int]] = [None] * n_ops
        prev_time: List[Optional[int]] = [None] * n_ops
        alts: Dict[int, Optional[ReservationTable]] = {}
        unscheduled: Set[int] = set(range(1, n_ops))
        # HighestPriorityOperation: a lazy-deletion max-heap on HeightR.
        heap = [(-heights[op], op) for op in range(1, n_ops)]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        estart_preds = findtimeslot_iters = 0
        ops_scheduled = ops_unscheduled = ops_forced = 0

        def estart(op: int) -> int:
            """Estart per Figure 5b: only scheduled predecessors count."""
            nonlocal estart_preds
            estart_preds += fan_in[op]
            best = 0
            for pred, weight in preds[op]:
                pred_time = times[pred]
                if pred_time is not None and pred_time + weight > best:
                    best = pred_time + weight
            return best

        def place(op: int, slot: int, alternative) -> None:
            nonlocal ops_scheduled
            if alternative is None:
                alts[op] = None
            else:
                reserve(op, alternative, slot)
                # The MRT works on CompiledAlternative wrappers; the
                # schedule records the underlying table.
                alts[op] = alternative.table
            times[op] = slot
            prev_time[op] = slot
            unscheduled.discard(op)
            ops_scheduled += 1

        def unschedule(op: int, culprit: int) -> None:
            nonlocal ops_unscheduled
            if op == DependenceGraph.START:
                raise AssertionError("START must never be displaced")
            if trace is not None:
                trace.displace(op, times[op], culprit)
            release(op)
            times[op] = None
            del alts[op]
            unscheduled.add(op)
            heappush(heap, (-heights[op], op))
            ops_unscheduled += 1

        def schedule(op: int, slot: int, alternative) -> None:
            """Schedule per Figure 3's note: displace whatever conflicts.

            ``alternative`` is None for a pseudo-operation and for a
            forced placement (Section 3.4), which displaces every
            operation conflicting with *any* of the opcode's
            alternatives and then takes the first.
            """
            nonlocal ops_forced
            alternatives = op_alts[op]
            if alternative is None and alternatives is not None:
                for victim in sorted(mrt.conflicting_ops(alternatives, slot)):
                    unschedule(victim, op)
                alternative = alternatives[0]
                ops_forced += 1
                if trace is not None:
                    trace.force(op, slot)
            elif trace is not None:
                trace.place(
                    op, slot, alternative.name if alternative else "pseudo"
                )
            place(op, slot, alternative)
            # Displace dependence-violated successors; predecessors were
            # honoured through Estart.
            for succ, weight in succs[op]:
                succ_time = times[succ]
                if succ_time is not None and succ_time < slot + weight:
                    unschedule(succ, op)

        def forced_slot(op: int, start: int) -> int:
            """Figure 4's slot when the window is full: forward progress."""
            last = prev_time[op]
            return start if last is None or start > last else last + 1

        try:
            # START is pinned at time 0 (Figure 3) and consumes no
            # resources.
            place(DependenceGraph.START, 0, None)
            steps = 1
            if self.instruction_driven:
                # The footnote's style: sweep a time cursor forward and
                # place every ready operation that fits at that cycle,
                # most critical first.
                conflicts = mrt.conflicts
                time = 0
                while unscheduled and steps < budget:
                    if deadline is not None and (steps & 31) == 0:
                        deadline.check("scheduling")
                    placed_someone = False
                    ready = sorted(
                        (op for op in unscheduled if estart(op) <= time),
                        key=lambda op: (-heights[op], op),
                    )
                    for op in ready:
                        if steps >= budget:
                            break
                        if op not in unscheduled:
                            continue  # displaced earlier in this cycle
                        if estart(op) > time:
                            # An earlier placement this cycle was a
                            # predecessor; the operation is no longer
                            # ready at this time.
                            continue
                        # One findtimeslot_iters tick per (slot,
                        # alternative) probe at exactly this cycle.
                        alternatives = op_alts[op]
                        if alternatives is None:
                            findtimeslot_iters += 1
                            alternative = None
                        else:
                            for alternative in alternatives:
                                findtimeslot_iters += 1
                                if not conflicts(alternative, time):
                                    break
                            else:
                                continue  # nothing fits at this cycle
                        if trace is not None:
                            trace.pick(op, time)
                        schedule(op, time, alternative)
                        steps += 1
                        placed_someone = True
                    if not unscheduled or steps >= budget:
                        break
                    # Force progress for any operation whose window has
                    # closed: every slot in [Estart, Estart + II) has now
                    # been swept.
                    overdue = [
                        op
                        for op in unscheduled
                        if time - estart(op) >= ii - 1
                    ]
                    if overdue:
                        op = min(overdue, key=lambda o: (-heights[o], o))
                        start = estart(op)
                        if trace is not None:
                            trace.pick(op, start)
                        slot = (
                            start
                            if op_alts[op] is None
                            else forced_slot(op, start)
                        )
                        schedule(op, slot, None)
                        steps += 1
                        time = max(time, slot)
                        continue
                    if not placed_someone:
                        time += 1
            else:
                allow_displacement = self.allow_displacement
                first_free_slot = mrt.first_free_slot
                while unscheduled and steps < budget:
                    # Cooperative watchdog: one clock read every 32 steps
                    # keeps the overhead unmeasurable while bounding a
                    # wedged attempt.
                    if deadline is not None and (steps & 31) == 0:
                        deadline.check("scheduling")
                    op = heappop(heap)[1]
                    while op not in unscheduled:
                        op = heappop(heap)[1]
                    start = estart(op)
                    if trace is not None:
                        trace.pick(op, start)
                    # FindTimeSlot (Figure 4) over [Estart, Estart + II - 1],
                    # billing the (slot, alternative) pairs Figure 4's
                    # time-major, alternative-minor scan examines.
                    alternatives = op_alts[op]
                    if alternatives is None:
                        findtimeslot_iters += 1
                        slot, alternative = start, None
                    else:
                        slot, index = first_free_slot(alternatives, start)
                        if slot is not None:
                            findtimeslot_iters += (
                                (slot - start) * len(alternatives) + index + 1
                            )
                            alternative = alternatives[index]
                        else:
                            findtimeslot_iters += ii * len(alternatives)
                            if not allow_displacement:
                                # Greedy mode: no conflict-free slot
                                # abandons this II on the spot.
                                break
                            # No conflict-free slot: force one.
                            slot = forced_slot(op, start)
                            alternative = None
                    schedule(op, slot, alternative)
                    steps += 1
        finally:
            counters = self.counters
            counters.estart_preds += estart_preds
            counters.findtimeslot_iters += findtimeslot_iters
            counters.ops_scheduled += ops_scheduled
            counters.ops_unscheduled += ops_unscheduled
            counters.ops_forced += ops_forced

        return _AttemptResult(
            success=not unscheduled,
            times={op: t for op, t in enumerate(times) if t is not None},
            alternatives=alts,
            steps=steps,
        )


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


def default_max_ii(graph: DependenceGraph, mii: int) -> int:
    """A generous cap on the II search.

    Once II exceeds the total resource occupancy of one iteration, every
    II-wide window contains a conflict-free slot, so failures beyond a cap
    proportional to the sequential schedule length indicate a bug rather
    than a hard loop; we cap at twice that plus slack.
    """
    sequential = sum(
        max(1, graph.latency(op.index)) for op in graph.real_operations()
    )
    return 2 * max(mii, sequential) + 32


def modulo_schedule(
    graph: DependenceGraph,
    machine,
    budget_ratio: float = 2.0,
    counters: Optional[Counters] = None,
    mii_result: Optional[MIIResult] = None,
    max_ii: Optional[int] = None,
    priority: str = "heightr",
    style: str = "operation",
    trace=None,
    obs=None,
    deadline: Optional[Deadline] = None,
) -> ModuloScheduleResult:
    """ModuloSchedule (Figure 2): find a legal modulo schedule.

    Parameters
    ----------
    graph:
        A sealed dependence graph.
    machine:
        The machine description providing reservation-table alternatives.
    budget_ratio:
        The paper's BudgetRatio: the budget for each candidate II is
        ``budget_ratio * NumberOfOperations``.  The paper finds ~2 to be
        the sweet spot (Figure 6); 6 reproduces the quality-oriented
        setting of the Table 3 experiments.
    counters:
        Optional instrumentation accumulator.
    mii_result:
        A precomputed MII (to avoid recomputation in sweeps).
    max_ii:
        Cap on the II search; :class:`SchedulingFailure` is raised beyond it.
    priority:
        Name of the scheduling priority scheme (see ``PRIORITY_SCHEMES``);
        ``"heightr"`` is the paper's, the others exist for ablations.
    style:
        ``"operation"`` (the paper's operation scheduler),
        ``"instruction"`` (the footnoted time-cursor style, implemented in
        :mod:`repro.core.instruction_scheduler`), or ``"greedy"``
        (non-iterative: no displacement, for the ablation study).
    trace:
        Optional :class:`repro.core.trace.ScheduleTrace` receiving every
        pick / place / force / displace decision.
    obs:
        Optional :class:`repro.obs.ObsContext`.  Each IterativeSchedule
        attempt becomes a ``schedule.attempt`` span carrying the
        candidate II, the budget burn-down (steps used / remaining) and
        the displacement/force counts of that attempt; deterministic
        outcome metrics (attempts, delta II, per-attempt steps) land in
        the metrics registry.
    deadline:
        Optional cooperative :class:`repro.core.deadline.Deadline`.
        Checked before every II attempt and every 32 operation-scheduling
        steps within an attempt (and threaded into the MII computation
        when one happens here); expiry raises
        :class:`repro.core.deadline.DeadlineExceeded`, which the corpus
        engine's degradation ladder turns into a fallback schedule.

    Raises
    ------
    SchedulingFailure
        If no schedule is found for any II up to ``max_ii``.  Its
        ``records`` hold the attempt record of every attempted II.
    repro.core.deadline.DeadlineExceeded
        If ``deadline`` expires mid-search.
    """
    if budget_ratio < 1.0:
        raise ValueError("budget_ratio below 1 cannot schedule every operation")
    if style == "operation":
        scheduler_class = IterativeScheduler
    elif style == "greedy":
        scheduler_class = GreedyScheduler
    elif style == "instruction":
        from repro.core.instruction_scheduler import InstructionDrivenScheduler

        scheduler_class = InstructionDrivenScheduler
    else:
        raise ValueError(
            f"unknown scheduling style {style!r}; "
            "choose 'operation' or 'instruction'"
        )
    from repro.obs.context import NULL_OBS

    obs = obs if obs is not None else NULL_OBS
    counters = counters if counters is not None else Counters()
    if mii_result is None:
        mii_result = compute_mii(
            graph, machine, counters, obs=obs, deadline=deadline
        )
    if max_ii is None:
        max_ii = default_max_ii(graph, mii_result.mii)
    budget = int(budget_ratio * graph.n_ops)
    attempts = 0
    steps_total = 0
    records: List[AttemptRecord] = []
    ii = mii_result.mii
    with obs.span(
        "schedule", graph=graph.name, style=style, mii=mii_result.mii
    ) as schedule_span:
        while ii <= max_ii:
            check_deadline(deadline, "modulo_schedule II search")
            attempts += 1
            counters.ii_attempts += 1
            if trace is not None:
                trace.attempt(ii)
            displaced_before = counters.ops_unscheduled
            forced_before = counters.ops_forced
            with obs.span("schedule.attempt", ii=ii) as attempt_span:
                scheduler = scheduler_class(
                    graph, machine, ii, counters, priority=priority,
                    trace=trace, deadline=deadline,
                )
                attempt = scheduler.run(budget)
            attempt_span.set("success", attempt.success)
            attempt_span.set("steps", attempt.steps)
            attempt_span.set("budget", budget)
            attempt_span.set("budget_left", budget - attempt.steps)
            attempt_span.set(
                "displaced", counters.ops_unscheduled - displaced_before
            )
            attempt_span.set("forced", counters.ops_forced - forced_before)
            obs.histogram("sched.attempt.steps").observe(attempt.steps)
            steps_total += attempt.steps
            records.append(
                AttemptRecord(
                    backend="ims",
                    ii=ii,
                    success=attempt.success,
                    steps=attempt.steps,
                    reason=(
                        "scheduled"
                        if attempt.success
                        else ("infeasible" if attempt.steps == 0 else "budget")
                    ),
                )
            )
            if attempt.success:
                schedule = Schedule(
                    graph, ii, attempt.times, attempt.alternatives
                )
                schedule_span.set("ii", ii)
                schedule_span.set("attempts", attempts)
                obs.counter("sched.loops").inc()
                obs.histogram("sched.attempts").observe(attempts)
                obs.histogram("sched.ii").observe(ii)
                obs.histogram("sched.delta_ii").observe(ii - mii_result.mii)
                return ModuloScheduleResult(
                    schedule=schedule,
                    mii_result=mii_result,
                    budget_ratio=budget_ratio,
                    attempts=attempts,
                    steps_total=steps_total,
                    steps_last=attempt.steps,
                    counters=counters,
                    backend="ims",
                    # II == MII is a proof by the lower bound; anything
                    # above it the heuristic cannot certify either way.
                    optimal=True if ii == mii_result.mii else None,
                    attempt_records=records,
                )
            ii += 1
    obs.counter("sched.failures").inc()
    raise SchedulingFailure(
        f"no modulo schedule for {graph.name!r} with II in "
        f"[{mii_result.mii}, {max_ii}] at budget_ratio={budget_ratio} "
        f"({attempts} attempts, budget {budget} steps/II, "
        f"{steps_total} steps total)",
        records=records,
        budget=budget,
    )
