"""CNF encoding of "does a modulo schedule exist at this II?".

One encoding per (graph, machine, candidate II).  The constraint system
is the one the PR-5 validator re-derives — which is what makes the
exact backend's claims checkable:

* **dependences**: for every edge ``p -> q`` with delay ``d`` and
  iteration distance ``k``, ``t(q) >= t(p) + d - k*II`` (the MinDist
  inequality, Section 3.2 of the paper);
* **resources**: two placements may not reserve the same
  (resource, modulo-slot) cell — derived from the machine's compiled
  reservation masks (:class:`repro.machine.machine.CompiledMaskSet`),
  where a placement of alternative ``a`` at time ``t`` occupies
  ``a.slot_masks[t % II]`` and two placements conflict iff their masks
  intersect outside the sentinel bit.

Completeness of the time windows (why UNSAT here refutes the II):
resource legality depends only on the residues ``t mod II``, so any
feasible schedule can be replaced by the *minimal* solution of its
dependence system with the same residues.  That minimal solution is a
longest path from START where each edge weight ``w = d - k*II`` is
rounded up by the per-edge residue correction ``< II``; hence every
operation lands within ``lo(op) = MinDist(START, op)`` plus a slack of
at most ``(n_ops - 1) * (II - 1)``, and no later than
``t(STOP) - MinDist(op, STOP)``.  The encoder bounds every time
variable by exactly those windows, so a satisfying assignment exists
whenever any legal schedule does — UNSAT is a genuine certificate.

Time is encoded order/thermometer-style: ``g[op][t]`` means
``t(op) >= t`` (monotone chains, O(window) clauses per dependence edge
instead of O(window²)), with ``x[op][t]`` channelled to exact times for
the resource side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.deadline import Deadline, check_deadline
from repro.core.mindist import NO_PATH, compute_mindist, mindist_feasible
from repro.core.schedule import Schedule
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph
from repro.machine.resources import ReservationTable

#: Encoding outcomes.
ENCODED = "encoded"
INFEASIBLE = "infeasible"  # refuted before any solver ran
TOO_LARGE = "too-large"  # exceeds the caller's size budget


@dataclass
class ExactEncoding:
    """One candidate II compiled to CNF (or refuted outright).

    ``status`` is :data:`INFEASIBLE` when the II is impossible without
    any search — a positive-weight recurrence circuit at this II, or an
    opcode whose every reservation alternative folds onto itself — with
    ``reason`` naming which.  Both refutations are horizon-independent,
    so they stay sound even under a truncated slack.  ``status`` is
    :data:`TOO_LARGE` when the windows exceed the caller's
    ``max_time_vars`` budget (nothing was built).  Otherwise ``status``
    is :data:`ENCODED` and the formula lives in ``clauses`` over
    ``n_vars`` variables; ``truncated`` records whether the horizon was
    capped below the provably complete slack — a SAT answer is always a
    real schedule, but an UNSAT answer from a truncated encoding is not
    a refutation of the II.
    """

    ii: int
    status: str
    reason: str = ""
    truncated: bool = False
    n_vars: int = 0
    clauses: List[List[int]] = field(default_factory=list)
    lo: Dict[int, int] = field(default_factory=dict)
    hi: Dict[int, int] = field(default_factory=dict)
    x_vars: Dict[Tuple[int, int], int] = field(default_factory=dict)
    alt_vars: Dict[Tuple[int, int], int] = field(default_factory=dict)
    feasible_alts: Dict[str, tuple] = field(default_factory=dict)

    def shape(self) -> Dict[str, int]:
        """Encoding size summary for certificates and obs."""
        window_sum = sum(
            self.hi[op] - self.lo[op] + 1 for op in self.lo
        )
        return {
            "vars": self.n_vars,
            "clauses": len(self.clauses),
            "window_sum": window_sum,
        }


def encode_exact_ii(
    graph: DependenceGraph,
    machine,
    ii: int,
    counters: Optional[Counters] = None,
    deadline: Optional[Deadline] = None,
    max_slack: Optional[int] = None,
    max_time_vars: Optional[int] = None,
    max_clauses: Optional[int] = None,
) -> ExactEncoding:
    """Compile the fixed-II scheduling decision problem to CNF.

    ``max_slack`` caps the window slack below the provably complete
    ``(n_ops - 1) * (II - 1)`` — the encoding is then marked
    ``truncated`` and only its SAT answers are conclusive.
    ``max_time_vars`` refuses (:data:`TOO_LARGE`) instead of building a
    formula whose summed window widths exceed the budget, and
    ``max_clauses`` refuses after building when the clause count does —
    both guard the pure-python solver against formulas it cannot finish.
    """
    if ii < 1:
        raise ValueError(f"II must be >= 1, got {ii}")
    check_deadline(deadline, "exact encoding")
    dist, index = compute_mindist(
        graph, ii, counters=counters, deadline=deadline
    )
    if not mindist_feasible(dist):
        return ExactEncoding(ii, INFEASIBLE, reason="recurrence")

    mask_set = machine.compiled_masks(ii)
    feasible: Dict[str, tuple] = {}
    for operation in graph.real_operations():
        if operation.opcode in feasible:
            continue
        usable = mask_set.feasible(operation.opcode)
        if not usable:
            return ExactEncoding(
                ii, INFEASIBLE, reason="no-feasible-alternative"
            )
        feasible[operation.opcode] = usable

    # ---- time windows (see the module docstring for the soundness
    # argument: the slack covers the worst-case residue rounding of
    # every edge on a longest path).
    start, stop = graph.START, graph.stop
    s_row = index[start]
    full_slack = (graph.n_ops - 1) * (ii - 1)
    slack = full_slack
    truncated = False
    if max_slack is not None and max_slack < full_slack:
        slack = max(max_slack, 0)
        truncated = True

    def from_start(op: int) -> int:
        value = dist[s_row, index[op]]
        return 0 if value == NO_PATH else int(max(0.0, value))

    lo = {op: from_start(op) for op in range(graph.n_ops)}
    lo[start] = 0
    horizon = lo[stop] + slack
    hi: Dict[int, int] = {}
    stop_col = index[stop]
    for op in range(graph.n_ops):
        if op == start:
            hi[op] = 0
            continue
        bound = lo[op] + slack
        to_stop = dist[index[op], stop_col]
        if to_stop != NO_PATH:
            bound = min(bound, horizon - int(to_stop))
        hi[op] = max(bound, lo[op])
    hi[start] = 0

    if max_time_vars is not None:
        window_sum = sum(hi[op] - lo[op] + 1 for op in range(graph.n_ops))
        if window_sum > max_time_vars:
            return ExactEncoding(
                ii,
                TOO_LARGE,
                reason=f"window sum {window_sum} > budget {max_time_vars}",
                truncated=truncated,
            )

    encoding = ExactEncoding(
        ii, ENCODED, truncated=truncated, lo=lo, hi=hi, feasible_alts=feasible
    )
    clauses = encoding.clauses
    counter = [0]

    def new_var() -> int:
        counter[0] += 1
        return counter[0]

    # ---- order variables g[op][t] ("t(op) >= t"), t in (lo, hi].
    g_vars: Dict[Tuple[int, int], int] = {}
    for op in range(graph.n_ops):
        if op == start:
            continue
        for t in range(lo[op] + 1, hi[op] + 1):
            g_vars[(op, t)] = new_var()
        for t in range(lo[op] + 2, hi[op] + 1):  # monotone chain
            clauses.append([-g_vars[(op, t)], g_vars[(op, t - 1)]])

    TRUE, FALSE = "true", "false"

    def g_lit(op: int, t: int):
        """Literal for t(op) >= t, or a constant at the window edges."""
        if t <= lo[op]:
            return TRUE
        if t > hi[op]:
            return FALSE
        return g_vars[(op, t)]

    # ---- exact-time variables x[op][t], channelled to the g chain.
    x_vars = encoding.x_vars
    for op in range(graph.n_ops):
        if op == start:
            continue
        for t in range(lo[op], hi[op] + 1):
            x = new_var()
            x_vars[(op, t)] = x
            above = g_lit(op, t)  # t(op) >= t
            beyond = g_lit(op, t + 1)  # t(op) >= t + 1
            if above not in (TRUE, FALSE):
                clauses.append([-x, above])
            if beyond is not FALSE:
                clauses.append([-x, -beyond])
            completion = [x]
            if above not in (TRUE, FALSE):
                completion.append(-above)
            if beyond is not FALSE:
                completion.append(beyond)
            clauses.append(completion)

    # ---- dependence constraints (deduped to the strongest per pair).
    strongest: Dict[Tuple[int, int], int] = {}
    for edge in graph.edges:
        if edge.pred == edge.succ:
            continue  # self-circuits are covered by the recurrence check
        weight = edge.delay - ii * edge.distance
        key = (edge.pred, edge.succ)
        if key not in strongest or weight > strongest[key]:
            strongest[key] = weight
    for (pred, succ), weight in strongest.items():
        if pred == start:
            continue  # START is pinned at 0; absorbed into the lo bounds
        for t in range(lo[pred] + 1, hi[pred] + 1):
            required = t + weight
            if required <= lo[succ]:
                continue  # implied by the windows
            if required > hi[succ]:
                clauses.append([-g_vars[(pred, t)]])
            else:
                clauses.append(
                    [-g_vars[(pred, t)], g_vars[(succ, required)]]
                )

    # ---- alternative selection (exactly one per real operation).
    alt_vars = encoding.alt_vars
    for operation in graph.real_operations():
        op = operation.index
        alternatives = feasible[operation.opcode]
        ids = [new_var() for _ in alternatives]
        for k, var in enumerate(ids):
            alt_vars[(op, k)] = var
        clauses.append(list(ids))
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                clauses.append([-ids[a], -ids[b]])

    # ---- placements p[op][alt][t % II] and mask-conflict clauses.
    placements: List[Tuple[int, int, int]] = []  # (op, var, mask)
    p_vars: Dict[Tuple[int, int, int], int] = {}
    for operation in graph.real_operations():
        op = operation.index
        alternatives = feasible[operation.opcode]
        for k, alternative in enumerate(alternatives):
            for t in range(lo[op], hi[op] + 1):
                slot = t % ii
                key = (op, k, slot)
                p = p_vars.get(key)
                if p is None:
                    p = new_var()
                    p_vars[key] = p
                    placements.append(
                        (op, p, alternative.slot_masks[slot])
                    )
                clauses.append(
                    [-x_vars[(op, t)], -alt_vars[(op, k)], p]
                )
    check_deadline(deadline, "exact encoding")
    # Each (resource, modulo-slot) MRT cell admits at most one placement.
    # The p variables are one-directional (x AND alt implies p), so a
    # model's true placements are exactly the implied ones and the
    # per-cell at-most-one is equivalent to pairwise mask disjointness —
    # at linear instead of quadratic clause count.
    cells: Dict[int, List[int]] = {}
    for _, var, mask in placements:
        bits = mask & ~1  # bit 0 is the self-conflict sentinel
        while bits:
            low = bits & -bits
            cells.setdefault(low.bit_length(), []).append(var)
            bits ^= low
    for cell in sorted(cells):
        _at_most_one(cells[cell], clauses, new_var)

    encoding.n_vars = counter[0]
    if max_clauses is not None and len(clauses) > max_clauses:
        return ExactEncoding(
            ii,
            TOO_LARGE,
            reason=f"{len(clauses)} clauses > budget {max_clauses}",
            truncated=truncated,
        )
    return encoding


def _at_most_one(lits: List[int], clauses: List[List[int]], new_var) -> None:
    """At most one of ``lits`` — pairwise when tiny, sequential beyond.

    The sequential (ladder) encoding introduces one auxiliary "some
    earlier literal is true" variable per position and three clauses per
    literal, versus O(n²) pairwise clauses.
    """
    n = len(lits)
    if n <= 1:
        return
    if n <= 4:
        for a in range(n):
            for b in range(a + 1, n):
                clauses.append([-lits[a], -lits[b]])
        return
    prev = new_var()
    clauses.append([-lits[0], prev])
    for i in range(1, n - 1):
        nxt = new_var()
        clauses.append([-lits[i], nxt])
        clauses.append([-prev, nxt])
        clauses.append([-lits[i], -prev])
        prev = nxt
    clauses.append([-lits[n - 1], -prev])


def decode_model(
    graph: DependenceGraph,
    encoding: ExactEncoding,
    model: Dict[int, bool],
) -> Schedule:
    """Turn a satisfying assignment back into a :class:`Schedule`."""
    times: Dict[int, int] = {graph.START: 0}
    alternatives: Dict[int, Optional[ReservationTable]] = {
        graph.START: None
    }
    for op in range(graph.n_ops):
        if op == graph.START:
            continue
        chosen = [
            t
            for t in range(encoding.lo[op], encoding.hi[op] + 1)
            if model[encoding.x_vars[(op, t)]]
        ]
        if len(chosen) != 1:  # pragma: no cover - encoder invariant
            raise AssertionError(
                f"operation {op} has {len(chosen)} assigned times"
            )
        times[op] = chosen[0]
        operation = graph.operation(op)
        if operation.is_pseudo:
            alternatives[op] = None
            continue
        usable = encoding.feasible_alts[operation.opcode]
        picked = [
            k
            for k in range(len(usable))
            if model[encoding.alt_vars[(op, k)]]
        ]
        if len(picked) != 1:  # pragma: no cover - encoder invariant
            raise AssertionError(
                f"operation {op} has {len(picked)} chosen alternatives"
            )
        compiled = usable[picked[0]]
        alternatives[op] = getattr(compiled, "table", compiled)
    return Schedule(graph, encoding.ii, times, alternatives)
