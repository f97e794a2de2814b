"""The minimum initiation interval: MII = max(ResMII, RecMII) (Section 2).

*ResMII* (Section 2.1) totals resource usage per iteration.  Exact
computation is a bin-packing problem, so the paper's heuristic is used:
operations are visited in increasing order of their number of alternatives
(degrees of freedom), and for each operation the alternative yielding the
lowest partial ResMII is selected.

*RecMII* (Section 2.2) is the smallest II for which no recurrence circuit
requires an operation to follow itself.  It is computed with ComputeMinDist
on one SCC at a time, seeding each SCC's search with the running MII, using
the paper's search discipline: try the seed, grow by a doubling increment
until feasible, then binary-search between the last infeasible and first
feasible candidates.  Each probe is a fresh O(N³) pass over one SCC —
real loops have few, small non-trivial SCCs — and the search never
probes the same (SCC, II) pair twice, so nothing is memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.deadline import Deadline, check_deadline
from repro.core.mindist import compute_mindist, mindist_feasible
from repro.core.scc import nontrivial_components, shared_components
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph, GraphError


@dataclass
class MIIResult:
    """Outcome of the MII computation, with the per-part bounds.

    Attributes
    ----------
    res_mii:
        The resource-constrained bound.
    rec_mii:
        The recurrence-constrained bound.  When computed with
        ``exact=False`` this is only known to be ``<= mii`` (the production
        compiler never learns the true RecMII when it is below ResMII).
    mii:
        ``max(res_mii, rec_mii)``.
    components:
        All SCCs of the graph (reverse topological order).
    rec_mii_exact:
        Whether ``rec_mii`` is the true RecMII.
    """

    res_mii: int
    rec_mii: int
    mii: int
    components: List[List[int]] = field(default_factory=list)
    rec_mii_exact: bool = True

    @property
    def n_nontrivial_sccs(self) -> int:
        """Count of SCCs containing more than one operation."""
        return sum(1 for c in self.components if len(c) > 1)

    @property
    def scc_sizes(self) -> List[int]:
        """All SCC sizes, largest first."""
        return sorted((len(c) for c in self.components), reverse=True)


def res_mii(
    graph: DependenceGraph,
    machine,
    counters: Optional[Counters] = None,
) -> int:
    """Resource-constrained MII via the paper's bin-packing heuristic."""
    ops = sorted(
        graph.real_operations(),
        key=lambda op: (machine.opcode(op.opcode).n_alternatives, op.index),
    )
    usage: Dict[str, int] = {}
    peak = 0
    for op in ops:
        alternatives = machine.opcode(op.opcode).alternatives
        best_alt = None
        best_peak = None
        for alt in alternatives:
            alt_peak = peak
            for resource, count in alt.usage_count().items():
                alt_peak = max(alt_peak, usage.get(resource, 0) + count)
                if counters is not None:
                    counters.resmii_steps += 1
            if best_peak is None or alt_peak < best_peak:
                best_peak = alt_peak
                best_alt = alt
        for resource, count in best_alt.usage_count().items():
            usage[resource] = usage.get(resource, 0) + count
        peak = best_peak
    return max(1, peak)


def _min_feasible_ii(
    graph: DependenceGraph,
    ops: Sequence[int],
    start: int,
    counters: Optional[Counters],
    deadline: Optional[Deadline] = None,
) -> int:
    """Smallest II >= start with no positive MinDist diagonal over ``ops``.

    Implements the paper's search: try the seed; on failure grow the
    candidate by a doubling increment; finally binary-search between the
    last unsuccessful and first successful candidates.  Every candidate
    is probed at most once: the doubling phase only moves up, and the
    binary search stays strictly between its last infeasible and first
    feasible probes.  ``deadline`` is checked before every probe (each
    one is a full Floyd-Warshall pass over the SCC), so a watchdog can
    stop a pathological doubling search between candidates.
    """
    ops = list(ops)

    def feasible(ii: int) -> bool:
        """No positive MinDist diagonal over ``ops`` at this II."""
        check_deadline(deadline, "mindist doubling search")
        dist, _ = compute_mindist(graph, ii, ops, counters, deadline)
        return mindist_feasible(dist)

    ii = max(1, start)
    if feasible(ii):
        return ii
    # Any elementary circuit has total delay at most the sum of positive
    # edge delays, so a circuit with distance >= 1 is satisfied once II
    # reaches that sum.  Beyond it, infeasibility means a zero-distance
    # circuit, which no II can fix.
    ceiling = max(
        ii + 1,
        sum(
            max(0, e.delay)
            for op in ops
            for e in graph.succ_edges(op)
        )
        + 1,
    )
    last_bad = ii
    increment = 1
    while True:
        ii = last_bad + increment
        if ii > ceiling:
            ii = ceiling
        if feasible(ii):
            break
        if ii >= ceiling:
            raise GraphError(
                f"graph {graph.name!r} has a zero-distance dependence circuit; "
                "no initiation interval is feasible"
            )
        last_bad = ii
        increment *= 2
    lo, hi = last_bad + 1, ii
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def rec_mii(
    graph: DependenceGraph,
    start: int = 1,
    counters: Optional[Counters] = None,
    components: Optional[List[List[int]]] = None,
    deadline: Optional[Deadline] = None,
) -> int:
    """Recurrence-constrained MII, computed one SCC at a time.

    ``start`` seeds the search (the production compiler seeds with ResMII;
    pass 1 for the exact RecMII).  Reflexive dependence edges on trivial
    SCCs are handled analytically as ceil(delay / distance).
    """
    best = max(1, start)
    if components is None:
        components = shared_components(graph, counters)
    for op in range(graph.n_ops):
        for edge in graph.succ_edges(op):
            if edge.succ != op or edge.delay <= 0:
                continue
            if edge.distance == 0:
                raise GraphError(
                    f"graph {graph.name!r}: zero-distance self-dependence on "
                    f"operation {op} with positive delay"
                )
            best = max(best, math.ceil(edge.delay / edge.distance))
    # Each SCC pays its own (small) MinDist analysis.
    for component in nontrivial_components(components):
        best = _min_feasible_ii(graph, component, best, counters, deadline)
    return best


def rec_mii_whole_graph(
    graph: DependenceGraph,
    start: int = 1,
    counters: Optional[Counters] = None,
) -> int:
    """RecMII computed on the whole graph at once (no SCC decomposition).

    Exists for the ablation study of Section 2.2's observation that
    per-SCC computation makes the O(N^3) ComputeMinDist affordable; the
    answer is identical to :func:`rec_mii`, only the cost differs.
    """
    return _min_feasible_ii(graph, list(range(graph.n_ops)), start, counters)


def compute_mii(
    graph: DependenceGraph,
    machine,
    counters: Optional[Counters] = None,
    exact: bool = True,
    obs=None,
    deadline: Optional[Deadline] = None,
) -> MIIResult:
    """Compute MII = max(ResMII, RecMII) for a sealed graph.

    With ``exact=True`` the true RecMII is computed (seeding the SCC
    searches from 1), which the evaluation statistics need.  With
    ``exact=False`` the production short-cut is used: the search is seeded
    with ResMII, so the reported ``rec_mii`` is only a lower bound when it
    does not exceed ResMII — but ``mii`` is identical either way.

    ``obs`` (an optional :class:`repro.obs.ObsContext`) receives one
    ``mii`` span with ``mii.scc``/``mii.res``/``mii.rec`` children, the
    resulting bounds attached as attributes.
    """
    from repro.obs.context import NULL_OBS

    obs = obs if obs is not None else NULL_OBS
    if not graph.sealed:
        raise GraphError(f"graph {graph.name!r} must be sealed before MII")
    with obs.span("mii", graph=graph.name, exact=exact) as mii_span:
        with obs.span("mii.scc"):
            components = shared_components(graph, counters)
        with obs.span("mii.res") as res_span:
            res = res_mii(graph, machine, counters)
            res_span.set("res_mii", res)
        with obs.span("mii.rec") as rec_span:
            if exact:
                rec = rec_mii(graph, 1, counters, components, deadline)
                mii = max(res, rec)
            else:
                mii = rec_mii(graph, res, counters, components, deadline)
                rec = mii
            rec_span.set("rec_mii", rec)
        mii_span.set("mii", mii)
    return MIIResult(
        res_mii=res,
        rec_mii=rec,
        mii=mii,
        components=components,
        rec_mii_exact=exact,
    )
