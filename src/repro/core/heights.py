"""HeightR: the scheduling priority function (Section 3.2, Figure 5a).

HeightR extends the classic height-based list-scheduling priority across
iteration boundaries: a successor ``Q`` at dependence distance ``D`` is
effectively ``II * D`` cycles further from STOP, so

    HeightR(STOP) = 0
    HeightR(P)    = max over successors Q of
                        HeightR(Q) + Delay(P, Q) - II * Distance(P, Q)

The implicit equations are solved SCC by SCC: Tarjan emits components in
reverse topological order (successors first), so by the time a component is
processed all of its external successors' heights are known; within a
non-trivial component the equations are iterated to a fixpoint, which
terminates because II >= RecMII guarantees no positive-weight circuit.

HeightR(P) equals MinDist[P, STOP]; the property-based tests check this
equivalence against :func:`repro.core.mindist.compute_mindist`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.scc import shared_components
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph, GraphError

_NEG_INF = float("-inf")


def height_r(
    graph: DependenceGraph,
    ii: int,
    counters: Optional[Counters] = None,
) -> List[int]:
    """Solve the HeightR equations for a sealed graph at interval ``ii``.

    Returns heights indexed by operation index.  Raises
    :class:`~repro.ir.graph.GraphError` if ``ii`` admits a positive-weight
    circuit (i.e. ``ii`` is below the RecMII), since the equations then
    have no finite solution.
    """
    if not graph.sealed:
        raise GraphError(f"graph {graph.name!r} must be sealed")
    if ii < 1:
        raise ValueError(f"II must be >= 1, got {ii}")
    heights: List[float] = [_NEG_INF] * graph.n_ops
    heights[graph.stop] = 0

    # Every candidate II re-solves the heights, but the component
    # structure is II-independent — the memoized SCC run is shared.
    for component in shared_components(graph, counters):
        members = set(component)
        # Seed every member from its external (already solved) successors.
        for p in component:
            best = heights[p]
            for edge in graph.succ_edges(p):
                if edge.succ in members:
                    # A trivial SCC's only circuit is a self-edge, which
                    # the fixpoint below never visits: reject it here.
                    if edge.succ == p and edge.delay > ii * edge.distance:
                        raise GraphError(
                            f"graph {graph.name!r}: HeightR diverges at "
                            f"II={ii} (II is below the RecMII)"
                        )
                    continue
                if counters is not None:
                    counters.heightr_inner += 1
                candidate = heights[edge.succ] + edge.delay - ii * edge.distance
                if candidate > best:
                    best = candidate
            heights[p] = best
        if len(component) == 1:
            continue
        # Fixpoint iteration over the internal edges.  With no positive
        # circuit, longest paths stabilize within |component| passes.
        for _ in range(len(component) + 1):
            changed = False
            for p in component:
                for edge in graph.succ_edges(p):
                    if edge.succ not in members:
                        continue
                    if counters is not None:
                        counters.heightr_inner += 1
                    candidate = (
                        heights[edge.succ] + edge.delay - ii * edge.distance
                    )
                    if candidate > heights[p]:
                        heights[p] = candidate
                        changed = True
            if not changed:
                break
        else:
            raise GraphError(
                f"graph {graph.name!r}: HeightR diverges at II={ii} "
                "(II is below the RecMII)"
            )
    return [int(h) if h != _NEG_INF else 0 for h in heights]
