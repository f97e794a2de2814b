"""Strongly connected components of the dependence graph (Section 2.2).

All operations on a recurrence circuit belong to the same SCC, so the
RecMII can be computed as the largest RecMII over the individual SCCs —
which keeps the O(N^3) ComputeMinDist affordable because real loops have
very few, very small non-trivial SCCs (Section 4.2).

The implementation is an iterative Tarjan so that deep graphs do not hit
Python's recursion limit.  Components are emitted in *reverse topological
order* of the condensation (every successor component appears before its
predecessors), which is exactly the order the HeightR solver wants.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph


def strongly_connected_components(
    graph: DependenceGraph,
    counters: Optional[Counters] = None,
) -> List[List[int]]:
    """Tarjan's algorithm, iteratively, over all operations of ``graph``.

    Returns a list of components (each a list of operation indices) in
    reverse topological order of the condensation.
    """
    n = graph.n_ops
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    next_index = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        # Each frame is (vertex, iterator position over its successors).
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index_of[v] = lowlink[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
                if counters is not None:
                    counters.scc_steps += 1
            succ_edges = graph.succ_edges(v)
            advanced = False
            while edge_pos < len(succ_edges):
                w = succ_edges[edge_pos].succ
                edge_pos += 1
                if counters is not None:
                    counters.scc_steps += 1
                if index_of[w] == -1:
                    work[-1] = (v, edge_pos)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def shared_components(
    graph: DependenceGraph,
    counters: Optional[Counters] = None,
) -> List[List[int]]:
    """Memoized :func:`strongly_connected_components` for sealed graphs.

    The component structure of a sealed graph never changes, so the
    Tarjan run is paid once per graph and shared by every consumer (the
    MII computation, the HeightR solve of every candidate II, ...).
    The traversal cost is billed to ``counters.scc_steps`` on *every*
    call, so ``scc_steps`` keeps Table 4's meaning — the SCC work each
    consumer's algorithm calls for — whatever the memo already holds.
    Unsealed graphs fall through to a fresh run.
    """
    cached = getattr(graph, "_scc_cache", None) if graph.sealed else None
    if cached is None:
        probe = Counters()
        components = strongly_connected_components(graph, probe)
        cached = (components, probe.scc_steps)
        if graph.sealed:
            graph._scc_cache = cached
    components, cost = cached
    if counters is not None:
        counters.scc_steps += cost
    return [list(c) for c in components]


def condensation_order(
    graph: DependenceGraph,
    counters: Optional[Counters] = None,
) -> List[List[int]]:
    """Components in topological order (predecessor components first)."""
    return list(reversed(strongly_connected_components(graph, counters)))


def nontrivial_components(
    components: Iterable[Sequence[int]],
) -> List[List[int]]:
    """Filter to the non-trivial SCCs (more than one operation).

    Trivial SCCs with a reflexive dependence edge still constrain the
    RecMII, but analytically (ceil(delay/distance)); the callers handle
    those separately.
    """
    return [list(c) for c in components if len(c) > 1]
