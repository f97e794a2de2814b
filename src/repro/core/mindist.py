"""ComputeMinDist: the pairwise minimum-interval matrix (Section 2.2).

For a candidate initiation interval II, ``MinDist[i, j]`` is the minimum
permissible interval between the scheduled time of operation ``i`` and the
scheduled time of operation ``j`` *of the same iteration*.  An edge ``e``
from ``i`` to ``j`` contributes ``delay(e) - II * distance(e)``; MinDist is
the all-pairs longest path under these weights (the (max, +) closure),
computed Floyd-Warshall style by :func:`compute_mindist`.

A positive diagonal entry means some recurrence circuit requires an
operation to be scheduled after itself — the II is infeasible.  The RecMII
is the smallest II with no positive diagonal entry; :mod:`repro.core.mii`
finds it the paper's way, one SCC at a time with a doubling-then-binary
search of :func:`compute_mindist` probes.

The dependence bound on schedule length, MinDist[START, STOP], needs one
row of the matrix, not all of it.  By definition it is HeightR(START)
(Section 3.2), so :func:`schedule_length_lower_bound` reads it off the
SCC-wise longest-path solve in :mod:`repro.core.heights` — O(E) per
non-trivial SCC pass instead of an O(N³) pass over the whole graph.
``tests/test_differential.py`` holds the bound to
``compute_mindist(graph, ii)[START, STOP]`` over the corpus.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.deadline import Deadline, check_deadline
from repro.core.heights import height_r
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph

#: The matrix value standing for "no path from i to j".
NO_PATH = -np.inf


def compute_mindist(
    graph: DependenceGraph,
    ii: int,
    ops: Optional[Sequence[int]] = None,
    counters: Optional[Counters] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Compute the MinDist matrix for ``ops`` (default: all operations).

    Returns ``(matrix, index_map)`` where ``index_map`` maps an operation
    index in the graph to its row/column in the matrix.  Only edges with
    both endpoints inside ``ops`` are considered, which is what the
    SCC-at-a-time RecMII computation needs.

    ``deadline`` (a cooperative :class:`repro.core.deadline.Deadline`)
    is checked once on entry and every 16 Floyd-Warshall pivot rows —
    this N³ pass is the hot spot a wall-clock watchdog must be able to
    interrupt (see :mod:`repro.analysis.resilience`).
    """
    if ii < 1:
        raise ValueError(f"II must be >= 1, got {ii}")
    check_deadline(deadline, "mindist")
    if ops is None:
        ops = range(graph.n_ops)
    ops = list(ops)
    index_map = {op: i for i, op in enumerate(ops)}
    n = len(ops)
    dist = np.full((n, n), NO_PATH, dtype=float)
    for op in ops:
        i = index_map[op]
        for edge in graph.succ_edges(op):
            j = index_map.get(edge.succ)
            if j is None:
                continue
            weight = edge.delay - ii * edge.distance
            if weight > dist[i, j]:
                dist[i, j] = weight

    # Floyd-Warshall in the (max, +) semiring.  The vectorized update
    # performs the same N^3 innermost-loop work the paper counts.
    for k in range(n):
        if deadline is not None and (k & 15) == 0:
            deadline.check("mindist")
        via_k = dist[:, k : k + 1] + dist[k : k + 1, :]
        np.maximum(dist, via_k, out=dist)
    if counters is not None:
        counters.mindist_inner += n * n * n
        counters.mindist_invocations += 1
    return dist, index_map


def mindist_feasible(dist: np.ndarray) -> bool:
    """True when no diagonal entry is positive (the II is feasible)."""
    return bool(np.all(np.diagonal(dist) <= 0))


def schedule_length_lower_bound(
    graph: DependenceGraph,
    ii: int,
    obs=None,
    deadline: Optional[Deadline] = None,
) -> int:
    """MinDist[START, STOP]: the dependence-imposed lower bound on SL.

    The paper's lower bound on the modulo schedule length for a given II is
    the larger of this quantity and the acyclic list schedule length
    (Section 4.2); the baseline package provides the latter.

    The value is HeightR(START) at ``ii`` (see the module docstring).  No
    counters are billed: Table 4's HeightR row counts the scheduler's
    work only.  Raises :class:`~repro.ir.graph.GraphError` when ``ii`` is
    below the RecMII, where no longest path exists.  ``obs`` (an
    optional :class:`repro.obs.ObsContext`) receives one
    ``mindist.bound`` span per call; ``deadline`` is checked on entry.
    """
    from repro.obs.context import NULL_OBS

    obs = obs if obs is not None else NULL_OBS
    check_deadline(deadline, "mindist.bound")
    with obs.span("mindist.bound", ii=ii, n_ops=graph.n_ops) as span:
        bound = height_r(graph, ii)[graph.START]
        span.set("bound", bound)
    return bound
