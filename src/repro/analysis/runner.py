"""One-stop evaluation of corpus loops: everything Section 4 measures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.analysis.model import execution_time, execution_time_bound
from repro.core.mii import MIIResult
from repro.core.scheduler import ModuloScheduleResult
from repro.core.stats import Counters
from repro.workloads.corpus import CorpusLoop


@dataclass
class LoopEvaluation:
    """All per-loop measurements used by the Table 3/4 and Figure 6 benches."""

    loop: CorpusLoop
    n_ops: int
    n_real_ops: int
    n_edges: int
    mii_result: MIIResult
    result: ModuloScheduleResult
    list_sl: int
    mindist_sl_at_mii: int
    mindist_sl_at_ii: int
    counters: Counters
    #: Degradation-ladder record when the engine fell back (None on the
    #: normal full-IMS path): level, rung name, trigger and its detail.
    degradation: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------

    @property
    def degradation_level(self) -> int:
        """Ladder rung this record came from (0 = full IMS, no fallback)."""
        if not self.degradation:
            return 0
        return int(self.degradation.get("level", 0))

    @property
    def degraded(self) -> bool:
        """Whether this record came from a fallback scheduler."""
        return self.degradation_level > 0

    @property
    def mii(self) -> int:
        """The MII lower bound for this loop."""
        return self.mii_result.mii

    @property
    def ii(self) -> int:
        """The achieved initiation interval."""
        return self.result.ii

    @property
    def delta_ii(self) -> int:
        """Achieved II minus the MII bound."""
        return self.result.delta_ii

    @property
    def sl(self) -> int:
        """The achieved schedule length."""
        return self.result.schedule_length

    @property
    def sl_bound(self) -> int:
        """Lower bound on SL at the achieved II (Section 4.2): the larger
        of MinDist[START, STOP] and the acyclic list schedule length."""
        return max(self.mindist_sl_at_ii, self.list_sl)

    @property
    def sl_bound_at_mii(self) -> int:
        """SL lower bound evaluated at the MII (for the exec-time bound)."""
        return max(self.mindist_sl_at_mii, self.list_sl)

    @property
    def sl_ratio(self) -> float:
        """Achieved SL over its (not necessarily achievable) bound."""
        bound = self.sl_bound
        return self.sl / bound if bound else 1.0

    @property
    def exec_time(self) -> int:
        """The Section 4.3 execution-time model at the achieved SL and II."""
        return execution_time(
            self.loop.entry_freq, self.loop.loop_freq, self.sl, self.ii
        )

    @property
    def exec_bound(self) -> int:
        """The execution-time lower bound (SL bound at MII, and MII)."""
        return execution_time_bound(
            self.loop.entry_freq,
            self.loop.loop_freq,
            self.sl_bound_at_mii,
            self.mii,
        )

    @property
    def exec_ratio(self) -> float:
        """Execution time over its lower bound."""
        bound = self.exec_bound
        return self.exec_time / bound if bound else 1.0

    @property
    def schedule_ratio(self) -> float:
        """Operations scheduled per operation, in the successful attempt."""
        return self.result.steps_last / self.n_ops

    @property
    def backend(self) -> str:
        """Name of the scheduler backend that produced the result."""
        return self.result.backend

    @property
    def optimal(self) -> Optional[bool]:
        """Whether the achieved II is proven minimal (None = unproven)."""
        return self.result.optimal

    @property
    def optimality_gap(self) -> Optional[int]:
        """Heuristic II minus proven-minimal II (None without a proof)."""
        return self.result.optimality_gap


def evaluate_loop(
    loop: CorpusLoop,
    machine,
    budget_ratio: float = 6.0,
    backend: str = "ims",
) -> LoopEvaluation:
    """Schedule one corpus loop and gather every Section-4 measurement.

    The engine's per-loop path does the work, uncached and without the
    degradation ladder; a loop that cannot be evaluated raises the
    engine's ``RuntimeError`` naming the failure.
    """
    from repro.analysis.engine import EvaluationEngine

    engine = EvaluationEngine(
        machine,
        budget_ratio=budget_ratio,
        backend=backend,
        degrade=False,
    )
    return engine.evaluate_loop(loop)
