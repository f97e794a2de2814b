"""The paper's iterative modulo scheduler as a registered backend.

A thin adapter: :func:`repro.core.scheduler.modulo_schedule` already
returns the protocol's result type and populates attempt records, so the
backend only maps the :class:`~repro.backends.base.IIPolicy` fields onto
the function's parameters.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import IIPolicy, SchedulerBackend
from repro.backends.registry import register
from repro.core.deadline import Deadline
from repro.core.mii import MIIResult
from repro.core.scheduler import ModuloScheduleResult, modulo_schedule
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph


@register
class IMSBackend(SchedulerBackend):
    """Rau's iterative modulo scheduling (Figures 2-4) — the default."""

    name = "ims"
    modulo = True
    proves_optimality = False

    def schedule(
        self,
        graph: DependenceGraph,
        machine,
        policy: Optional[IIPolicy] = None,
        *,
        mii_result: Optional[MIIResult] = None,
        counters: Optional[Counters] = None,
        obs=None,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> ModuloScheduleResult:
        policy = policy if policy is not None else IIPolicy()
        return modulo_schedule(
            graph,
            machine,
            budget_ratio=policy.budget_ratio,
            counters=counters,
            mii_result=mii_result,
            max_ii=policy.max_ii,
            trace=trace,
            obs=obs,
            deadline=deadline,
        )
