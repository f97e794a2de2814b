"""The acyclic list scheduler as a registered backend.

No software pipelining: iterations never overlap, the schedule grid is
linear (``modulo=False``) and the recorded II is ``max(1, SL)`` — which
is exactly why the list schedule is also a *legal* modulo schedule at
that II, making this backend the degradation ladder's last rung and the
upper bound that guarantees the exact backend's II search terminates.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import AttemptRecord, SchedulerBackend
from repro.backends.registry import register
from repro.baselines.list_scheduler import list_schedule
from repro.core.deadline import Deadline, check_deadline
from repro.core.mii import MIIResult, compute_mii
from repro.core.scheduler import ModuloScheduleResult
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph


@register
class ListBackend(SchedulerBackend):
    """Conventional acyclic list scheduling (the paper's baseline)."""

    name = "list"
    modulo = False
    proves_optimality = False

    def schedule(
        self,
        graph: DependenceGraph,
        machine,
        budget_ratio: float = 6.0,
        *,
        mii_result: Optional[MIIResult] = None,
        counters: Optional[Counters] = None,
        obs=None,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> ModuloScheduleResult:
        from repro.obs.context import NULL_OBS

        obs = obs if obs is not None else NULL_OBS
        counters = counters if counters is not None else Counters()
        check_deadline(deadline, "list schedule")
        if mii_result is None:
            mii_result = compute_mii(
                graph, machine, counters, obs=obs, deadline=deadline
            )
        with obs.span("schedule", graph=graph.name, style="list") as span:
            schedule = list_schedule(graph, machine, counters)
            span.set("ii", schedule.ii)
            span.set("attempts", 1)
        obs.counter("sched.loops").inc()
        obs.histogram("sched.ii").observe(schedule.ii)
        return ModuloScheduleResult(
            schedule=schedule,
            mii_result=mii_result,
            budget_ratio=budget_ratio,
            attempts=1,
            steps_total=graph.n_ops,
            steps_last=graph.n_ops,
            counters=counters,
            backend=self.name,
            optimal=None,
            attempt_records=[
                AttemptRecord(
                    backend=self.name,
                    ii=schedule.ii,
                    success=True,
                    steps=graph.n_ops,
                    reason="scheduled",
                )
            ],
        )
