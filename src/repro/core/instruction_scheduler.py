"""Instruction-driven iterative modulo scheduling (Section 3.1, footnote).

The paper's scheduler is an *operation* scheduler: pick the highest
priority operation, then find it a time slot.  Its footnote describes the
alternative style — *instruction* scheduling — which "operates by picking
a current time and scheduling as many operations as possible at that time
before moving on to the next time slot", and notes either style fits the
iterative framework, the operation style merely "seems more natural".

:class:`InstructionDrivenScheduler` runs that style inside the same
iterative framework so the two can be compared (see
``benchmarks/bench_ablation_scheduling_style.py``).  It is the
time-cursor branch of :meth:`repro.core.scheduler.IterativeScheduler.run`,
on the same per-attempt tables and with the same Estart, placement and
displacement:

* a time cursor sweeps forward; at each cycle, ready operations (Estart
  reached) are placed greedily in priority order while they fit;
* an operation whose entire II-wide window has slid past without a fit
  is *forced* using Figure 4's forward-progress rule, displacing whatever
  conflicts (Section 3.4) — this is what keeps the variant iterative
  rather than a one-pass greedy;
* the same budget discipline applies: each placement costs one step;
* a :class:`repro.core.trace.ScheduleTrace` receives the same pick /
  place / force / displace events as the operation-driven style, so
  traces (and the obs layer built on them) are comparable across styles.
"""

from __future__ import annotations

from repro.core.scheduler import IterativeScheduler


class InstructionDrivenScheduler(IterativeScheduler):
    """IterativeSchedule with a time cursor instead of a priority pop."""

    instruction_driven = True
