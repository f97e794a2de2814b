"""Exact modulo scheduling by SAT, proving II minimality.

The backend first runs the paper's iterative modulo scheduler to get an
upper bound II_h (falling back to the acyclic list schedule when even
IMS fails — its SL is always an achievable II, so the search space is
closed).  When II_h already equals the MII the heuristic result is
returned as-is with ``optimal=True`` — the MII is a lower bound, so no
solver work is needed; on this repo's corpus that covers the large
majority of loops.

Otherwise every candidate II in ``[MII, II_h)`` is compiled to CNF
(:mod:`repro.backends.encode`) and solved, in increasing order.  The
first satisfiable II is therefore *proven* minimal: everything below it
carries a refutation — either a positive recurrence circuit found
during encoding or an UNSAT verdict from the solver — and those
refutations are kept per-II in ``result.certificates``.  Every schedule
decoded from a SAT model is re-validated from scratch by the
independent checker (:func:`repro.check.validate.check_schedule`)
before it is returned.

The solver is the bundled pure-python CDCL solver
(:mod:`repro.backends.sat`).  If its conflict budget runs out the probe
reports ``unknown``, the heuristic schedule is returned and ``optimal``
stays ``None`` — the backend never claims a proof it does not hold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.backends.base import AttemptRecord, IIPolicy, SchedulerBackend
from repro.backends.encode import (
    ENCODED,
    INFEASIBLE,
    TOO_LARGE,
    ExactEncoding,
    decode_model,
    encode_exact_ii,
)
from repro.backends.registry import register
from repro.backends.sat import SAT, UNSAT, SolverResult, solve as cdcl_solve
from repro.baselines.list_scheduler import list_schedule
from repro.check.validate import check_schedule
from repro.core.deadline import Deadline, check_deadline
from repro.core.mii import MIIResult, compute_mii
from repro.core.scheduler import (
    ModuloScheduleResult,
    SchedulingFailure,
    modulo_schedule,
)
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph

#: Default conflict budget per candidate II for the CDCL solver.  The
#: corpus formulas are small (hundreds of variables); refutations land
#: in well under a thousand conflicts, so this is a safety valve, not a
#: tuning knob.
DEFAULT_MAX_CONFLICTS = 200_000

#: Cap on the summed time-window widths a single encoding may have.
#: The provably complete slack is (n_ops-1)*(II-1), which explodes for
#: deep loops at large II; beyond this budget the probe reports
#: ``too-large`` and the backend stops claiming a proof rather than
#: building a formula the pure-python solver cannot finish.
DEFAULT_MAX_TIME_VARS = 25_000

#: Companion cap on the built formula's clause count — large-II loops
#: with many reservation alternatives can blow up the placement side
#: even when their time windows fit the budget above.
DEFAULT_MAX_CLAUSES = 60_000


@register
class ExactBackend(SchedulerBackend):
    """SAT-based exact modulo scheduler (proves the minimal II)."""

    name = "exact"
    modulo = True
    proves_optimality = True

    def __init__(
        self,
        max_conflicts: int = DEFAULT_MAX_CONFLICTS,
        max_time_vars: int = DEFAULT_MAX_TIME_VARS,
        max_clauses: int = DEFAULT_MAX_CLAUSES,
    ) -> None:
        self.max_conflicts = int(max_conflicts)
        self.max_time_vars = int(max_time_vars)
        self.max_clauses = int(max_clauses)

    # ------------------------------------------------------------------

    @staticmethod
    def _certificate(
        encoding: ExactEncoding, result: Optional[SolverResult], status: str
    ) -> Dict[str, Any]:
        cert: Dict[str, Any] = {"status": status}
        if encoding.status == ENCODED:
            cert.update(encoding.shape())
            if encoding.truncated:
                cert["truncated"] = True
        else:
            cert["reason"] = encoding.reason
        if result is not None:
            cert["solver"] = "cdcl"
            if "conflicts" in result.stats:
                cert["conflicts"] = result.stats["conflicts"]
        return cert

    def _probe_ii(self, graph, machine, ii, counters, deadline) -> tuple:
        """Decide one candidate II.

        Returns ``(verdict, encoding, result)`` with verdict one of
        ``"sat"``, ``"unsat"``, ``"infeasible"``, ``"unknown"`` or
        ``"too-large"``.  The first encoding uses a cheap truncated
        horizon: SAT there is a real schedule, and the structural
        refutations (recurrence circuit, no feasible alternative) are
        horizon-independent — only a truncated UNSAT forces the
        escalation to the provably complete windows, and when those
        exceed the size budget the verdict honestly degrades to
        ``too-large`` instead of claiming a refutation.
        """
        full_slack = (graph.n_ops - 1) * (ii - 1)
        slack = 8
        last_result: Optional[SolverResult] = None
        while True:
            encoding = encode_exact_ii(
                graph,
                machine,
                ii,
                counters=counters,
                deadline=deadline,
                max_slack=slack,
                max_time_vars=self.max_time_vars,
                max_clauses=self.max_clauses,
            )
            if encoding.status == INFEASIBLE:
                return "infeasible", encoding, None
            if encoding.status == TOO_LARGE:
                # The windows a sound refutation would need are beyond
                # the solver's reach; SAT might still have been found at
                # a smaller slack, so only "unknown" remains.
                return "too-large", encoding, last_result
            if (
                encoding.truncated
                and slack < full_slack
                and len(encoding.clauses) > (self.max_clauses * 3) // 5
            ):
                # This intermediate rung already costs nearly as much as
                # the complete one — solve the conclusive formula instead
                # of burning an inconclusive refutation on this one.
                slack = full_slack
                continue
            result = cdcl_solve(
                encoding.n_vars,
                encoding.clauses,
                max_conflicts=self.max_conflicts,
            )
            if result.status == SAT:
                return "sat", encoding, result
            if result.status != UNSAT:
                return "unknown", encoding, result
            if not encoding.truncated:
                return "unsat", encoding, result
            # Truncated UNSAT is inconclusive: deepen.  Schedules live
            # near the small end of the window, so widen gently — each
            # skipped rung risks paying for a needlessly wide SAT search.
            last_result = result
            slack = min(slack * 2, full_slack)

    def _validated(self, graph, machine, schedule) -> None:
        diagnostics = check_schedule(graph, machine, schedule)
        if diagnostics.errors:  # pragma: no cover - encoder invariant
            raise RuntimeError(
                "exact backend produced a schedule the independent "
                "checker rejects: "
                + "; ".join(str(f) for f in diagnostics.errors)
            )

    # ------------------------------------------------------------------

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
        from repro.obs.context import NULL_OBS

        policy = policy if policy is not None else IIPolicy()
        obs = obs if obs is not None else NULL_OBS
        counters = counters if counters is not None else Counters()
        if mii_result is None:
            mii_result = compute_mii(
                graph, machine, counters, obs=obs, deadline=deadline
            )
        mii = mii_result.mii

        # ---- heuristic upper bound (also the fallback schedule when a
        # probe comes back unknown).
        records: List[AttemptRecord] = []
        try:
            upper = modulo_schedule(
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
            records.extend(upper.attempt_records)
        except SchedulingFailure as exc:
            for ii in exc.attempted_iis:
                records.append(
                    AttemptRecord(
                        backend="ims",
                        ii=ii,
                        success=False,
                        steps=exc.steps_by_ii.get(ii, 0),
                        reason="budget",
                    )
                )
            fallback = list_schedule(graph, machine, counters)
            records.append(
                AttemptRecord(
                    backend="list",
                    ii=fallback.ii,
                    success=True,
                    steps=graph.n_ops,
                    reason="scheduled",
                )
            )
            upper = ModuloScheduleResult(
                schedule=fallback,
                mii_result=mii_result,
                budget_ratio=policy.budget_ratio,
                attempts=len(exc.attempted_iis) + 1,
                steps_total=sum(exc.steps_by_ii.values()) + graph.n_ops,
                steps_last=graph.n_ops,
                counters=counters,
                backend="list",
                attempt_records=list(records),
            )
        ii_h = upper.schedule.ii

        def finish(
            schedule,
            optimal: Optional[bool],
            certificates: Dict[int, Dict[str, Any]],
            steps_last: int,
        ) -> ModuloScheduleResult:
            exact_records = [r for r in records if r.backend == self.name]
            obs.counter("exact.loops").inc()
            obs.histogram("exact.ii").observe(schedule.ii)
            return ModuloScheduleResult(
                schedule=schedule,
                mii_result=mii_result,
                budget_ratio=policy.budget_ratio,
                attempts=len(exact_records),
                steps_total=sum(r.steps for r in exact_records),
                steps_last=steps_last,
                counters=counters,
                backend=self.name,
                optimal=optimal,
                attempt_records=list(records),
                certificates=certificates,
            )

        with obs.span(
            "schedule.exact", graph=graph.name, solver="cdcl"
        ) as span:
            span.set("mii", mii)
            span.set("heuristic_ii", ii_h)
            if ii_h <= mii:
                # The MII is a lower bound, so matching it is a proof in
                # itself — no solver run needed.
                records.append(
                    AttemptRecord(
                        backend=self.name,
                        ii=ii_h,
                        success=True,
                        steps=0,
                        reason="matched-mii",
                    )
                )
                span.set("ii", ii_h)
                span.set("proof", "mii-bound")
                return finish(
                    upper.schedule,
                    True,
                    {ii_h: {"status": "sat", "witness": "mii-bound"}},
                    0,
                )

            certificates: Dict[int, Dict[str, Any]] = {}
            proof_lost = False
            for ii in range(mii, ii_h):
                check_deadline(deadline, "exact II probe")
                with obs.span("schedule.exact.attempt", ii=ii) as attempt:
                    verdict, encoding, result = self._probe_ii(
                        graph, machine, ii, counters, deadline
                    )
                    conflicts = (
                        int(result.stats.get("conflicts", 0))
                        if result is not None
                        else 0
                    )
                    attempt.set("status", verdict)
                    attempt.set("conflicts", conflicts)
                    if verdict == "sat":
                        schedule = decode_model(graph, encoding, result.model)
                        self._validated(graph, machine, schedule)
                        certificates[ii] = self._certificate(
                            encoding, result, "sat"
                        )
                        records.append(
                            AttemptRecord(
                                backend=self.name,
                                ii=ii,
                                success=True,
                                steps=conflicts,
                                reason="sat",
                            )
                        )
                        span.set("ii", ii)
                        span.set("proof", "sat-search" if not proof_lost else "none")
                        # Optimal only if every lower II was *soundly*
                        # refuted; a skipped/unknown probe below voids it.
                        return finish(
                            schedule,
                            True if not proof_lost else None,
                            certificates,
                            conflicts,
                        )
                    if verdict == "infeasible":
                        certificates[ii] = self._certificate(
                            encoding, None, "infeasible"
                        )
                        records.append(
                            AttemptRecord(
                                backend=self.name,
                                ii=ii,
                                success=False,
                                steps=0,
                                reason=encoding.reason,
                            )
                        )
                        continue
                    if verdict == "unsat":
                        certificates[ii] = self._certificate(
                            encoding, result, "unsat"
                        )
                        records.append(
                            AttemptRecord(
                                backend=self.name,
                                ii=ii,
                                success=False,
                                steps=conflicts,
                                reason="unsat",
                            )
                        )
                        continue
                    # unknown / too-large: the proof is lost, but keep
                    # probing — a higher II may still beat the heuristic.
                    proof_lost = True
                    certificates[ii] = self._certificate(
                        encoding, result, verdict
                    )
                    records.append(
                        AttemptRecord(
                            backend=self.name,
                            ii=ii,
                            success=False,
                            steps=conflicts,
                            reason=verdict,
                        )
                    )

            # No II below the heuristic's is achievable (or provable):
            # the heuristic schedule stands, proven minimal only when
            # every lower II carries a sound refutation.
            records.append(
                AttemptRecord(
                    backend=self.name,
                    ii=ii_h,
                    success=True,
                    steps=0,
                    reason=(
                        "confirmed-heuristic" if not proof_lost else "unproven"
                    ),
                )
            )
            if not proof_lost:
                certificates[ii_h] = {"status": "sat", "witness": "heuristic"}
            span.set("ii", ii_h)
            span.set("proof", "exhausted-below" if not proof_lost else "none")
            return finish(
                upper.schedule,
                True if not proof_lost else None,
                certificates,
                0,
            )
