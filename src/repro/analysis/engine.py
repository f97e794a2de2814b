"""Parallel, content-addressed, fault-tolerant corpus evaluation.

The paper's evaluation (Section 4) modulo-schedules 1327 loops to build
every table and figure; re-running that serially and from scratch for
each benchmark is the single biggest cost in the harness.  This module is
the substrate that makes corpus-scale evaluation cheap, repeatable and
*unkillable*:

* a **content-addressed result cache**: every per-loop evaluation is
  stored on disk under a stable hash of (loop IR, the machine's content
  key, scheduler configuration, code-format version), so unchanged loops
  are never re-scheduled or re-simulated across runs — and any change to
  the loop's graph, the machine's latencies or reservation tables, or
  the scheduler's budget automatically invalidates only the affected
  entries;
* a **process-pool fan-out** over the per-loop work with deterministic,
  corpus-order results regardless of completion order;
* **structured failure records**: a loop that cannot be scheduled (or
  fails verification) no longer aborts the corpus run — it is reported as
  a :class:`LoopFailure` alongside the successful evaluations;
* a **watchdog**: with ``loop_timeout`` set, each evaluation runs under a
  cooperative :class:`~repro.core.deadline.Deadline` threaded through the
  MII search and the scheduler, backed in pool workers by a SIGALRM
  alarm, and backstopped by a pool-side reaper that kills and replaces
  workers that stop making progress entirely;
* **crash-isolated retries**: a crashed, reaped or timed-out loop is
  retried with exponential backoff on a fresh worker
  (:class:`~repro.analysis.resilience.RetryPolicy`); deterministic
  failures are never retried — they land in ``quarantine.json`` with the
  scheduler's full search trajectory attached;
* a **degradation ladder**: when iterative modulo scheduling exhausts
  its budget or deadline, the worker falls back — recorded, never
  silent — first to floor-budget IMS and then to the acyclic list
  scheduler (kernel-only code), so every feasible loop still yields a
  schedule plus a ``degradation`` record;
* **the cache is the checkpoint**: each finished loop's entry is
  written (fsynced, then renamed into place) the moment it completes,
  so a re-run over the same cache after a crash or Ctrl-C evaluates
  only the loops that were never cached;
* **per-loop phase timings** (mindist / scheduling / codegen /
  simulation) and cache hit/miss counters on the result; a traced run
  records the same facts as spans and metrics of its ``repro.obs.v2``
  export, the one serialized form of a run (docs/OBSERVABILITY.md).

Both the serial and the parallel path round-trip each evaluation through
the same JSON payload that the cache stores, so results are bit-identical
whether they were computed in-process, in a worker, after a transient
fault, or loaded from disk.  The fault-injection harness
(:mod:`repro.analysis.faultinject`) proves that property end to end.
The payload holds the measurements and the schedule body (II, times,
alternatives by name), not a copy of the graph: the key pins the
graph's content, so each payload is decoded exactly once, against the
live ``loop.graph``, where it enters the engine — a cache hit or a
finished task.  A cache entry that does not decode counts as corrupt
and the loop is re-evaluated.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.faultinject import (
    FaultDirective,
    FaultPlan,
    apply_worker_faults,
)
from repro.analysis.resilience import (
    DEGRADATION_LEVELS,
    DETERMINISTIC,
    LEVEL_LIST_FALLBACK,
    LEVEL_RELAXED,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    atomic_write,
    classify_failure,
    write_quarantine,
)
from repro.analysis.runner import LoopEvaluation
from repro.backends import IIPolicy, get_backend
from repro.baselines.list_scheduler import list_schedule, list_schedule_length
from repro.core.mii import MIIResult, compute_mii, res_mii
from repro.core.mindist import schedule_length_lower_bound
from repro.core.scc import strongly_connected_components
from repro.core.scheduler import (
    AttemptRecord,
    ModuloScheduleResult,
    SchedulingFailure,
    modulo_schedule,
)
from repro.core.stats import Counters
from repro.ir.graph import GraphError
from repro.ir.serialize import bind_schedule, schedule_body
from repro.obs.context import NULL_OBS, ObsContext
from repro.workloads.corpus import CorpusLoop

#: Version of the evaluation semantics baked into every cache key.  Bump
#: whenever the meaning of a cached payload changes (new measurements, a
#: scheduler fix that alters results, a payload schema change) so stale
#: entries are never resurrected.
CODE_FORMAT_VERSION = 9  # v9: the MII mode left the key (it is always
# the exact RecMII search)

_PAYLOAD_FORMAT = "repro.loop-evaluation.v2"

#: The per-loop phases the engine accounts for.
PHASES = ("mindist", "scheduling", "codegen", "check", "simulation")

#: Budget ratio of the ladder's relaxed rung: the legal floor, where each
#: operation is scheduled ~once per candidate II and II escalates fast.
RELAXED_BUDGET_RATIO = 1.0


class VerificationError(RuntimeError):
    """The pipelined schedule disagreed with the sequential oracle."""


class StaticCheckError(RuntimeError):
    """The independent static validator rejected a schedule (strict mode).

    Carries the full diagnostics set; :meth:`detail` surfaces it as the
    ``repro.check.v1`` document on the :class:`LoopFailure` record.
    """

    def __init__(self, diagnostics) -> None:
        super().__init__(
            "; ".join(d.describe() for d in diagnostics.errors[:5])
            or "static check failed"
        )
        self.diagnostics = diagnostics

    def detail(self) -> Dict[str, Any]:
        """Structured context for the failure record."""
        return self.diagnostics.to_dict()


# ----------------------------------------------------------------------
# Cache keys


def _canonical_graph(graph) -> tuple:
    """The graph content a cache key covers, as one plain-data tuple.

    The same content :func:`repro.ir.serialize.graph_to_dict` serializes,
    built in one pass: the name and delay model, each real operation's
    opcode, dest, sources, predicate and attributes (sorted by name),
    and each edge but START/STOP's bracketing ones.  Its ``repr`` holds
    only strings, numbers, ``None`` and nested tuples and lists, so it
    never depends on the interpreter's hash seed.
    """
    if not graph.sealed:
        raise GraphError(f"graph {graph.name!r} must be sealed to key")
    stop = graph.stop
    # A sealed graph brackets its real operations with START and STOP.
    operations = [
        (
            operation.opcode,
            operation.dest,
            operation.srcs,
            operation.predicate,
            sorted(operation.attrs.items()),
        )
        for operation in graph.operations[1:-1]
    ]
    edges = [
        (edge.pred, edge.succ, edge.kind.value, edge.distance, edge.delay)
        for edge in graph.edges
        if edge.pred != graph.START and edge.succ != stop
    ]
    return graph.name, graph.delay_model.value, operations, edges


def cache_key(
    loop: Union[CorpusLoop, Any],
    machine,
    budget_ratio: float = 6.0,
    verify_iterations: int = 0,
    backend: str = "ims",
) -> str:
    """Stable, content-addressed key for one loop evaluation.

    The key is the SHA-256 of a canonical encoding of everything the
    evaluation's outcome depends on: the loop's dependence graph
    (:func:`_canonical_graph`), the machine's
    :attr:`~repro.machine.MachineDescription.content_key` (a memoized
    hash of its latencies and reservation tables), the scheduler
    configuration, and :data:`CODE_FORMAT_VERSION`.  It is stable across
    processes and interpreter restarts (no reliance on ``hash()``), and
    any semantic mutation of an input changes it.

    ``loop`` may be a :class:`CorpusLoop` or a bare dependence graph; the
    execution profile (``entry_freq``/``loop_freq``) is deliberately *not*
    part of the key — it scales the execution-time model but never the
    schedule, and is re-attached from the live loop on every load.
    """
    graph = loop.graph if isinstance(loop, CorpusLoop) else loop
    document = (
        CODE_FORMAT_VERSION,
        machine.content_key,
        backend,
        budget_ratio,
        verify_iterations,
        _canonical_graph(graph),
    )
    return hashlib.sha256(repr(document).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Evaluation payloads (the cached, process-portable form)


def evaluation_to_dict(evaluation: LoopEvaluation, machine) -> Dict[str, Any]:
    """Serialize a :class:`LoopEvaluation` to a JSON-compatible payload.

    Only the measurements are stored, and of the schedule only its body
    (:func:`~repro.ir.serialize.schedule_body`): the :class:`CorpusLoop`
    with its graph and execution profile is re-attached by
    :func:`evaluation_from_dict`.  ``machine`` is not consulted;
    alternatives are stored by name.  A ``degradation`` key appears only
    when the ladder was used.
    """
    mii = evaluation.mii_result
    result = evaluation.result
    payload = {
        "format": _PAYLOAD_FORMAT,
        "n_ops": evaluation.n_ops,
        "n_real_ops": evaluation.n_real_ops,
        "n_edges": evaluation.n_edges,
        "mii": {
            "res_mii": mii.res_mii,
            "rec_mii": mii.rec_mii,
            "mii": mii.mii,
            "components": [list(c) for c in mii.components],
            "rec_mii_exact": mii.rec_mii_exact,
        },
        "schedule": schedule_body(result.schedule),
        "search": {
            "backend": result.backend,
            "budget_ratio": result.budget_ratio,
            "attempts": result.attempts,
            "steps_total": result.steps_total,
            "steps_last": result.steps_last,
            "optimal": result.optimal,
            "attempt_records": [
                record.to_dict() for record in result.attempt_records
            ],
            "certificates": {
                str(ii): cert for ii, cert in result.certificates.items()
            },
        },
        "list_sl": evaluation.list_sl,
        "mindist_sl_at_mii": evaluation.mindist_sl_at_mii,
        "mindist_sl_at_ii": evaluation.mindist_sl_at_ii,
        "counters": evaluation.counters.snapshot(),
    }
    if evaluation.degradation is not None:
        payload["degradation"] = dict(evaluation.degradation)
    return payload


def evaluation_from_dict(
    data: Dict[str, Any], loop: CorpusLoop, machine
) -> LoopEvaluation:
    """Rebuild a :class:`LoopEvaluation` from :func:`evaluation_to_dict`.

    The schedule is bound to the live ``loop.graph``: the cache key pins
    the graph's content, so a payload is only ever served for the graph
    it was computed on.  Raises on a payload that does not decode, e.g.
    one naming an alternative ``machine`` lacks.
    """
    if data.get("format") != _PAYLOAD_FORMAT:
        raise ValueError(
            f"not a serialized loop evaluation: format {data.get('format')!r}"
        )
    counters = Counters(**data["counters"])
    mii_data = data["mii"]
    mii_result = MIIResult(
        res_mii=mii_data["res_mii"],
        rec_mii=mii_data["rec_mii"],
        mii=mii_data["mii"],
        components=[list(c) for c in mii_data["components"]],
        rec_mii_exact=mii_data["rec_mii_exact"],
    )
    search = data["search"]
    result = ModuloScheduleResult(
        schedule=bind_schedule(data["schedule"], loop.graph, machine),
        mii_result=mii_result,
        budget_ratio=search["budget_ratio"],
        attempts=search["attempts"],
        steps_total=search["steps_total"],
        steps_last=search["steps_last"],
        counters=counters,
        backend=search["backend"],
        optimal=search["optimal"],
        attempt_records=[
            AttemptRecord.from_dict(record)
            for record in search["attempt_records"]
        ],
        certificates={
            int(ii): cert for ii, cert in search["certificates"].items()
        },
    )
    return LoopEvaluation(
        loop=loop,
        n_ops=data["n_ops"],
        n_real_ops=data["n_real_ops"],
        n_edges=data["n_edges"],
        mii_result=mii_result,
        result=result,
        list_sl=data["list_sl"],
        mindist_sl_at_mii=data["mindist_sl_at_mii"],
        mindist_sl_at_ii=data["mindist_sl_at_ii"],
        counters=counters,
        degradation=data.get("degradation"),
    )


# ----------------------------------------------------------------------
# Structured records


@dataclass(frozen=True)
class LoopFailure:
    """One loop that could not be evaluated (the run continues without it).

    ``kind`` is the retry-taxonomy classification
    (:func:`repro.analysis.resilience.classify_failure`), ``attempts``
    how many executions were spent (retries included) and ``detail`` the
    structured context the failing layer attached — for a
    :class:`~repro.core.scheduler.SchedulingFailure` that is the full II
    search trajectory (attempted IIs, steps per II, budget per II).
    """

    index: int
    loop_name: str
    phase: str
    error_type: str
    message: str
    traceback: str = ""
    kind: str = DETERMINISTIC
    attempts: int = 1
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (traceback included for the report)."""
        return {
            "index": self.index,
            "loop": self.loop_name,
            "phase": self.phase,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "kind": self.kind,
            "attempts": self.attempts,
            "detail": dict(self.detail),
        }

    def describe(self) -> str:
        """One-line rendering for logs and CLI output."""
        retried = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return (
            f"{self.loop_name}: {self.error_type} during {self.phase}: "
            f"{self.message}{retried}"
        )


@dataclass(frozen=True)
class LoopTiming:
    """Structured per-loop timing record (one per corpus loop, in order)."""

    index: int
    loop_name: str
    key: str
    cache_hit: bool
    seconds: Dict[str, float]


@dataclass
class CorpusEvaluation:
    """Everything one engine run over a corpus produced.

    ``evaluations`` holds the successful records in corpus order;
    ``failures`` the loops that terminally failed (also in corpus order);
    ``timings`` one record per corpus loop regardless of outcome.
    ``counters`` is the run-level :class:`Counters` aggregate merged over
    every successful evaluation — cache hits included — so Table-4-style
    complexity data survives any ``jobs`` fan-out.

    The resilience tallies (``retries`` .. ``quarantined``) count fault
    events the run absorbed; they are all zero on a clean run.
    ``timeouts`` counts the failures that were a blown deadline
    (``DeadlineExceeded`` or ``TimeoutError``), retried or terminal; a
    ``MemoryError`` is a ``resource`` failure too, but not a timeout.
    ``quarantined`` counts the failures written to ``quarantine.json``,
    so it stays zero when the file is disabled.
    ``diagnostics`` carries run-level human-readable notes (a broken
    pool, a reap) that belong to the run rather than to any one loop.
    """

    evaluations: List[LoopEvaluation]
    failures: List[LoopFailure]
    timings: List[LoopTiming]
    jobs: int
    cache_enabled: bool
    hits: int
    misses: int
    wall_seconds: float
    counters: Counters = field(default_factory=Counters)
    #: Merged collapsed-stack sample counts from the sampling profiler
    #: (``--profile``); ``None`` on unprofiled runs.
    profile: Optional[Dict[str, int]] = None
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    reaped: int = 0
    degraded: int = 0
    cache_corrupt: int = 0
    quarantined: int = 0
    diagnostics: List[str] = field(default_factory=list)
    quarantine_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when every loop evaluated successfully."""
        return not self.failures

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        cache = (
            f"{self.hits} cache hits, {self.misses} misses"
            if self.cache_enabled
            else "cache off"
        )
        extras = []
        for label, value in (
            ("retries", self.retries),
            ("timeouts", self.timeouts),
            ("crashes", self.crashes),
            ("reaped", self.reaped),
            ("degraded", self.degraded),
            ("corrupt cache entries", self.cache_corrupt),
        ):
            if value:
                extras.append(f"{value} {label}")
        tail = f", {', '.join(extras)}" if extras else ""
        return (
            f"{len(self.timings)} loops in {self.wall_seconds:.2f}s "
            f"(jobs={self.jobs}, {cache}, {len(self.failures)} failures{tail})"
        )


# ----------------------------------------------------------------------
# The per-loop worker (module-level so process pools can pickle it)


@dataclass(frozen=True)
class _LoopTask:
    """Everything one worker needs to evaluate one loop (picklable)."""

    loop: CorpusLoop
    machine: Any
    budget_ratio: float
    verify_iterations: int
    observe: bool
    timeout: Optional[float]
    degrade: bool
    attempt: int
    faults: Tuple[FaultDirective, ...]
    in_pool: bool
    index: int
    check: bool = False
    backend: str = "ims"
    #: Sampling-profiler interval in seconds; 0.0 leaves the profiler
    #: entirely out of the worker (the disabled path is one ``if``).
    profile: float = 0.0


class _WatchdogAlarm:
    """SIGALRM backstop behind the cooperative deadline (pool workers only).

    The cooperative :class:`Deadline` checks cover the algorithm's hot
    loops; the alarm covers everything else (a wedged syscall, a hot loop
    the checks missed).  It fires a grace factor *after* the cooperative
    deadline so the structured ``DeadlineExceeded`` path wins whenever it
    can.  A no-op when ``seconds`` is None or SIGALRM is unavailable.
    """

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self._armed = False
        self._previous = None

    def _fire(self, signum, frame):
        raise DeadlineExceeded(
            f"watchdog alarm: loop evaluation exceeded {self.seconds:.3g}s "
            "(SIGALRM backstop)"
        )

    def __enter__(self) -> "_WatchdogAlarm":
        if self.seconds is not None and hasattr(signal, "SIGALRM"):
            try:
                self._previous = signal.signal(signal.SIGALRM, self._fire)
                signal.setitimer(
                    signal.ITIMER_REAL, self.seconds * 1.25 + 0.05
                )
                self._armed = True
            except ValueError:
                # Not the main thread: cooperative checks stand alone.
                self._previous = None
        return self

    def __exit__(self, *exc) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._armed = False


def _bound_mii(graph, machine, counters) -> MIIResult:
    """Cheap MII lower bound for the ladder when the real search blew up.

    The full MII's Floyd-Warshall feasibility probes are exactly what a
    wall-clock deadline interrupts, so the fallback never re-runs them:
    ResMII (linear in operations) seeds the II search instead, marked
    ``rec_mii_exact=False``.
    """
    res = res_mii(graph, machine, counters)
    components = strongly_connected_components(graph, counters)
    return MIIResult(
        res_mii=res,
        rec_mii=res,
        mii=res,
        components=components,
        rec_mii_exact=False,
    )


def _resilient_schedule(task: "_LoopTask", counters, obs, timer, phase_box):
    """The degradation ladder around one loop's MII + scheduling work.

    Returns ``(mii_result, result, degradation, deterministic)`` where
    ``degradation`` is None on the normal path and ``deterministic`` says
    whether the outcome may be cached (budget exhaustion is a property of
    the input; a blown wall-clock deadline is not).  Raises when the loop
    genuinely cannot be scheduled (or ``degrade`` is off).
    """
    loop, machine = task.loop, task.machine
    deadline = Deadline(task.timeout) if task.timeout else None
    mii_result = None
    try:
        with _WatchdogAlarm(task.timeout if task.in_pool else None):
            if task.faults:
                apply_worker_faults(
                    task.faults, task.attempt, deadline, task.in_pool
                )
            phase_box[0] = "mindist"
            with timer.phase("mindist"):
                mii_result = compute_mii(
                    loop.graph,
                    machine,
                    counters,
                    obs=obs,
                    deadline=deadline,
                )
            phase_box[0] = "scheduling"
            with timer.phase("scheduling"):
                if task.backend == "ims":
                    # The module-global name is the seam the fault
                    # injectors and resilience tests patch; the default
                    # backend must keep flowing through it.
                    result = modulo_schedule(
                        loop.graph,
                        machine,
                        budget_ratio=task.budget_ratio,
                        counters=counters,
                        mii_result=mii_result,
                        obs=obs,
                        deadline=deadline,
                    )
                else:
                    result = get_backend(task.backend).schedule(
                        loop.graph,
                        machine,
                        IIPolicy(budget_ratio=task.budget_ratio),
                        counters=counters,
                        mii_result=mii_result,
                        obs=obs,
                        deadline=deadline,
                    )
            return mii_result, result, None, True
    except (DeadlineExceeded, SchedulingFailure) as trigger:
        if not task.degrade:
            raise
        deterministic = isinstance(trigger, SchedulingFailure)
        degradation = {
            "reason": type(trigger).__name__,
            "message": str(trigger),
            "detail": trigger.detail() if deterministic else {},
            "backend": task.backend,
        }
        # Normalized attempt metadata for the rung that failed: the
        # ladder concatenates these in front of whatever the fallback
        # rung records, so the payload names the backend behind every
        # candidate II even across rungs.
        failed_records = tuple(
            AttemptRecord(
                backend=task.backend,
                ii=ii,
                success=False,
                steps=trigger.steps_by_ii.get(ii, 0),
                reason="budget",
            )
            for ii in trigger.attempted_iis
        ) if deterministic else ()

    # Rung 1: IMS at the floor budget, unclocked (the watchdog is
    # disarmed — each attempt is linear in operations and II escalates
    # fast, so the rung is bounded without a clock).
    phase_box[0] = "scheduling"
    if mii_result is None:
        with timer.phase("mindist"):
            mii_result = _bound_mii(loop.graph, machine, counters)
    with timer.phase("scheduling"):
        try:
            result = modulo_schedule(
                loop.graph,
                machine,
                budget_ratio=RELAXED_BUDGET_RATIO,
                counters=counters,
                mii_result=mii_result,
                obs=obs,
            )
            degradation["level"] = LEVEL_RELAXED
            degradation["name"] = DEGRADATION_LEVELS[LEVEL_RELAXED]
            degradation["backend"] = result.backend
            result.attempt_records = (
                list(failed_records) + result.attempt_records
            )
            return mii_result, result, degradation, deterministic
        except SchedulingFailure as exc:
            degradation["relaxed_error"] = f"{type(exc).__name__}: {exc}"
            failed_records = failed_records + tuple(
                AttemptRecord(
                    backend="ims",
                    ii=ii,
                    success=False,
                    steps=exc.steps_by_ii.get(ii, 0),
                    reason="budget",
                )
                for ii in exc.attempted_iis
            )

    # Rung 2: no software pipelining at all — the acyclic list schedule
    # (iterations never overlap, so its code is the kernel alone).
    with timer.phase("scheduling"):
        schedule = list_schedule(loop.graph, machine, counters)
        result = ModuloScheduleResult(
            schedule=schedule,
            mii_result=mii_result,
            budget_ratio=0.0,
            attempts=0,
            steps_total=0,
            steps_last=loop.graph.n_ops,
            counters=counters,
            backend="list",
            attempt_records=list(failed_records)
            + [
                AttemptRecord(
                    backend="list",
                    ii=schedule.ii,
                    success=True,
                    steps=loop.graph.n_ops,
                    reason="scheduled",
                )
            ],
        )
    degradation["level"] = LEVEL_LIST_FALLBACK
    degradation["name"] = DEGRADATION_LEVELS[LEVEL_LIST_FALLBACK]
    degradation["backend"] = "list"
    return mii_result, result, degradation, deterministic


def _evaluate_loop_task(task: "_LoopTask") -> Dict[str, Any]:
    """Evaluate one loop under the watchdog + ladder; never raises.

    Returns a JSON-compatible dict with exactly one of ``payload`` /
    ``failure`` non-None, the per-phase ``seconds``, the worker's ``obs``
    snapshot (None unless observing), the collapsed ``profile`` samples
    (None unless ``task.profile`` set) and ``cacheable`` (False when the
    outcome depended on wall-clock rather than on the input alone).  Any
    exception — including injected exotic types whose instances refuse to
    pickle — is reduced to a structured record here, inside the worker,
    so nothing unpicklable ever rides back through the pool.
    """
    profiler = None
    if task.profile:
        from repro.obs.profile import shared_profiler

        # One long-lived profiler per worker process: harvesting (not
        # re-arming) per task lets sub-interval tasks accumulate samples
        # statistically across the worker's lifetime.
        profiler = shared_profiler(task.profile)
        profiler.take()  # discard samples accrued between tasks
    obs = ObsContext() if task.observe else NULL_OBS
    timer = obs.timer()
    phase_box = ["setup"]
    payload = None
    failure = None
    cacheable = True
    with obs.span("loop", loop=task.loop.name) as loop_span:
        if task.attempt:
            loop_span.set("attempt", task.attempt)
        try:
            counters = Counters()
            mii_result, result, degradation, deterministic = (
                _resilient_schedule(task, counters, obs, timer, phase_box)
            )
            cacheable = degradation is None or deterministic
            with timer.phase("scheduling"):
                list_sl = list_schedule_length(task.loop.graph, task.machine)
            if degradation is None:
                phase_box[0] = "mindist"
                with timer.phase("mindist"):
                    at_mii = schedule_length_lower_bound(
                        task.loop.graph, mii_result.mii, obs=obs
                    )
                    if result.ii == mii_result.mii:
                        at_ii = at_mii
                    else:
                        at_ii = schedule_length_lower_bound(
                            task.loop.graph, result.ii, obs=obs
                        )
            else:
                # A degraded schedule is outside the paper's statistics,
                # so its MinDist bounds are not computed.
                at_mii = at_ii = 0
            evaluation = LoopEvaluation(
                loop=task.loop,
                n_ops=task.loop.graph.n_ops,
                n_real_ops=task.loop.graph.n_real_ops,
                n_edges=task.loop.graph.n_edges,
                mii_result=mii_result,
                result=result,
                list_sl=list_sl,
                mindist_sl_at_mii=at_mii,
                mindist_sl_at_ii=at_ii,
                counters=counters,
                degradation=degradation,
            )
            payload = evaluation_to_dict(evaluation, task.machine)
            if task.check:
                # Strict mode: the independent validator re-derives every
                # constraint before the payload may be cached — degraded
                # (relaxed-IMS and list-fallback) schedules included.
                phase_box[0] = "check"
                with timer.phase("check"), obs.span(
                    "check", loop=task.loop.name
                ) as check_span:
                    from repro.check import check_schedule

                    diags = check_schedule(
                        task.loop.graph,
                        task.machine,
                        result.schedule,
                        codegen=True,
                    )
                    check_span.set("findings", len(diags))
                obs.counter("check.schedules").inc()
                if len(diags):
                    obs.counter("check.findings").inc(len(diags))
                if not diags.ok:
                    obs.counter("check.rejected").inc()
                    raise StaticCheckError(diags)
                payload["check"] = {
                    "ok": True,
                    "warnings": len(diags.warnings),
                }
            if task.verify_iterations > 0 and task.loop.lowered is not None:
                phase_box[0] = "codegen"
                with timer.phase("codegen"):
                    from repro.codegen import emit_pipelined_code

                    emit_pipelined_code(task.loop.graph, result.schedule)
                phase_box[0] = "simulation"
                with timer.phase("simulation"):
                    from repro.simulator import check_equivalence

                    report = check_equivalence(
                        task.loop.lowered,
                        result.schedule,
                        n=task.verify_iterations,
                    )
                if not report.ok:
                    raise VerificationError(report.describe())
                payload["verify"] = {"n": task.verify_iterations, "ok": True}
            loop_span.set("ii", result.ii)
            loop_span.set("ok", True)
            if degradation is not None:
                loop_span.set("degraded", degradation["name"])
        except Exception as exc:  # surfaced as a structured LoopFailure
            payload = None
            cacheable = False
            detail: Dict[str, Any] = {}
            detail_of = getattr(exc, "detail", None)
            if callable(detail_of):
                try:
                    detail = detail_of()
                except Exception:
                    detail = {}
            failure = {
                "phase": phase_box[0],
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "detail": detail,
            }
            loop_span.set("ok", False)
            loop_span.set("failed_phase", phase_box[0])
            loop_span.set("kind", classify_failure(type(exc).__name__))
    samples = profiler.take() if profiler is not None else None
    return {
        "payload": payload,
        "failure": failure,
        "seconds": timer.snapshot(),
        "obs": obs.to_dict() if task.observe else None,
        "profile": samples,
        "cacheable": cacheable,
    }


@dataclass
class _RunStats:
    """Mutable per-run resilience tallies (shared across the helpers)."""

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    reaped: int = 0
    degraded: int = 0
    cache_corrupt: int = 0
    diagnostics: List[str] = field(default_factory=list)


def _pool_failure(error_type: str, message: str) -> Dict[str, Any]:
    """A synthesized worker outcome for a pool-level casualty."""
    return {
        "payload": None,
        "failure": {
            "phase": "pool",
            "error_type": error_type,
            "message": message,
            "traceback": "",
            "detail": {},
        },
        "seconds": {},
        "obs": None,
        "profile": None,
        "cacheable": False,
    }


def _casualty_snapshot(failure: LoopFailure) -> Dict[str, Any]:
    """The obs snapshot of a loop whose worker never replied."""
    return {"spans": [{
        "name": "loop", "span_id": 1, "parent_id": None,
        "start": time.time(), "dur": 0.0, "pid": os.getpid(),
        "attrs": {"loop": failure.loop_name, "ok": False,
                  "failed_phase": failure.phase, "kind": failure.kind},
    }]}


# ----------------------------------------------------------------------
# The engine


class EvaluationEngine:
    """Corpus evaluation with a process pool and an on-disk result cache.

    Parameters
    ----------
    machine:
        The target machine description.
    budget_ratio, backend:
        Scheduler configuration, folded into every cache key.
    jobs:
        Worker processes for cache misses; ``1`` evaluates in-process,
        ``0``/``None`` means one per CPU.  Results are always returned in
        corpus order, independent of completion order.
    cache_dir:
        Directory for the content-addressed cache (created on demand);
        ``None`` disables caching entirely (the CLI's ``--no-cache``).
    verify_iterations:
        When positive, every loop with front-end metadata additionally
        runs code generation and ``verify_iterations`` iterations of the
        cycle-level simulator against the sequential oracle; a mismatch
        becomes a :class:`LoopFailure` with phase ``"simulation"``.
    check:
        Strict static-validation mode.  Every schedule — including the
        degradation ladder's relaxed-IMS and list-fallback outputs — is
        re-validated from first principles by :mod:`repro.check` before
        its payload is cached; an error-severity finding becomes a
        :class:`LoopFailure` with phase ``"check"`` carrying the full
        ``repro.check.v1`` diagnostics document.  Cache hits are
        re-validated too (the validator is the corruption detector), at
        a few milliseconds per loop.
    obs:
        Optional :class:`repro.obs.ObsContext`.  When given, the run is
        traced end to end: a ``corpus.evaluate`` root span, a per-loop
        span tree from every worker (merged through the same JSON
        round-trip the payloads use; a failed loop's span names its
        failure ``kind``), a ``cache.load`` span with a ``hit`` flag per
        probed loop, and a deterministic metric snapshot (cache
        counters, aggregated algorithm counters, II/attempt histograms)
        that is byte-identical for any ``jobs`` value on a clean run;
        ``resilience.*`` counters appear only when fault events actually
        happen.
    loop_timeout:
        Per-loop wall-clock deadline in seconds (None disables the
        watchdog).  Enforced cooperatively inside the algorithms, by a
        SIGALRM backstop in pool workers, and by the pool-side reaper.
    retry_policy:
        :class:`~repro.analysis.resilience.RetryPolicy` for transient and
        resource failures (default: 2 retries, capped backoff).
    degrade:
        Whether budget/deadline exhaustion falls down the degradation
        ladder instead of failing the loop (default True).
    quarantine_path:
        Where terminal failures are written as ``quarantine.json``
        (default ``<cache_dir>/quarantine.json`` when caching; None
        disables the file — failures still appear on the result).
    reap_after:
        Pool-side no-progress window in seconds before hung workers are
        killed and replaced (default ``2 * loop_timeout + 5`` when a
        timeout is set, else off).
    fault_plan:
        A :class:`~repro.analysis.faultinject.FaultPlan` for the
        resilience test-suite; defaults to the ``REPRO_FAULT_INJECT``
        environment spec (empty in production).
    profile_interval:
        When set, every worker runs under the sampling profiler
        (:class:`repro.obs.profile.SamplingProfiler`) at this interval
        in seconds; the merged collapsed stacks land on
        ``CorpusEvaluation.profile``.  ``None`` (the default) keeps the
        profiler entirely out of the workers.
    """

    def __init__(
        self,
        machine,
        budget_ratio: float = 6.0,
        backend: str = "ims",
        jobs: Optional[int] = 1,
        cache_dir=None,
        verify_iterations: int = 0,
        check: bool = False,
        obs=None,
        loop_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        degrade: bool = True,
        quarantine_path=None,
        reap_after: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        profile_interval: Optional[float] = None,
    ) -> None:
        self.machine = machine
        self.budget_ratio = budget_ratio
        get_backend(backend)  # fail fast on an unknown backend name
        self.backend = backend
        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.verify_iterations = verify_iterations
        self.check = bool(check)
        self.obs = obs if obs is not None else NULL_OBS
        self.loop_timeout = float(loop_timeout) if loop_timeout else None
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.degrade = degrade
        if quarantine_path is not None:
            self.quarantine_path: Optional[Path] = Path(quarantine_path)
        elif self.caching:
            self.quarantine_path = self.cache_dir / "quarantine.json"
        else:
            self.quarantine_path = None
        if reap_after is not None:
            self.reap_after: Optional[float] = float(reap_after)
        elif self.loop_timeout is not None:
            self.reap_after = 2.0 * self.loop_timeout + 5.0
        else:
            self.reap_after = None
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        # None/0 keeps the workers' disabled path a single falsy check.
        self.profile_interval = (
            float(profile_interval) if profile_interval else 0.0
        )

    # -- cache ---------------------------------------------------------

    @property
    def caching(self) -> bool:
        """Whether this engine reads and writes the on-disk cache."""
        return self.cache_dir is not None

    def key_for(self, loop: CorpusLoop) -> str:
        """The cache key of one loop under this engine's configuration."""
        return cache_key(
            loop,
            self.machine,
            budget_ratio=self.budget_ratio,
            verify_iterations=self.verify_iterations,
            backend=self.backend,
        )

    def cache_path(self, key: str) -> Path:
        """On-disk location of a cache entry: ``<dir>/<key[:2]>/<key>.json``."""
        if self.cache_dir is None:
            raise ValueError("engine has no cache directory")
        return self.cache_dir / key[:2] / f"{key}.json"

    def _admit(
        self, payload: Any, loop: CorpusLoop
    ) -> Optional[LoopEvaluation]:
        """Decode a stored payload against ``loop``; strict mode re-checks it.

        Returns the evaluation, or None when the loop must be re-evaluated
        instead.  A stored payload is input from outside this run, so any
        defect that survived JSON parsing refuses it — a field of the
        wrong type as much as an alternative the machine lacks.  In
        strict mode the decoded schedule is then
        re-validated: a bit flip or a stale entry from a buggy scheduler
        build surfaces as a rejected payload.  The codegen cross-checks
        are skipped: codegen artifacts are not stored but re-derived from
        the schedule, and the fresh-evaluation path validated that
        derivation when the payload was written.
        """
        try:
            evaluation = evaluation_from_dict(payload, loop, self.machine)
        except Exception:
            return None
        if not self.check:
            return evaluation
        from repro.check import check_schedule

        self.obs.counter("check.schedules").inc()
        try:
            ok = check_schedule(
                loop.graph, self.machine, evaluation.result.schedule
            ).ok
        except Exception:  # e.g. a stored time that is not an integer
            ok = False
        if not ok:
            self.obs.counter("check.rejected").inc()
            return None
        return evaluation

    def _cache_load(
        self, key: str, loop: CorpusLoop, stats: _RunStats
    ) -> Optional[LoopEvaluation]:
        """Load and decode a cached evaluation, or None on miss.

        A present-but-unusable entry (truncated JSON, a foreign or
        garbled document — the aftermath of a crash or disk fault — or a
        payload :meth:`_admit` refuses) is a *counted* miss: the entry is
        deleted so the rewrite starts clean, and ``cache.corrupt`` ticks
        in the run's telemetry.
        """
        path = self.cache_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None  # genuinely absent: the ordinary miss
        try:
            data = json.loads(raw)
        except ValueError:  # malformed JSON or bytes that are not UTF-8
            data = None
        evaluation = None
        if isinstance(data, dict) and data.get("format") == _PAYLOAD_FORMAT:
            evaluation = self._admit(data, loop)
        if evaluation is None:
            stats.cache_corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
        return evaluation

    def _cache_write(self, key: str, payload: Dict[str, Any]) -> None:
        """Durably persist a payload (fsynced temp file, then rename)."""
        atomic_write(
            self.cache_path(key), json.dumps(payload, separators=(",", ":"))
        )

    def _truncate_cache_entry(self, key: str) -> None:
        """Fault injection only: clip a just-written entry mid-document."""
        path = self.cache_path(key)
        try:
            raw = path.read_bytes()
            path.write_bytes(raw[: max(1, len(raw) // 2)])
        except OSError:
            pass

    # -- evaluation ----------------------------------------------------

    def evaluate(self, corpus: Sequence[CorpusLoop]) -> CorpusEvaluation:
        """Evaluate a corpus; never raises for per-loop failures."""
        started = time.perf_counter()
        obs = self.obs
        n = len(corpus)
        stats = _RunStats()
        with obs.span("corpus.evaluate", loops=n, jobs=self.jobs) as root:
            keys = [self.key_for(loop) for loop in corpus]
            # Every payload is decoded once, against the live loop, where
            # it enters the engine: a cache hit or a finished task.
            decoded: List[Optional[LoopEvaluation]] = [None] * n
            failures_by_index: Dict[int, LoopFailure] = {}
            seconds: List[Dict[str, float]] = [{} for _ in range(n)]
            hit_flags = [False] * n
            # Per finished task: its obs snapshot and profiler samples.
            worker_output: Dict[int, Tuple[Any, Any]] = {}

            pending: List[int] = []
            for index, key in enumerate(keys):
                loop = corpus[index]
                if self.caching:
                    load_started = time.perf_counter()
                    with obs.span(
                        "cache.load", loop=loop.name, index=index
                    ) as load:
                        evaluation = self._cache_load(key, loop, stats)
                        load.set("hit", evaluation is not None)
                    if evaluation is not None:
                        elapsed = time.perf_counter() - load_started
                        decoded[index] = evaluation
                        hit_flags[index] = True
                        seconds[index] = {"load": elapsed, "total": elapsed}
                        continue
                pending.append(index)

            def finish(index: int, outcome: Dict[str, Any], attempts: int):
                """Bank one loop's terminal outcome as soon as it exists.

                The cache write happens here — per completion, not at end
                of run — so a kill -9 one loop before the end still
                leaves every earlier result durable for the re-run.
                """
                seconds[index] = outcome["seconds"]
                worker_output[index] = (
                    outcome.get("obs"), outcome.get("profile")
                )
                failure = outcome["failure"]
                if failure is not None:
                    failures_by_index[index] = LoopFailure(
                        index=index,
                        loop_name=corpus[index].name,
                        phase=failure["phase"],
                        error_type=failure["error_type"],
                        message=failure["message"],
                        traceback=failure.get("traceback", ""),
                        kind=classify_failure(failure["error_type"]),
                        attempts=attempts,
                        detail=failure.get("detail") or {},
                    )
                    return
                payload = outcome["payload"]
                decoded[index] = evaluation_from_dict(
                    payload, corpus[index], self.machine
                )
                if self.caching and outcome.get("cacheable", True):
                    self._cache_write(keys[index], payload)
                    if self.fault_plan.corrupts_cache(index):
                        self._truncate_cache_entry(keys[index])

            try:
                if self.jobs > 1 and len(pending) > 1:
                    workers = min(self.jobs, len(pending))
                    with obs.span("corpus.fanout", workers=workers):
                        self._run_pool(corpus, pending, workers, stats, finish)
                else:
                    self._run_serial(corpus, pending, stats, finish)
            finally:
                if self.profile_interval:
                    # The serial path arms the shared profiler in this
                    # very process; leave nothing ticking after the run.
                    from repro.obs.profile import stop_shared

                    stop_shared()

            # Absorb worker snapshots in corpus order (not completion
            # order) so the merged trace is reproducible run over run.
            profile: Optional[Dict[str, int]] = None
            for index in pending:
                snapshot, samples = worker_output.get(index, (None, None))
                if snapshot is None and index in failures_by_index:
                    # A pool casualty (crash, reap) returns no snapshot: a
                    # zero-length span recorded here stands in for it.
                    snapshot = _casualty_snapshot(failures_by_index[index])
                obs.absorb(snapshot, parent=root, index=index)
                if samples:
                    if profile is None:
                        profile = {}
                    for stack, count in samples.items():
                        profile[stack] = profile.get(stack, 0) + count

            evaluations: List[LoopEvaluation] = []
            failures: List[LoopFailure] = []
            timings: List[LoopTiming] = []
            for index, loop in enumerate(corpus):
                timings.append(
                    LoopTiming(
                        index=index,
                        loop_name=loop.name,
                        key=keys[index],
                        cache_hit=hit_flags[index],
                        seconds=seconds[index],
                    )
                )
                if index in failures_by_index:
                    failures.append(failures_by_index[index])
                elif decoded[index] is not None:
                    evaluations.append(decoded[index])

            # Run-level telemetry: the Counters aggregate survives any
            # jobs fan-out (and cache hits) because every evaluation's
            # bundle rides through the same JSON payload.
            totals = Counters()
            for evaluation in evaluations:
                totals.merge(evaluation.counters)
                obs.histogram("loop.ops").observe(evaluation.n_real_ops)
                if evaluation.degradation is not None:
                    stats.degraded += 1
            obs.absorb_counters(totals)
            obs.counter("engine.loops").inc(n)
            obs.counter("engine.failures").inc(len(failures))
            obs.counter("engine.cache.hits").inc(sum(hit_flags))
            obs.counter("engine.cache.misses").inc(len(pending))
            # Resilience metrics tick only on actual events, so a clean
            # run's metric snapshot is byte-identical to what it was
            # before this layer existed.
            for name, value in (
                ("resilience.retries", stats.retries),
                ("resilience.timeouts", stats.timeouts),
                ("resilience.crashes", stats.crashes),
                ("resilience.reaped", stats.reaped),
                ("resilience.degraded", stats.degraded),
                ("cache.corrupt", stats.cache_corrupt),
            ):
                if value:
                    obs.counter(name).inc(value)

            quarantined = 0
            if self.quarantine_path is not None:
                write_quarantine(
                    self.quarantine_path,
                    self.machine.name,
                    [f.to_dict() for f in failures],
                )
                quarantined = len(failures)
                if quarantined:
                    obs.counter("resilience.quarantined").inc(quarantined)
            root.set("failures", len(failures))
        return CorpusEvaluation(
            evaluations=evaluations,
            failures=failures,
            timings=timings,
            jobs=self.jobs,
            cache_enabled=self.caching,
            hits=sum(hit_flags),
            misses=len(pending),
            wall_seconds=time.perf_counter() - started,
            counters=totals,
            profile=profile,
            retries=stats.retries,
            timeouts=stats.timeouts,
            crashes=stats.crashes,
            reaped=stats.reaped,
            degraded=stats.degraded,
            cache_corrupt=stats.cache_corrupt,
            quarantined=quarantined,
            diagnostics=stats.diagnostics,
            quarantine_path=(
                str(self.quarantine_path) if self.quarantine_path else None
            ),
        )

    # -- execution paths ----------------------------------------------

    def _make_task(
        self, loop: CorpusLoop, index: int, attempt: int, in_pool: bool
    ) -> _LoopTask:
        return _LoopTask(
            loop=loop,
            machine=self.machine,
            budget_ratio=self.budget_ratio,
            verify_iterations=self.verify_iterations,
            observe=self.obs.enabled,
            timeout=self.loop_timeout,
            degrade=self.degrade,
            attempt=attempt,
            faults=self.fault_plan.for_loop(index),
            in_pool=in_pool,
            index=index,
            check=self.check,
            backend=self.backend,
            profile=self.profile_interval,
        )

    @staticmethod
    def _note_failure(failure: Dict[str, Any], stats: _RunStats) -> None:
        """Tally one observed failure occurrence (retried or terminal)."""
        error_type = failure["error_type"]
        if error_type in ("WorkerCrash", "BrokenProcessPool", "BrokenExecutor"):
            stats.crashes += 1
        elif error_type == "WorkerHang":
            stats.reaped += 1
        elif error_type in ("DeadlineExceeded", "TimeoutError"):
            stats.timeouts += 1

    def _run_serial(
        self,
        corpus: Sequence[CorpusLoop],
        pending: Sequence[int],
        stats: _RunStats,
        finish: Callable[[int, Dict[str, Any], int], None],
    ) -> None:
        """In-process evaluation with the same retry semantics as the pool."""
        for index in pending:
            attempt = 0
            while True:
                task = self._make_task(
                    corpus[index], index, attempt, in_pool=False
                )
                outcome = _evaluate_loop_task(task)
                failure = outcome["failure"]
                if failure is None:
                    break
                self._note_failure(failure, stats)
                kind = classify_failure(failure["error_type"])
                if not self.retry_policy.should_retry(kind, attempt):
                    break
                stats.retries += 1
                time.sleep(self.retry_policy.delay(attempt))
                attempt += 1
            finish(index, outcome, attempt + 1)

    def _rebuild_pool(
        self, pool: ProcessPoolExecutor, workers: int
    ) -> ProcessPoolExecutor:
        pool.shutdown(wait=False)
        return ProcessPoolExecutor(max_workers=workers)

    def _run_pool(
        self,
        corpus: Sequence[CorpusLoop],
        pending: Sequence[int],
        workers: int,
        stats: _RunStats,
        finish: Callable[[int, Dict[str, Any], int], None],
    ) -> None:
        """Pool fan-out with retries, crash salvage and the hang reaper.

        One wave loop owns everything: feed the pool (bounded in-flight),
        wait with a tick, bank completions, re-queue retryable failures
        through a backoff heap, and — when the pool breaks or stops
        making progress — salvage whatever finished, replace the pool,
        and carry on.  Loops are lost only when their retry budget is
        spent; the run itself never dies to a worker.
        """
        attempts = {index: 0 for index in pending}
        ready = deque(pending)
        delayed: List[Tuple[float, int]] = []  # (ready-at, index) heap
        inflight: Dict[Any, int] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        last_progress = time.monotonic()

        def resolve(index: int, outcome: Dict[str, Any]) -> None:
            failure = outcome["failure"]
            if failure is not None:
                self._note_failure(failure, stats)
                kind = classify_failure(failure["error_type"])
                if self.retry_policy.should_retry(kind, attempts[index]):
                    stats.retries += 1
                    ready_at = time.monotonic() + self.retry_policy.delay(
                        attempts[index]
                    )
                    attempts[index] += 1
                    heapq.heappush(delayed, (ready_at, index))
                    return
            finish(index, outcome, attempts[index] + 1)

        def salvage_or(index: int, future, fallback: Dict[str, Any]) -> None:
            """A finished-before-disaster future keeps its real result."""
            if future.done() and not future.cancelled():
                try:
                    error = future.exception()
                except Exception:
                    error = fallback  # anything non-None suppresses result
                if error is None:
                    resolve(index, future.result())
                    return
            resolve(index, fallback)

        try:
            while ready or delayed or inflight:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[1])
                # Keep the pool fed, but bounded: pickled tasks waiting in
                # the call queue would all die with one crashed worker.
                while ready and len(inflight) < 2 * workers:
                    index = ready.popleft()
                    task = self._make_task(
                        corpus[index], index, attempts[index], in_pool=True
                    )
                    try:
                        future = pool.submit(_evaluate_loop_task, task)
                    except (BrokenProcessPool, RuntimeError):
                        pool = self._rebuild_pool(pool, workers)
                        future = pool.submit(_evaluate_loop_task, task)
                    inflight[future] = index
                if not inflight:
                    if delayed:  # only backoff timers left: sleep them out
                        time.sleep(
                            max(0.0, min(0.05, delayed[0][0] - time.monotonic()))
                        )
                    continue
                tick = (
                    0.05
                    if (self.reap_after is not None or delayed)
                    else None
                )
                done, _ = wait(
                    list(inflight), timeout=tick, return_when=FIRST_COMPLETED
                )
                if not done:
                    if (
                        self.reap_after is not None
                        and time.monotonic() - last_progress >= self.reap_after
                    ):
                        # The reaper: nothing has completed for the whole
                        # window with work in flight — kill the workers
                        # (SIGKILL: a truly hung worker ignores polite
                        # signals by definition) and retry their loops.
                        stats.diagnostics.append(
                            f"reaper: no progress for {self.reap_after:.3g}s "
                            f"with {len(inflight)} loop(s) in flight; "
                            "killed and replaced the worker pool"
                        )
                        for process in list(
                            getattr(pool, "_processes", {}).values()
                        ):
                            process.kill()
                        wait(list(inflight), timeout=10.0)
                        for future, index in list(inflight.items()):
                            salvage_or(
                                index,
                                future,
                                _pool_failure(
                                    "WorkerHang",
                                    "worker made no progress within "
                                    f"{self.reap_after:.3g}s and was reaped",
                                ),
                            )
                        inflight.clear()
                        pool = self._rebuild_pool(pool, workers)
                        last_progress = time.monotonic()
                    continue
                last_progress = time.monotonic()
                pool_broke = False
                for future in done:
                    index = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        resolve(index, future.result())
                    else:
                        pool_broke = pool_broke or isinstance(
                            error, BrokenProcessPool
                        )
                        resolve(
                            index,
                            _pool_failure(
                                type(error).__name__,
                                str(error) or "worker died abruptly",
                            ),
                        )
                if pool_broke:
                    # One dead worker condemns every in-flight future of
                    # this executor.  Salvage the ones that completed
                    # before the break, retry the rest as crashes, and
                    # run on with a fresh pool.
                    stats.diagnostics.append(
                        "worker pool broke (a worker died); salvaged "
                        "finished results, rebuilt the pool and resumed"
                    )
                    for future, index in list(inflight.items()):
                        salvage_or(
                            index,
                            future,
                            _pool_failure(
                                "WorkerCrash",
                                "in flight when the worker pool broke",
                            ),
                        )
                    inflight.clear()
                    pool = self._rebuild_pool(pool, workers)
        finally:
            pool.shutdown(wait=False)

    def evaluate_loop(self, loop: CorpusLoop) -> LoopEvaluation:
        """Evaluate (or load) one loop; raises on failure."""
        result = self.evaluate([loop])
        if result.failures:
            failure = result.failures[0]
            raise RuntimeError(failure.describe())
        return result.evaluations[0]
