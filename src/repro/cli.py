"""Command-line interface: compile, analyze and schedule DSL loops.

Usage (see ``python -m repro --help``)::

    python -m repro machines
    python -m repro mii loop.dsl --machine cydra5
    python -m repro schedule loop.dsl --budget-ratio 2 --verify 50 --kernel
    python -m repro schedule loop.dsl --json > schedule.json
    python -m repro corpus --loops 200
    python -m repro corpus --loops 200 --obs-db obs.db --profile
    python -m repro obs report --db obs.db
    python -m repro obs diff --db obs.db BASE [OTHER]
    python -m repro check --loops 200 --jobs 2 --json check.json
    python -m repro lint --all-machines

``loop.dsl`` contains a single DSL loop, e.g.::

    for i in n:
        s = s + x[i] * y[i]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.core import compute_mii, recommend_unroll
from repro.ir import DelayModel, schedule_to_json
from repro.loopir import compile_loop_full
from repro.machine import (
    bus_conflict_machine,
    cydra5,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)
from repro.obs.schema import FORMAT as OBS_FORMAT
from repro.simulator import check_equivalence

MACHINES: Dict[str, Callable] = {
    "cydra5": cydra5,
    "single_alu": single_alu_machine,
    "two_alu": two_alu_machine,
    "superscalar": superscalar_machine,
    "bus_conflict": bus_conflict_machine,
}


class _ObsConfigError(Exception):
    """A bad --obs-out / --obs-format combination (clean exit code 2)."""


def _obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-out", default=None, metavar="FILE",
        help="trace the run and write spans + metrics to FILE "
             f"({OBS_FORMAT} JSONL by default)",
    )
    parser.add_argument(
        "--obs-format", default="jsonl", metavar="FMT",
        help=f"obs export format: jsonl (schema {OBS_FORMAT}) or chrome "
             "(Perfetto / chrome://tracing trace-event JSON)",
    )


def _obs_context(args):
    """Build the ObsContext requested by --obs-out, validating up front.

    Returns ``None`` when tracing was not requested.  An unknown format
    or an unwritable output path raises :class:`_ObsConfigError` *before*
    any scheduling work happens (mirroring the --cache-dir handling: a
    clean message on stderr and exit code 2, never a traceback after a
    long run).
    """
    if args.obs_out is None:
        return None
    from repro.obs import FORMATS, ObsContext

    if args.obs_format not in FORMATS:
        raise _ObsConfigError(
            f"unknown obs format {args.obs_format!r} "
            f"(choose from {', '.join(FORMATS)})"
        )
    try:
        with open(args.obs_out, "w"):
            pass
    except OSError as exc:
        raise _ObsConfigError(
            f"obs output path unusable: {exc}"
        ) from None
    return ObsContext()


def _write_obs(obs, args, out, run: Dict) -> None:
    """Export a traced run to --obs-out and print the text summary."""
    from repro.analysis.report import render_obs_summary
    from repro.obs import write_export

    snapshot = obs.to_dict()
    path = write_export(snapshot, args.obs_out, args.obs_format, run=run)
    print(render_obs_summary(snapshot), file=out)
    print(
        f"obs export ({args.obs_format}) written to {path}", file=out
    )


def _backend_argument(parser: argparse.ArgumentParser) -> None:
    from repro.backends import backend_names

    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default="ims",
        help="scheduler backend (default: ims; 'exact' proves II "
             "minimality with a SAT search from the MII upward)",
    )


def _resolve_backend(args):
    """Instantiate args.backend, or print an error and return None.

    An unknown name fails cleanly: exit code 2 in the caller, never a
    traceback.
    """
    from repro.backends import get_backend

    try:
        return get_backend(args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _machine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        choices=sorted(MACHINES),
        default="cydra5",
        help="target machine description (default: cydra5)",
    )
    parser.add_argument(
        "--conservative-delays",
        action="store_true",
        help="use Table 1's conservative (superscalar) delay column",
    )


def _compile(args, out):
    """Compile the DSL file named by args; returns (lowered, machine)."""
    machine = MACHINES[args.machine]()
    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    model = (
        DelayModel.CONSERVATIVE
        if args.conservative_delays
        else DelayModel.VLIW
    )
    return compile_loop_full(source, machine, delay_model=model), machine


def _cmd_machines(args, out) -> int:
    for name in sorted(MACHINES):
        machine = MACHINES[name]()
        census = machine.table_kind_census()
        shapes = ", ".join(f"{k.value}:{v}" for k, v in census.items() if v)
        print(
            f"{name:<14} {len(machine.resources):>2} resources, "
            f"{len(machine.opcode_names):>2} opcodes  [{shapes}]",
            file=out,
        )
    return 0


def _cmd_mii(args, out) -> int:
    lowered, machine = _compile(args, out)
    result = compute_mii(lowered.graph, machine, exact=True)
    print(f"loop: {lowered.graph.n_real_ops} operations, "
          f"{lowered.graph.n_edges} edges", file=out)
    print(f"ResMII = {result.res_mii}", file=out)
    print(f"RecMII = {result.rec_mii}", file=out)
    print(f"MII    = {result.mii}", file=out)
    print(
        f"non-trivial SCCs: {result.n_nontrivial_sccs} "
        f"(largest {max(result.scc_sizes)})",
        file=out,
    )
    if args.recommend_unroll > 1:
        recommendation = recommend_unroll(
            lowered.graph, machine, max_factor=args.recommend_unroll
        )
        table = ", ".join(
            f"{f}x:{v:.2f}"
            for f, v in sorted(recommendation.amortized_by_factor.items())
        )
        print(
            f"amortized MII by unroll factor: {table} -> "
            f"recommend {recommendation.factor}x",
            file=out,
        )
    return 0


def _cmd_schedule(args, out) -> int:
    from repro.core import ScheduleTrace
    from repro.obs.context import NULL_OBS

    try:
        obs = _obs_context(args)
    except _ObsConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs = obs if obs is not None else NULL_OBS
    with obs.span("frontend", file=args.file):
        lowered, machine = _compile(args, out)
    from repro.backends import IIPolicy

    backend = _resolve_backend(args)
    if backend is None:
        return 2
    trace = ScheduleTrace() if args.trace else None
    result = backend.schedule(
        lowered.graph,
        machine,
        IIPolicy(budget_ratio=args.budget_ratio),
        trace=trace,
        obs=obs,
    )
    if args.json:
        print(schedule_to_json(result.schedule, machine, indent=2), file=out)
        if args.obs_out:
            from repro.obs import write_export

            # Machine-output mode: export silently, keep stdout pure JSON.
            write_export(
                obs.to_dict(), args.obs_out, args.obs_format,
                run={"command": "schedule", "file": args.file,
                     "machine": args.machine},
            )
        return 0
    mii = result.mii_result
    print(
        f"MII={mii.mii} (Res {mii.res_mii} / Rec {mii.rec_mii})  "
        f"II={result.ii}  SL={result.schedule_length}  "
        f"stages={result.schedule.stage_count}  "
        f"attempts={result.attempts}  steps/op={result.inefficiency:.2f}",
        file=out,
    )
    if backend.proves_optimality:
        if result.optimal:
            gap = result.optimality_gap
            detail = (
                "heuristic matched it"
                if gap == 0
                else f"heuristic II was {result.heuristic_ii}"
            )
            print(f"II={result.ii} proven minimal ({detail})", file=out)
        else:
            print(
                "optimality unproven (solver budget exhausted below "
                f"II={result.ii})",
                file=out,
            )
    if args.kernel:
        print(result.schedule.describe(), file=out)
    if args.trace:
        print(trace.render(lowered.graph), file=out)
    if args.gantt:
        from repro.viz import resource_gantt

        print(resource_gantt(lowered.graph, machine, result.schedule), file=out)
    if args.diagram:
        from repro.viz import pipeline_diagram

        print(pipeline_diagram(lowered.graph, result.schedule), file=out)
    if args.verify:
        with obs.span("simulation", iterations=args.verify):
            report = check_equivalence(
                lowered, result.schedule, n=args.verify
            )
        print(
            f"simulation vs sequential oracle ({args.verify} iterations): "
            f"{'OK' if report.ok else 'MISMATCH'}",
            file=out,
        )
        if not report.ok:
            print(report.describe(), file=out)
            return 1
    if args.obs_out:
        try:
            _write_obs(
                obs, args, out,
                run={"command": "schedule", "file": args.file,
                     "machine": args.machine},
            )
        except OSError as exc:
            print(f"error: obs output path unusable: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_lint(args, out) -> int:
    """Run the static linters over machines (and optionally one loop)."""
    import inspect

    from repro.check import (
        Diagnostics,
        lint_graph,
        lint_machine,
        lint_mindist,
        waivers_in_source,
    )

    diags = Diagnostics()
    names = sorted(MACHINES) if args.all_machines else [args.machine]
    for name in names:
        factory = MACHINES[name]
        machine = factory()
        waivers = waivers_in_source(inspect.getmodule(factory))
        diags.extend(lint_machine(machine, waivers=waivers))
    if args.file is not None:
        lowered, machine = _compile(args, out)
        lint_graph(lowered.graph, diagnostics=diags)
        lint_mindist(lowered.graph, machine, diagnostics=diags)
    print(diags.render(), file=out)
    if args.json:
        from pathlib import Path

        document = diags.to_dict(
            run={"command": "lint", "machines": names, "file": args.file}
        )
        Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
        print(f"diagnostics written to {args.json}", file=out)
    return 0 if diags.ok else 1


def _cmd_check(args, out) -> int:
    """Statically validate one loop's schedule, or a whole corpus."""
    from pathlib import Path

    from repro.check import Diagnostics, check_schedule

    if args.file is not None:
        from repro.backends import IIPolicy

        backend = _resolve_backend(args)
        if backend is None:
            return 2
        lowered, machine = _compile(args, out)
        result = backend.schedule(
            lowered.graph, machine,
            IIPolicy(budget_ratio=args.budget_ratio),
        )
        diags = check_schedule(
            lowered.graph, machine, result.schedule, codegen=True
        )
        print(
            f"{lowered.graph.name}: II={result.ii} "
            f"SL={result.schedule_length}",
            file=out,
        )
        print(diags.render(), file=out)
        if args.json:
            document = diags.to_dict(
                run={"command": "check", "file": args.file,
                     "machine": args.machine}
            )
            Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
            print(f"diagnostics written to {args.json}", file=out)
        return 0 if diags.ok else 1

    # Corpus mode: the evaluation engine in strict --check mode; every
    # schedule (degraded-ladder fallbacks included) passes through the
    # independent validator before it is cached or counted.
    from repro.analysis.engine import EvaluationEngine
    from repro.analysis.resilience import RetryPolicy
    from repro.workloads import build_corpus
    from repro.workloads.kernels import KERNELS

    machine = MACHINES[args.machine]()
    n_synthetic = max(0, args.loops - len(KERNELS))
    corpus = build_corpus(machine, n_synthetic=n_synthetic, seed=args.seed)
    try:
        engine = EvaluationEngine(
            machine,
            budget_ratio=args.budget_ratio,
            backend=args.backend,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            verify_iterations=args.verify,
            check=True,
            retry_policy=RetryPolicy(max_retries=args.retries),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = engine.evaluate(corpus)
    except OSError as exc:
        print(f"error: cache directory unusable: {exc}", file=sys.stderr)
        return 2
    diags = Diagnostics()
    other_failures = []
    for failure in result.failures:
        entries = (
            failure.detail.get("diagnostics")
            if failure.phase == "check"
            else None
        )
        if entries:
            for entry in entries:
                diags.add(
                    entry.get("code", "SCHED005"),
                    f"{failure.loop_name}: {entry.get('message', '')}",
                    unit=entry.get("unit", failure.loop_name),
                    obj=entry.get("obj"),
                )
        else:
            other_failures.append(failure)
    checked = len(result.evaluations)
    print(
        f"checked {checked}/{len(corpus)} schedules on {machine.name!r}: "
        f"{len(result.failures)} rejection(s) "
        f"({result.describe()})",
        file=out,
    )
    print(diags.render(), file=out)
    for failure in other_failures:
        print(f"  FAILED {failure.describe()}", file=out)
    if args.json:
        document = diags.to_dict(
            run={
                "command": "check",
                "machine": args.machine,
                "loops": args.loops,
                "seed": args.seed,
                "jobs": engine.jobs,
            },
            checked=checked,
            failures=[f.to_dict() for f in result.failures],
            wall_seconds=result.wall_seconds,
            cache={"hits": result.hits, "misses": result.misses},
        )
        Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
        print(f"diagnostics written to {args.json}", file=out)
    return 0 if result.ok and diags.ok else 1


def _cmd_corpus(args, out) -> int:
    from collections import Counter

    from repro.analysis import distribution_row, render_table
    from repro.analysis.engine import EvaluationEngine
    from repro.analysis.resilience import RetryPolicy
    from repro.workloads import build_corpus
    from repro.workloads.kernels import KERNELS

    from repro.obs.context import NULL_OBS

    try:
        obs = _obs_context(args)
    except _ObsConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if obs is None and args.obs_db:
        # --obs-db implies tracing: the store ingests the span tree.
        from repro.obs import ObsContext

        obs = ObsContext()
    obs = obs if obs is not None else NULL_OBS
    # Start from a collected heap: otherwise a full cyclic-GC pass over
    # a long-lived caller's heap (tens of ms) lands in whichever phase
    # happens to trigger it, and two recordings of the same corpus stop
    # being comparable phase by phase.
    gc.collect()
    machine = MACHINES[args.machine]()
    n_synthetic = max(0, args.loops - len(KERNELS))
    with obs.span("frontend", loops=args.loops, seed=args.seed):
        corpus = build_corpus(
            machine, n_synthetic=n_synthetic, seed=args.seed
        )
    try:
        engine = EvaluationEngine(
            machine,
            budget_ratio=args.budget_ratio,
            backend=args.backend,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            verify_iterations=args.verify,
            obs=obs,
            loop_timeout=args.loop_timeout,
            retry_policy=RetryPolicy(max_retries=args.retries),
            degrade=not args.no_degrade,
            quarantine_path=args.quarantine,
            check=args.check,
            profile_interval=(
                args.profile_interval if args.profile else None
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = engine.evaluate(corpus)
    except OSError as exc:
        print(f"error: cache directory unusable: {exc}", file=sys.stderr)
        return 2
    # One run description for both sinks, so --obs-db ingests exactly
    # the records --obs-out writes.
    run = {"command": "corpus", "machine": args.machine, "loops": args.loops,
           "jobs": engine.jobs, "seed": args.seed, "verify": args.verify}
    if args.obs_out:
        try:
            _write_obs(obs, args, out, run=run)
        except OSError as exc:
            print(f"error: obs output path unusable: {exc}", file=sys.stderr)
            return 2
    if args.obs_db:
        from repro.obs.store import RunStore, StoreError

        try:
            with RunStore(args.obs_db) as store:
                ingested = store.ingest_run_artifacts(
                    obs.to_dict(), run=run, profile=result.profile,
                    source="corpus",
                )
        except (StoreError, OSError) as exc:
            print(f"error: obs db unusable: {exc}", file=sys.stderr)
            return 2
        print(
            f"run {ingested.run_id} recorded in {args.obs_db}", file=out
        )
    if args.profile_out:
        from repro.obs.flame import folded_lines, write_flamegraph

        if result.profile:
            path = write_flamegraph(
                folded_lines(result.profile), args.profile_out
            )
            print(
                f"profiler samples ({sum(result.profile.values())}) "
                f"written to {path}",
                file=out,
            )
        else:
            print(
                "no profiler samples collected (run too short, or "
                "--profile not set)",
                file=out,
            )
    evaluations = result.evaluations
    if not evaluations:
        print(f"engine: {result.describe()}", file=out)
        for failure in result.failures:
            print(f"  FAILED {failure.describe()}", file=out)
        return 1
    rows = [
        distribution_row("ops", [e.n_real_ops for e in evaluations], 4),
        distribution_row("MII", [e.mii for e in evaluations], 1),
        distribution_row("II - MII", [e.delta_ii for e in evaluations], 0),
        distribution_row(
            "steps/op", [e.schedule_ratio for e in evaluations], 1
        ),
    ]
    print(
        render_table(
            ["measurement", "min", "freq(min)", "median", "mean", "max"],
            [r.cells() for r in rows],
            title=f"{len(evaluations)} loops on {machine.name!r}:",
        ),
        file=out,
    )
    census = Counter(e.delta_ii for e in evaluations)
    print(
        f"II = MII on {census[0] / len(evaluations):.1%} of loops",
        file=out,
    )
    from repro.backends import get_backend

    if get_backend(args.backend).proves_optimality:
        proven = [e for e in evaluations if e.optimal]
        unproven = sum(1 for e in evaluations if e.optimal is None)
        print(
            f"backend {args.backend!r}: II proven minimal on "
            f"{len(proven)}/{len(evaluations)} loops"
            + (f" ({unproven} unproven)" if unproven else ""),
            file=out,
        )
        gaps = Counter(
            e.optimality_gap for e in proven if e.optimality_gap is not None
        )
        if gaps:
            matched = gaps[0]
            total = sum(gaps.values())
            detail = ", ".join(
                f"+{gap}:{count}"
                for gap, count in sorted(gaps.items())
                if gap
            )
            print(
                f"  heuristic achieved II* on {matched / total:.1%} of "
                f"proven loops"
                + (f" (gap census {detail})" if detail else ""),
                file=out,
            )
    print(f"engine: {result.describe()}", file=out)
    for note in result.diagnostics:
        print(f"  note: {note}", file=out)
    if result.quarantine_path and result.quarantined:
        print(
            f"  {result.quarantined} loop(s) quarantined to "
            f"{result.quarantine_path}",
            file=out,
        )
    if result.failures:
        for failure in result.failures:
            print(f"  FAILED {failure.describe()}", file=out)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Iterative modulo scheduling (Rau, MICRO-27 1994)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    machines = commands.add_parser(
        "machines", help="list available machine descriptions"
    )
    machines.set_defaults(handler=_cmd_machines)

    mii = commands.add_parser(
        "mii", help="compute the minimum initiation interval of a loop"
    )
    mii.add_argument("file", help="DSL file ('-' for stdin)")
    _machine_argument(mii)
    mii.add_argument(
        "--recommend-unroll",
        type=int,
        default=1,
        metavar="MAX",
        help="search unroll factors up to MAX for a better amortized MII",
    )
    mii.set_defaults(handler=_cmd_mii)

    schedule = commands.add_parser(
        "schedule", help="modulo-schedule a loop and report the result"
    )
    schedule.add_argument("file", help="DSL file ('-' for stdin)")
    _machine_argument(schedule)
    schedule.add_argument(
        "--budget-ratio", type=float, default=6.0,
        help="BudgetRatio (paper recommends ~2; default 6 for best quality)",
    )
    _backend_argument(schedule)
    schedule.add_argument(
        "--kernel", action="store_true", help="print the kernel layout"
    )
    schedule.add_argument(
        "--verify", type=int, default=0, metavar="N",
        help="simulate N iterations against the sequential oracle",
    )
    schedule.add_argument(
        "--json", action="store_true", help="emit the schedule as JSON"
    )
    schedule.add_argument(
        "--gantt", action="store_true",
        help="print the kernel's resource-occupancy grid",
    )
    schedule.add_argument(
        "--diagram", action="store_true",
        help="print the iterations-vs-time pipeline diagram",
    )
    schedule.add_argument(
        "--trace", action="store_true",
        help="print the scheduler's decision trace",
    )
    _obs_arguments(schedule)
    schedule.set_defaults(handler=_cmd_schedule)

    corpus = commands.add_parser(
        "corpus", help="evaluate a corpus and print summary statistics"
    )
    _machine_argument(corpus)
    corpus.add_argument("--loops", type=int, default=200)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--budget-ratio", type=float, default=6.0)
    _backend_argument(corpus)
    corpus.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the evaluation engine "
             "(0 = one per CPU; default 1)",
    )
    corpus.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache directory "
             "(unchanged loops are never re-scheduled across runs)",
    )
    corpus.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache",
    )
    corpus.add_argument(
        "--verify", type=int, default=0, metavar="N",
        help="simulate N iterations of every front-end loop against the "
             "sequential oracle (mismatches become failure records)",
    )
    corpus.add_argument(
        "--loop-timeout", type=float, default=None, metavar="SECONDS",
        help="per-loop wall-clock watchdog: a loop exceeding this budget "
             "is stopped (and falls down the degradation ladder)",
    )
    corpus.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-executions granted to a loop after a transient failure "
             "(crashed/hung worker, timeout); 0 disables retrying",
    )
    corpus.add_argument(
        "--no-degrade", action="store_true",
        help="fail a loop outright on budget/deadline exhaustion instead "
             "of falling back to relaxed IMS / list scheduling",
    )
    corpus.add_argument(
        "--quarantine", default=None, metavar="FILE",
        help="where terminal failures are recorded as quarantine.json "
             "(default <cache-dir>/quarantine.json when caching)",
    )
    corpus.add_argument(
        "--check", action="store_true",
        help="strict mode: statically validate every schedule (including "
             "degraded fallbacks) with the independent checker before "
             "caching or counting it",
    )
    _obs_arguments(corpus)
    corpus.add_argument(
        "--obs-db", default=None, metavar="FILE",
        help="record the run (the --obs-out records plus profiler "
             "samples) into this observatory database; implies tracing",
    )
    corpus.add_argument(
        "--profile", action="store_true",
        help="sample worker call stacks with the SIGPROF profiler "
             "(off by default; ~5ms interval)",
    )
    corpus.add_argument(
        "--profile-interval", type=float, default=0.005, metavar="SECONDS",
        help="sampling interval for --profile (default 0.005)",
    )
    corpus.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="write the merged collapsed-stack profiler samples to FILE",
    )
    corpus.set_defaults(handler=_cmd_corpus)

    check = commands.add_parser(
        "check",
        help="statically validate schedules with the independent checker",
    )
    check.add_argument(
        "file", nargs="?", default=None,
        help="DSL file to schedule and check ('-' for stdin); omit to "
             "check the whole corpus through the evaluation engine",
    )
    _machine_argument(check)
    check.add_argument("--loops", type=int, default=200)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--budget-ratio", type=float, default=6.0)
    _backend_argument(check)
    check.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for corpus mode (0 = one per CPU)",
    )
    check.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache directory (cache hits are "
             "re-validated before being trusted)",
    )
    check.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache",
    )
    check.add_argument(
        "--verify", type=int, default=0, metavar="N",
        help="also simulate N iterations against the sequential oracle",
    )
    check.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-executions granted after a transient failure",
    )
    check.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the repro.check.v1 diagnostics document to FILE",
    )
    check.set_defaults(handler=_cmd_check)

    lint = commands.add_parser(
        "lint",
        help="lint machine descriptions (and optionally one DSL loop)",
    )
    lint.add_argument(
        "file", nargs="?", default=None,
        help="DSL file whose graph and MinDist matrix to lint "
             "('-' for stdin)",
    )
    _machine_argument(lint)
    lint.add_argument(
        "--all-machines", action="store_true",
        help="lint every shipped machine description, not just --machine",
    )
    lint.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the repro.check.v1 diagnostics document to FILE",
    )
    lint.set_defaults(handler=_cmd_lint)

    from repro.obs.cli import register as register_obs

    register_obs(commands)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    return args.handler(args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
