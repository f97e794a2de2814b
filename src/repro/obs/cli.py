"""The ``repro obs`` command family: the observatory's front door.

::

    repro obs ingest --db obs.db run1.jsonl [BENCH_SCHED.json ...]
    repro obs runs   --db obs.db
    repro obs report --db obs.db [RUN] [--baseline FILE] [--json]
    repro obs diff   --db obs.db BASE OTHER [--json]
    repro obs top    --db obs.db [RUN] --by wall|displaced|attempts|slack
    repro obs flame  --db obs.db [RUN] -o out.folded

Runs are addressed by id prefix or ``latest`` (the default).  Every
reporting command takes ``--json`` for machine consumption next to the
rendered table default.  Exit codes follow the repo convention: ``0``
success, ``1`` a *finding* (a non-clean diff, a baseline breach), ``2``
a configuration error (bad path, unknown run, unreadable file).

The handlers live here rather than in :mod:`repro.cli` so the top-level
CLI only pays for the observatory when it is used; :func:`register`
grafts the subtree onto the main parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


def _open_store(args, out):
    from repro.obs.store import RunStore, StoreError

    try:
        return RunStore(args.db)
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _resolve(store, ref, *, what="run"):
    from repro.obs.store import StoreError

    try:
        return store.resolve_run(ref)
    except StoreError as exc:
        print(f"error: {what}: {exc}", file=sys.stderr)
        return None


def _cmd_obs_ingest(args, out) -> int:
    from repro.obs.store import StoreError

    store = _open_store(args, out)
    if store is None:
        return 2
    with store:
        status = 0
        for path in args.files:
            try:
                result = store.ingest_path(path)
            except (StoreError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 2
                continue
            print(result.describe(), file=out)
    return status


def _cmd_obs_runs(args, out) -> int:
    from repro.analysis.report import render_table

    store = _open_store(args, out)
    if store is None:
        return 2
    with store:
        runs = store.runs()
    if args.json:
        print(json.dumps(runs, indent=2, default=str), file=out)
        return 0
    rows = [
        [
            run["run_id"],
            run.get("format") or "",
            str(run.get("n_spans") or 0),
            str(run.get("n_loops") or 0),
            str(run.get("n_failures") or 0),
            f"{run['wall_seconds']:.2f}" if run.get("wall_seconds") else "",
            run.get("source") or "",
        ]
        for run in runs
    ]
    print(
        render_table(
            ["run", "format", "spans", "loops", "failures", "wall s",
             "source"],
            rows,
            title=f"{len(runs)} run(s) in {args.db}:",
        ),
        file=out,
    )
    return 0


def _cmd_obs_report(args, out) -> int:
    from repro.obs.analyze import check_baseline, make_baseline, phase_profile
    from repro.analysis.report import render_phase_profile

    store = _open_store(args, out)
    if store is None:
        return 2
    with store:
        run_id = _resolve(store, args.run)
        if run_id is None:
            return 2
        profile = phase_profile(store, run_id)
        run = store.run_row(run_id)
        if args.make_baseline:
            baseline = make_baseline(store, run_id, headroom=args.headroom)
            Path(args.make_baseline).write_text(
                json.dumps(baseline, indent=2, sort_keys=True) + "\n"
            )
            print(f"baseline written to {args.make_baseline}", file=out)
        breaches: List[str] = []
        if args.baseline:
            try:
                baseline = json.loads(Path(args.baseline).read_text())
            except (OSError, ValueError) as exc:
                print(f"error: baseline unreadable: {exc}", file=sys.stderr)
                return 2
            breaches = check_baseline(store, run_id, baseline)
    if args.json:
        print(
            json.dumps(
                {
                    "run": run_id,
                    "wall_seconds": run.get("wall_seconds"),
                    "n_loops": run.get("n_loops"),
                    "n_failures": run.get("n_failures"),
                    "phases": [stat.to_dict() for stat in profile],
                    "baseline_breaches": breaches,
                },
                indent=2,
            ),
            file=out,
        )
    else:
        print(render_phase_profile(run_id, run, profile), file=out)
        for breach in breaches:
            print(f"BASELINE BREACH: {breach}", file=out)
        if args.baseline and not breaches:
            print(f"baseline {args.baseline}: within budget", file=out)
    return 1 if breaches else 0


def _cmd_obs_diff(args, out) -> int:
    from repro.obs.analyze import (
        DEFAULT_NOISE_FLOOR,
        DEFAULT_NOISE_RATIO,
        diff_runs,
    )
    from repro.analysis.report import render_run_diff

    store = _open_store(args, out)
    if store is None:
        return 2
    with store:
        base_id = _resolve(store, args.base, what="base run")
        if base_id is None:
            return 2
        other_id = _resolve(store, args.other, what="other run")
        if other_id is None:
            return 2
        diff = diff_runs(
            store,
            base_id,
            other_id,
            noise_ratio=(
                args.noise_ratio
                if args.noise_ratio is not None
                else DEFAULT_NOISE_RATIO
            ),
            noise_floor=(
                args.noise_floor
                if args.noise_floor is not None
                else DEFAULT_NOISE_FLOOR
            ),
        )
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2), file=out)
    else:
        print(render_run_diff(diff), file=out)
    return 0 if diff.clean else 1


def _cmd_obs_top(args, out) -> int:
    from repro.obs.analyze import top_loops
    from repro.analysis.report import render_top_loops

    store = _open_store(args, out)
    if store is None:
        return 2
    with store:
        run_id = _resolve(store, args.run)
        if run_id is None:
            return 2
        try:
            ranked = top_loops(store, run_id, by=args.by, n=args.n)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(ranked, indent=2), file=out)
    else:
        print(render_top_loops(run_id, args.by, ranked), file=out)
    return 0


def _cmd_obs_flame(args, out) -> int:
    from repro.obs.flame import flamegraph_from_store, write_flamegraph

    store = _open_store(args, out)
    if store is None:
        return 2
    with store:
        run_id = _resolve(store, args.run)
        if run_id is None:
            return 2
        try:
            lines = flamegraph_from_store(store, run_id, source=args.source)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not lines:
        print(
            f"error: run {run_id} has no {args.source} data to fold",
            file=sys.stderr,
        )
        return 2
    if args.output:
        path = write_flamegraph(lines, args.output)
        print(
            f"flamegraph ({len(lines)} stacks) written to {path}", file=out
        )
    else:
        for line in lines:
            print(line, file=out)
    return 0


def _db_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", default="obs.db", metavar="FILE",
        help="run-store database (default: obs.db)",
    )


def _json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the rendered table",
    )


def register(commands) -> None:
    """Graft the ``obs`` subtree onto the main CLI's subparsers."""
    obs = commands.add_parser(
        "obs",
        help="the scheduling observatory: ingest, profile and diff runs",
    )
    sub = obs.add_subparsers(dest="obs_command", required=True)

    ingest = sub.add_parser(
        "ingest",
        help="ingest repro.obs.v2 JSONL exports and BENCH_*.json "
             "trajectories into the run store",
    )
    _db_argument(ingest)
    ingest.add_argument("files", nargs="+", metavar="FILE")
    ingest.set_defaults(handler=_cmd_obs_ingest)

    runs = sub.add_parser("runs", help="list the runs in the store")
    _db_argument(runs)
    _json_argument(runs)
    runs.set_defaults(handler=_cmd_obs_runs)

    report = sub.add_parser(
        "report",
        help="self-time phase profile (p50/p95/p99) of one run",
    )
    _db_argument(report)
    _json_argument(report)
    report.add_argument(
        "run", nargs="?", default=None,
        help="run id, unique prefix, or 'latest' (default)",
    )
    report.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="check the profile against a repro.obs.baseline.v1 budget "
             "(breaches exit 1)",
    )
    report.add_argument(
        "--make-baseline", default=None, metavar="FILE",
        help="derive and write a baseline budget document from this run",
    )
    report.add_argument(
        "--headroom", type=float, default=3.0,
        help="budget headroom factor for --make-baseline (default 3.0)",
    )
    report.set_defaults(handler=_cmd_obs_report)

    diff = sub.add_parser(
        "diff",
        help="statistical run-to-run diff (exit 1 on regressions)",
    )
    _db_argument(diff)
    _json_argument(diff)
    diff.add_argument("base", help="baseline run id/prefix")
    diff.add_argument(
        "other", nargs="?", default=None,
        help="run to measure (default: latest)",
    )
    diff.add_argument(
        "--noise-ratio", type=float, default=None,
        help="relative noise gate on phase deltas (default 0.25)",
    )
    diff.add_argument(
        "--noise-floor", type=float, default=None,
        help="absolute noise gate in seconds (default 0.05)",
    )
    diff.set_defaults(handler=_cmd_obs_diff)

    top = sub.add_parser(
        "top", help="top-N loop attribution for one run"
    )
    _db_argument(top)
    _json_argument(top)
    top.add_argument("run", nargs="?", default=None)
    top.add_argument(
        "--by", default="wall",
        choices=("wall", "displaced", "attempts", "slack"),
        help="attribution key (default: wall clock)",
    )
    top.add_argument("-n", type=int, default=10, help="how many loops")
    top.set_defaults(handler=_cmd_obs_top)

    flame = sub.add_parser(
        "flame",
        help="export a collapsed-stack flamegraph of one run",
    )
    _db_argument(flame)
    flame.add_argument("run", nargs="?", default=None)
    flame.add_argument(
        "--source", default="spans", choices=("spans", "profile"),
        help="fold span self time (default) or sampling-profiler stacks",
    )
    flame.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the folded file here (default: stdout)",
    )
    flame.set_defaults(handler=_cmd_obs_flame)
