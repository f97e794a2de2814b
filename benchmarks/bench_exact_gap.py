"""Optimality-gap study: heuristic IMS against the proving exact backend.

For a corpus slice, every loop is scheduled twice — by iterative modulo
scheduling (the paper's heuristic) and by the exact SAT backend, which
searches II-by-II upward from the MII so that its first satisfiable II
is proven minimal (every lower II carries an UNSAT/infeasible
certificate).  The record appended to ``BENCH_EXACT.json`` at the
repository root answers the question Rau's Table 3 could only bound:
on what fraction of loops does the heuristic actually achieve the
minimal II (not merely the MII)?

Knobs (environment variables):

* ``REPRO_BENCH_EXACT_LOOPS``   — slice size (default 100);
* ``REPRO_BENCH_EXACT_VARS``    — solver time-variable budget;
* ``REPRO_BENCH_EXACT_CLAUSES`` — solver clause budget.

Loops whose proof blows the solver budget are reported honestly as
``unproven`` — never silently dropped and never counted as proven.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from time import perf_counter

from conftest import QUALITY_BUDGET_RATIO

from repro.backends import get_backend
from repro.check import check_schedule
from repro.core.mii import compute_mii
from repro.core.scheduler import modulo_schedule

BENCH_EXACT = Path(__file__).resolve().parent.parent / "BENCH_EXACT.json"

_SLICE = int(os.environ.get("REPRO_BENCH_EXACT_LOOPS", "100"))
_MAX_VARS = int(os.environ.get("REPRO_BENCH_EXACT_VARS", "25000"))
_MAX_CLAUSES = int(os.environ.get("REPRO_BENCH_EXACT_CLAUSES", "60000"))


def _record(bench: str, payload: dict) -> None:
    """Append one result record to the BENCH_EXACT.json trajectory."""
    data = {"version": 1, "runs": []}
    if BENCH_EXACT.exists():
        data = json.loads(BENCH_EXACT.read_text())
    data["runs"].append(
        {"bench": bench, "unix_time": round(time.time(), 3), **payload}
    )
    BENCH_EXACT.write_text(json.dumps(data, indent=2) + "\n")


def test_optimality_gap(machine, corpus, emit):
    loops = corpus[:_SLICE]
    backend = get_backend(
        "exact", max_time_vars=_MAX_VARS, max_clauses=_MAX_CLAUSES
    )

    proven = 0
    achieved = 0
    unproven = []
    gap_rows = []
    gap_census: dict = {}
    start = perf_counter()
    for loop in loops:
        mii_result = compute_mii(loop.graph, machine)
        ims = modulo_schedule(
            loop.graph,
            machine,
            budget_ratio=QUALITY_BUDGET_RATIO,
            mii_result=mii_result,
        )
        loop_start = perf_counter()
        exact = backend.schedule(
            loop.graph, machine, mii_result=mii_result
        )
        seconds = perf_counter() - loop_start

        assert exact.ii <= ims.ii, loop.name
        diags = check_schedule(loop.graph, machine, exact.schedule)
        assert diags.ok, f"{loop.name}: {diags.render()}"

        if exact.optimal is True:
            proven += 1
            gap = ims.ii - exact.ii
            gap_census[gap] = gap_census.get(gap, 0) + 1
            if gap == 0:
                achieved += 1
            else:
                gap_rows.append(
                    {
                        "loop": loop.name,
                        "mii": mii_result.mii,
                        "ims_ii": ims.ii,
                        "exact_ii": exact.ii,
                        "gap": gap,
                        "seconds": round(seconds, 3),
                    }
                )
        else:
            unproven.append(
                {
                    "loop": loop.name,
                    "mii": mii_result.mii,
                    "ims_ii": ims.ii,
                    "exact_ii": exact.ii,
                    "seconds": round(seconds, 3),
                }
            )
    total_seconds = perf_counter() - start

    result = {
        "loops": len(loops),
        "budget_ratio": QUALITY_BUDGET_RATIO,
        "max_time_vars": _MAX_VARS,
        "max_clauses": _MAX_CLAUSES,
        "proven": proven,
        "ims_achieves_optimal": achieved,
        "ims_achieves_optimal_pct": round(100.0 * achieved / proven, 2)
        if proven
        else None,
        "gap_census": {str(k): v for k, v in sorted(gap_census.items())},
        "gaps": gap_rows,
        "unproven": unproven,
        "seconds": round(total_seconds, 2),
    }
    _record("optimality_gap", result)

    lines = [
        f"Optimality gap over {len(loops)} loops "
        f"({total_seconds:.1f}s, budgets {_MAX_VARS} vars / "
        f"{_MAX_CLAUSES} clauses):",
        f"  II proven minimal : {proven}/{len(loops)} "
        f"({len(unproven)} unproven)",
    ]
    if proven:
        lines.append(
            f"  IMS achieves II*  : {achieved}/{proven} "
            f"({100.0 * achieved / proven:.1f}% of proven loops)"
        )
    for row in gap_rows:
        lines.append(
            f"  gap +{row['gap']}: {row['loop']} "
            f"(MII {row['mii']}, IMS {row['ims_ii']}, "
            f"II* {row['exact_ii']}, {row['seconds']}s)"
        )
    for row in unproven:
        lines.append(
            f"  unproven: {row['loop']} (MII {row['mii']}, "
            f"IMS {row['ims_ii']}, exact {row['exact_ii']}, "
            f"{row['seconds']}s)"
        )
    emit("exact_optimality_gap", "\n".join(lines))

    # The study is only meaningful if the solver proved the bulk of the
    # slice; MII-matched loops alone already guarantee a large floor.
    assert proven >= len(loops) * 0.8
    assert proven + len(unproven) == len(loops)
