"""Scheduler hot-path microbenchmarks: the scheduling pipeline and the
per-(machine, II) mask-compile cache.

Two measurements, each appended as one record to ``BENCH_SCHED.json``
at the repository root — a trajectory of scheduler-kernel performance
that accumulates across runs (and that the CI perf-smoke job reads back):

* ``mask_compile_cache`` — cold compile of every opcode alternative over
  a range of IIs versus warm lookups through the content-addressed
  per-(machine, II) cache.
* ``slot_probe_batch`` — the scheduling pipeline (``modulo_schedule``
  with FindTimeSlot's bitmask window sweep), timed under the protocol
  of the first recorded ``corpus_end_to_end`` entry and held to >= 1.5x
  that record's per-loop time.

The dict-of-cells tables and the scalar FindTimeSlot scan these benches
once raced are test oracles now (``tests/oracles/mrt.py``); their older
records stay in ``BENCH_SCHED.json`` as history.  See
docs/PERFORMANCE.md for the mask encoding and the file format.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from time import perf_counter

from conftest import QUALITY_BUDGET_RATIO

from repro.core import Counters
from repro.core.mii import compute_mii
from repro.core.scheduler import modulo_schedule

BENCH_SCHED = Path(__file__).resolve().parent.parent / "BENCH_SCHED.json"

#: Corpus slice the pipeline is timed over (the recorded
#: ``corpus_end_to_end`` protocol; REPRO_BENCH_LOOPS already shrinks the
#: corpus itself).
E2E_LOOPS = 150


def _record(bench: str, payload: dict) -> None:
    """Append one result record to the BENCH_SCHED.json trajectory."""
    data = {"version": 1, "runs": []}
    if BENCH_SCHED.exists():
        data = json.loads(BENCH_SCHED.read_text())
    data["runs"].append(
        {"bench": bench, "unix_time": round(time.time(), 3), **payload}
    )
    BENCH_SCHED.write_text(json.dumps(data, indent=2) + "\n")


def _pr3_per_loop_seconds() -> float:
    """Per-loop scheduling time of the first recorded ``corpus_end_to_end``
    run (the PR-3 record) — the trajectory baseline the scheduling
    pipeline is held against."""
    data = json.loads(BENCH_SCHED.read_text())
    for run in data["runs"]:
        if run["bench"] == "corpus_end_to_end":
            return run["mask_seconds"] / run["loops"]
    raise AssertionError(
        "BENCH_SCHED.json has no corpus_end_to_end record to compare against"
    )


def test_slot_probe_batch(machine, corpus, emit):
    """The scheduling pipeline must beat the recorded PR-3
    ``corpus_end_to_end`` entry >= 1.5x per loop.

    The run replicates the PR-3 record's protocol exactly — time
    ``modulo_schedule`` only, MII precomputed once and shared, the same
    budget ratio — so the per-loop comparison against the stored record
    isolates what changed since: FindTimeSlot's bitmask window sweep
    plus the shared SCC/preparation caches.
    """
    loops = corpus[:E2E_LOOPS]
    mii_results = [compute_mii(loop.graph, machine) for loop in loops]

    def run():
        counters = Counters()
        start = perf_counter()
        for loop, mii_result in zip(loops, mii_results):
            modulo_schedule(
                loop.graph,
                machine,
                budget_ratio=QUALITY_BUDGET_RATIO,
                counters=counters,
                mii_result=mii_result,
            )
        return perf_counter() - start, counters

    # Best of three trials: the floor compares against a *stored*
    # record, so per-run scheduler noise must not decide it.
    pipe_seconds, pipe_counters = min(
        (run() for _ in range(3)), key=lambda r: r[0]
    )

    pr3_per_loop = _pr3_per_loop_seconds()
    per_loop = pipe_seconds / len(loops)
    corpus_speedup = pr3_per_loop / per_loop
    result = {
        "loops": len(loops),
        "budget_ratio": QUALITY_BUDGET_RATIO,
        "pipeline_seconds": round(pipe_seconds, 4),
        "per_loop_ms": round(per_loop * 1e3, 4),
        "pr3_per_loop_ms": round(pr3_per_loop * 1e3, 4),
        "corpus_speedup": round(corpus_speedup, 3),
        "findtimeslot_iters": pipe_counters.findtimeslot_iters,
    }
    _record("slot_probe_batch", result)
    emit(
        "hotpath_slot_probe_batch",
        f"Scheduling pipeline over {len(loops)} loops "
        f"(BudgetRatio {QUALITY_BUDGET_RATIO}, shared MII, best of 3):\n"
        f"  {per_loop * 1e3:.3f}ms/loop   "
        f"PR-3 record {pr3_per_loop * 1e3:.3f}ms/loop   "
        f"speedup vs record {corpus_speedup:.2f}x",
    )
    assert corpus_speedup >= 1.5, (
        f"pipeline only {corpus_speedup:.2f}x the recorded PR-3 entry "
        f"({per_loop * 1e3:.3f}ms vs {pr3_per_loop * 1e3:.3f}ms per loop)"
    )


def test_mask_compile_cache(machine, emit):
    """Warm per-(machine, II) lookups must beat cold compiles outright."""
    from repro.machine.machine import _MASK_SET_CACHE
    from repro.machine.serialize import machine_from_dict, machine_to_dict

    iis = list(range(1, 33))
    cold_machine = machine_from_dict(machine_to_dict(machine))
    _MASK_SET_CACHE.clear()
    start = perf_counter()
    for ii in iis:
        cold_machine.compiled_masks(ii)
    cold_seconds = perf_counter() - start

    # A second equal machine: every lookup is a content-addressed hit.
    warm_machine = machine_from_dict(machine_to_dict(machine))
    start = perf_counter()
    for ii in iis:
        warm_machine.compiled_masks(ii)
    warm_seconds = perf_counter() - start
    assert warm_machine.compiled_masks(iis[0]) is cold_machine.compiled_masks(
        iis[0]
    )

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    result = {
        "iis": len(iis),
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(speedup, 1),
    }
    _record("mask_compile_cache", result)
    emit(
        "hotpath_mask_compile_cache",
        f"Mask compilation over {len(iis)} IIs: cold {cold_seconds * 1e3:.1f}ms, "
        f"warm {warm_seconds * 1e3:.2f}ms ({speedup:.0f}x)",
    )
    assert warm_seconds < cold_seconds
