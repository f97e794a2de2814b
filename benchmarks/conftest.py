"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures over the
paper-sized corpus (1327 loops) on the reconstructed Cydra 5, prints it,
and writes it to ``benchmarks/results/`` for EXPERIMENTS.md.

The shared ``evaluations`` fixture runs through the corpus-evaluation
engine, so all ``bench_*`` scripts share one warm content-addressed cache
(``benchmarks/.cache``) and only the first run after a change to the
loops, the machine, or the scheduler actually re-schedules anything.
Knobs (environment variables):

* ``REPRO_BENCH_LOOPS``  — shrink the corpus for quick runs;
* ``REPRO_BENCH_JOBS``   — engine worker processes (default: one per CPU);
* ``REPRO_BENCH_CACHE``  — cache directory (default ``benchmarks/.cache``);
* ``REPRO_BENCH_NO_CACHE`` — set to disable caching entirely.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.engine import EvaluationEngine
from repro.machine import cydra5
from repro.workloads import build_corpus
from repro.workloads.corpus import PAPER_CORPUS_SIZE
from repro.workloads.kernels import KERNELS

RESULTS_DIR = Path(__file__).parent / "results"
CACHE_DIR = Path(
    os.environ.get("REPRO_BENCH_CACHE", str(Path(__file__).parent / ".cache"))
)

#: BudgetRatio used for the quality experiments (the paper's Table 3 used
#: 6, "well above the largest value actually needed by any loop").
QUALITY_BUDGET_RATIO = 6.0


def _corpus_size() -> int:
    value = os.environ.get("REPRO_BENCH_LOOPS", "")
    if value:
        return max(len(KERNELS) + 1, int(value))
    return PAPER_CORPUS_SIZE


def _engine_jobs() -> int:
    value = os.environ.get("REPRO_BENCH_JOBS", "")
    if value:
        return max(1, int(value))
    return os.cpu_count() or 1


@pytest.fixture(scope="session")
def machine():
    return cydra5()


@pytest.fixture(scope="session")
def corpus(machine):
    n_synthetic = _corpus_size() - len(KERNELS)
    return build_corpus(machine, n_synthetic=n_synthetic, seed=0)


@pytest.fixture(scope="session")
def engine(machine):
    """The shared corpus-evaluation engine (parallel, cached, traced)."""
    from repro.obs import ObsContext

    return EvaluationEngine(
        machine,
        budget_ratio=QUALITY_BUDGET_RATIO,
        jobs=_engine_jobs(),
        cache_dir=(
            None if "REPRO_BENCH_NO_CACHE" in os.environ else CACHE_DIR
        ),
        obs=ObsContext(),
    )


@pytest.fixture(scope="session")
def evaluations(engine, corpus):
    """Full-corpus evaluation at the quality BudgetRatio, exact MII.

    The run's observability export (spans + metrics: per-loop phase
    times, cache hit/miss counters, run-level complexity-counter totals;
    docs/OBSERVABILITY.md) lands in ``benchmarks/results/engine_obs.jsonl``
    for the regression harness.
    """
    from repro.obs.exporters import write_jsonl

    result = engine.evaluate(corpus)
    RESULTS_DIR.mkdir(exist_ok=True)
    write_jsonl(
        engine.obs.to_dict(),
        RESULTS_DIR / "engine_obs.jsonl",
        run={"harness": "benchmarks", "loops": len(corpus),
             "jobs": _engine_jobs()},
    )
    print(f"\n[engine] {result.describe()}")
    if result.failures:
        details = "\n  ".join(f.describe() for f in result.failures)
        raise RuntimeError(
            f"{len(result.failures)} corpus loops failed to evaluate:\n"
            f"  {details}"
        )
    return result.evaluations


@pytest.fixture(scope="session")
def emit():
    """Write a named result artifact and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _emit
