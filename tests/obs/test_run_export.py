"""The ``repro.obs.v2`` export alone describes a corpus run, loop by loop.

Rau reports IMS loop by loop (Tables 3 and 4), so the run store must be
able to rebuild one row per corpus loop from the export with no other
artifact: not only for loops a worker evaluated, but for cache hits
and loops lost with a crashed worker too.  The export
is also the run's only serialized record, so each tally the engine
reports on its result is a metric of the export.
"""

from __future__ import annotations

import pytest

from repro.analysis.engine import EvaluationEngine
from repro.analysis.faultinject import parse_fault_spec
from repro.analysis.regression import load_obs_records
from repro.analysis.resilience import RetryPolicy
from repro.machine import cydra5
from repro.obs import ObsContext, write_jsonl
from repro.obs.store import RunStore
from repro.workloads import build_corpus
from tests.conftest import export_counters

WAYS = ("cold", "warm", "crash", "crash-retried", "truncated")

#: The result's run tallies and the export metric carrying each one; a
#: metric the run never ticked reads as 0.
TALLIES = {
    "hits": "engine.cache.hits",
    "misses": "engine.cache.misses",
    "failures": "engine.failures",
    "retries": "resilience.retries",
    "timeouts": "resilience.timeouts",
    "crashes": "resilience.crashes",
    "reaped": "resilience.reaped",
    "degraded": "resilience.degraded",
    "cache_corrupt": "cache.corrupt",
    "quarantined": "resilience.quarantined",
}


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    return build_corpus(machine, n_synthetic=20, seed=5, include_kernels=False)


@pytest.fixture(scope="module")
def runs(machine, corpus, tmp_path_factory):
    """The corpus evaluated five ways, each traced by its own context.

    Cold fills the cache, warm is served by it, and at jobs=2 an
    injected crash with no
    retries loses every loop in flight with the dead worker; with
    retries the same crash loses none.  Last, one truncated cache entry
    is detected, re-evaluated and rewritten.
    """
    cache = tmp_path_factory.mktemp("cache")

    def run(**settings):
        obs = ObsContext()
        engine = EvaluationEngine(machine, obs=obs, **settings)
        return obs, engine.evaluate(corpus)

    ways = {
        "cold": run(cache_dir=cache),
        "warm": run(cache_dir=cache),
        "crash": run(
            jobs=2,
            fault_plan=parse_fault_spec("crash@3"),
            retry_policy=RetryPolicy(max_retries=0),
        ),
        "crash-retried": run(
            jobs=2,
            fault_plan=parse_fault_spec("crash@3"),
            retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
        ),
    }
    entry = sorted(cache.glob("??/*.json"))[0]
    entry.write_bytes(entry.read_bytes()[:40])
    ways["truncated"] = run(cache_dir=cache)
    n = len(corpus)
    assert ways["cold"][1].misses == n
    assert ways["warm"][1].hits == n
    crashed = ways["crash"][1]
    assert crashed.crashes and 3 in {f.index for f in crashed.failures}
    retried = ways["crash-retried"][1]
    assert retried.crashes and retried.retries and retried.ok
    truncated = ways["truncated"][1]
    assert truncated.cache_corrupt == 1 and truncated.misses == 1
    return ways


@pytest.mark.parametrize("way", WAYS)
def test_export_alone_gives_one_row_per_loop(runs, corpus, way, tmp_path):
    obs, result = runs[way]
    export = write_jsonl(obs.to_dict(), tmp_path / "run.jsonl", run={})
    with RunStore(":memory:") as store:
        run_id = store.ingest_path(export).run_id
        rows = [
            (row["idx"], row["name"], bool(row["cache_hit"]),
             bool(row["ok"]), row["failure_kind"], row["failure_phase"])
            for row in store.loop_rows(run_id)
        ]
        run = store.run_row(run_id)
        counters = store.counters(run_id)
    failures = {failure.index: failure for failure in result.failures}
    expected = []
    for timing in result.timings:
        failure = failures.get(timing.index)
        expected.append(
            (timing.index, timing.loop_name, timing.cache_hit,
             failure is None, failure.kind if failure else None,
             failure.phase if failure else None)
        )
    assert rows == expected
    assert run["n_loops"] == len(corpus)
    assert run["n_failures"] == len(result.failures)
    assert counters["engine.cache.hits"] == result.hits
    assert counters["engine.cache.misses"] == result.misses


@pytest.mark.parametrize("way", WAYS)
def test_export_carries_every_run_tally(runs, way, tmp_path):
    obs, result = runs[way]
    export = write_jsonl(obs.to_dict(), tmp_path / "run.jsonl", run={})
    counters = export_counters(load_obs_records(export))
    tallies = {name: getattr(result, name) for name in TALLIES}
    tallies["failures"] = len(result.failures)
    exported = {
        name: counters.get(metric, 0) for name, metric in TALLIES.items()
    }
    assert exported == tallies
