"""Engine strict mode (``check=True``): validate-before-cache semantics."""

import json

from repro.analysis.engine import EvaluationEngine, StaticCheckError
from repro.check import Diagnostics
from repro.machine import single_alu_machine
from repro.workloads import build_corpus


def _small_corpus(machine, n=4):
    corpus = build_corpus(machine, n_synthetic=n, seed=7)
    return corpus[: n + 2]


class TestStaticCheckError:
    def test_carries_diagnostics_document(self):
        diags = Diagnostics()
        diags.add("SCHED005", "edge broken", unit="loop 'x'")
        error = StaticCheckError(diags)
        assert "SCHED005" in str(error)
        document = error.detail()
        assert document["format"] == "repro.check.v1"
        assert document["counts"]["error"] == 1


class TestStrictRun:
    def test_clean_corpus_passes_with_check(self, tmp_path):
        machine = single_alu_machine()
        corpus = _small_corpus(machine)
        engine = EvaluationEngine(
            machine, cache_dir=tmp_path / "cache", check=True
        )
        result = engine.evaluate(corpus)
        assert result.ok, [f.describe() for f in result.failures]
        assert len(result.evaluations) == len(corpus)

    def test_check_phase_metrics_tick(self, tmp_path):
        from repro.obs import ObsContext

        machine = single_alu_machine()
        corpus = _small_corpus(machine)
        obs = ObsContext()
        engine = EvaluationEngine(machine, check=True, obs=obs)
        result = engine.evaluate(corpus)
        assert result.ok
        counters = obs.to_dict()["metrics"]["counters"]
        assert counters["check.schedules"] == len(corpus)
        assert counters.get("check.rejected", 0) == 0

    def test_no_check_metrics_on_clean_run(self):
        """Metric identity: check.* counters exist only in strict mode."""
        from repro.obs import ObsContext

        machine = single_alu_machine()
        corpus = _small_corpus(machine, n=2)
        obs = ObsContext()
        engine = EvaluationEngine(machine, obs=obs)
        engine.evaluate(corpus)
        counters = obs.to_dict()["metrics"]["counters"]
        assert not any(name.startswith("check.") for name in counters)

    def test_cache_shared_between_modes(self, tmp_path):
        """The cache key excludes the flag: strict runs reuse warm entries."""
        machine = single_alu_machine()
        corpus = _small_corpus(machine)
        cache = tmp_path / "cache"
        warm = EvaluationEngine(machine, cache_dir=cache)
        warm.evaluate(corpus)
        strict = EvaluationEngine(machine, cache_dir=cache, check=True)
        result = strict.evaluate(corpus)
        assert result.ok
        assert result.hits == len(corpus)
        assert result.misses == 0

    def test_tampered_cache_entry_detected_and_reevaluated(self, tmp_path):
        """Strict mode re-validates cache hits; a poisoned entry is rebuilt."""
        machine = single_alu_machine()
        corpus = _small_corpus(machine)
        cache = tmp_path / "cache"
        warm = EvaluationEngine(machine, cache_dir=cache)
        warm.evaluate(corpus)

        # Poison one entry: push a real operation to a negative cycle.  The
        # document still parses and carries the right format, so only the
        # strict re-validation can notice.
        poisoned = None
        for path in sorted(cache.glob("*/*.json")):
            data = json.loads(path.read_text())
            times = data.get("schedule", {}).get("times")
            if not times:
                continue
            victim = next(op for op in times if op not in ("0",))
            times[victim] = -50
            path.write_text(json.dumps(data))
            poisoned = path
            break
        assert poisoned is not None, "no cache entry found to poison"

        # A lenient run trusts the poisoned entry verbatim...
        lenient = EvaluationEngine(machine, cache_dir=cache)
        assert lenient.evaluate(corpus).cache_corrupt == 0

        # ...a strict run rejects it, deletes it, and re-evaluates.
        strict = EvaluationEngine(machine, cache_dir=cache, check=True)
        result = strict.evaluate(corpus)
        assert result.ok, [f.describe() for f in result.failures]
        assert result.cache_corrupt == 1
        assert len(result.evaluations) == len(corpus)

    def test_degraded_schedules_are_checked_and_pass(self):
        """The list-scheduler rung must satisfy the validator too."""
        machine = single_alu_machine()
        corpus = _small_corpus(machine)
        engine = EvaluationEngine(
            machine,
            check=True,
            budget_ratio=1.0,
            loop_timeout=0.000001,  # force the ladder on every loop
        )
        result = engine.evaluate(corpus)
        assert result.ok, [f.describe() for f in result.failures]
