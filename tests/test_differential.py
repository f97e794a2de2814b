"""End-to-end differential harness: IMS vs the acyclic list scheduler.

For every corpus loop the iterative modulo scheduler must be at least as
good as conventional acyclic list scheduling (the list schedule *is* a
legal modulo schedule with II = SL, so IMS can never do worse), and for
every front-end kernel both schedules must compute exactly what the
sequential oracle computes — the cycle-level simulator runs the modulo
schedule and the list schedule from the same initial state and both must
match the reference, which makes them identical to each other.
"""

from __future__ import annotations

import pytest

from repro.analysis.engine import EvaluationEngine
from repro.baselines.list_scheduler import list_schedule
from repro.core.mii import compute_mii
from repro.core.mindist import (
    compute_mindist,
    mindist_feasible,
    schedule_length_lower_bound,
)
from repro.core.scheduler import modulo_schedule
from repro.ir import GraphError
from repro.machine import cydra5
from repro.simulator import check_equivalence
from repro.simulator.state import make_initial_state
from repro.workloads import build_corpus
from tests.oracles.mrt import use_dict_tables

#: Iterations to simulate — comfortably more than any kernel's stage count.
SIM_ITERATIONS = 24


@pytest.fixture(scope="module")
def machine():
    return cydra5()


@pytest.fixture(scope="module")
def corpus(machine):
    """Every DSL kernel plus a synthetic tail (one corpus, all tests)."""
    return build_corpus(machine, n_synthetic=15, seed=9)


@pytest.fixture(scope="module")
def evaluations(machine, corpus):
    evaluations = EvaluationEngine(machine).evaluate(corpus).evaluations
    assert len(evaluations) == len(corpus)
    return evaluations


class TestScheduleQuality:
    def test_ims_ii_never_worse_than_list_schedule(self, evaluations):
        """II <= acyclic SL for every loop (the list schedule is a legal
        modulo schedule at II = max(1, SL), so IMS can always match it)."""
        for evaluation in evaluations:
            assert evaluation.ii <= max(1, evaluation.list_sl), (
                f"{evaluation.loop.name}: IMS II {evaluation.ii} worse than "
                f"list-schedule length {evaluation.list_sl}"
            )

    def test_ims_ii_at_least_mii(self, evaluations):
        for evaluation in evaluations:
            assert evaluation.ii >= evaluation.mii

    def test_list_schedule_really_is_the_bound(self, machine, corpus, evaluations):
        """The list_sl the runner records matches a fresh list schedule."""
        for loop, evaluation in zip(corpus[:10], evaluations[:10]):
            fresh = list_schedule(loop.graph, machine)
            assert fresh.schedule_length == evaluation.list_sl


class TestSimulatedEquivalence:
    def test_both_schedules_match_the_sequential_oracle(
        self, machine, corpus, evaluations
    ):
        """Modulo schedule and list schedule produce identical loop results.

        Both pipelined executions start from the same initial state and are
        diffed against the same sequential reference; two executions that
        each match the reference match each other.
        """
        verified = 0
        for loop, evaluation in zip(corpus, evaluations):
            if loop.lowered is None:
                continue  # synthetic graphs have no executable semantics
            state = make_initial_state(loop.lowered, SIM_ITERATIONS, seed=1)
            modulo_report = check_equivalence(
                loop.lowered,
                evaluation.result.schedule,
                n=SIM_ITERATIONS,
                state=state,
            )
            assert modulo_report.ok, (
                f"{loop.name} (modulo): {modulo_report.describe()}"
            )
            list_report = check_equivalence(
                loop.lowered,
                list_schedule(loop.graph, machine),
                n=SIM_ITERATIONS,
                state=state,
            )
            assert list_report.ok, (
                f"{loop.name} (list): {list_report.describe()}"
            )
            verified += 1
        assert verified >= 50  # all front-end kernels were exercised

    def test_engine_verify_mode_agrees(self, machine, corpus):
        """The engine's built-in verification pass finds no mismatches."""
        kernels = [loop for loop in corpus if loop.lowered is not None][:12]
        engine = EvaluationEngine(
            machine, verify_iterations=SIM_ITERATIONS
        )
        result = engine.evaluate(kernels)
        assert result.ok, [f.describe() for f in result.failures]
        simulated = [t.seconds.get("simulation", 0.0) for t in result.timings]
        assert sum(simulated) > 0.0


def _alternative_names(schedule):
    return {
        op: (alt.name if alt is not None else None)
        for op, alt in schedule.alternatives.items()
    }


class TestMrtImplementationParity:
    """The bitmask tables and the dict oracles must schedule identically.

    Over the *full* corpus, scheduling on the bitmask tables and on the
    dict-of-cells oracles (``tests/oracles/mrt.py``, patched in under the
    unchanged schedulers) reaches the same II, the same schedule length,
    the same per-operation times and the same opcode alternatives — the
    bitmask tables are a pure representation change.
    """

    def test_modulo_scheduler_agrees_over_the_full_corpus(
        self, machine, corpus, monkeypatch
    ):
        mii_results = [compute_mii(loop.graph, machine) for loop in corpus]
        masks = [
            modulo_schedule(loop.graph, machine, mii_result=mii_result)
            for loop, mii_result in zip(corpus, mii_results)
        ]
        use_dict_tables(monkeypatch)
        for loop, mii_result, mask in zip(corpus, mii_results, masks):
            oracle = modulo_schedule(
                loop.graph, machine, mii_result=mii_result
            )
            context = loop.name
            assert mask.ii == oracle.ii, context
            assert (
                mask.schedule.schedule_length
                == oracle.schedule.schedule_length
            ), context
            assert mask.schedule.times == oracle.schedule.times, context
            assert _alternative_names(mask.schedule) == _alternative_names(
                oracle.schedule
            ), context

    def test_list_scheduler_agrees(self, machine, corpus, monkeypatch):
        loops = corpus[:20]
        masks = [list_schedule(loop.graph, machine) for loop in loops]
        use_dict_tables(monkeypatch)
        for loop, mask in zip(loops, masks):
            oracle = list_schedule(loop.graph, machine)
            assert mask.times == oracle.times, loop.name
            assert _alternative_names(mask) == _alternative_names(oracle), (
                loop.name
            )


class TestScheduleLengthBound:
    """The SL bound is HeightR(START); the Floyd-Warshall matrix is the
    oracle it must match, MinDist[START, STOP], on every corpus loop."""

    def test_bound_is_mindist_start_to_stop(self, evaluations):
        for evaluation in evaluations:
            graph = evaluation.loop.graph
            for ii, recorded in (
                (evaluation.mii, evaluation.mindist_sl_at_mii),
                (evaluation.ii, evaluation.mindist_sl_at_ii),
            ):
                dist, index = compute_mindist(graph, ii)
                oracle = dist[index[graph.START], index[graph.stop]]
                bound = schedule_length_lower_bound(graph, ii)
                assert bound == int(oracle), (evaluation.loop.name, ii)
                assert recorded == bound, (evaluation.loop.name, ii)

    def test_bound_raises_below_recmii(self, evaluations):
        recurrent = [e for e in evaluations if e.mii_result.rec_mii > 1]
        assert recurrent
        for evaluation in recurrent:
            graph = evaluation.loop.graph
            below = evaluation.mii_result.rec_mii - 1
            dist, _ = compute_mindist(graph, below)
            assert not mindist_feasible(dist), evaluation.loop.name
            with pytest.raises(GraphError):
                schedule_length_lower_bound(graph, below)


class TestSlotImplementationParity:
    """FindTimeSlot's window sweep and Figure 4's scalar time-major scan
    (the dict oracle's ``first_free_slot``) must place every operation
    identically — same slots, same alternatives, and the *same counter
    snapshot in full*, ``findtimeslot_iters`` included, along with the
    same list schedule and its counters."""

    def test_modulo_scheduler_agrees_over_the_full_corpus(
        self, machine, corpus, monkeypatch
    ):
        from repro.core import Counters

        def observe():
            observed = []
            for loop in corpus:
                counters, list_counters = Counters(), Counters()
                result = modulo_schedule(
                    loop.graph, machine, counters=counters
                )
                listed = list_schedule(loop.graph, machine, list_counters)
                observed.append(
                    (
                        result.ii,
                        result.schedule.times,
                        _alternative_names(result.schedule),
                        counters.snapshot(),
                        listed.times,
                        _alternative_names(listed),
                        list_counters.snapshot(),
                    )
                )
            return observed

        batch = observe()
        use_dict_tables(monkeypatch)
        scalar = observe()
        for loop, left, right in zip(corpus, batch, scalar):
            assert left == right, loop.name


@pytest.fixture(scope="module")
def exact_results(machine, corpus):
    """Every corpus loop through the exact backend, with solver budgets
    small enough that hard instances report honestly-unproven fast
    instead of spending a minute on an exhaustive UNSAT proof."""
    from repro.backends import get_backend

    backend = get_backend(
        "exact", max_time_vars=6000, max_clauses=25000, max_conflicts=20000
    )
    return [
        backend.schedule(loop.graph, machine)
        for loop in corpus
    ]


class TestExactDifferential:
    """IMS vs the proving SAT backend over the whole corpus slice."""

    def test_exact_ii_never_worse_than_ims(self, evaluations, exact_results):
        for evaluation, exact in zip(evaluations, exact_results):
            assert exact.ii <= evaluation.ii, (
                f"{evaluation.loop.name}: exact II {exact.ii} worse than "
                f"IMS II {evaluation.ii}"
            )
            assert exact.ii >= evaluation.mii

    def test_exact_schedules_validate(self, machine, corpus, exact_results):
        from repro.check import check_schedule

        for loop, exact in zip(corpus, exact_results):
            diags = check_schedule(loop.graph, machine, exact.schedule)
            assert diags.ok, f"{loop.name}: {diags.render()}"

    def test_optimality_gap_report(self, evaluations, exact_results):
        """The Rau-style question: how often does the heuristic reach the
        proven-minimal II?  Every MII-matched loop is trivially proven,
        so the proven share must cover at least those loops; any recorded
        gap must be a positive integer backed by certificates."""
        proven = 0
        gaps = []
        for evaluation, exact in zip(evaluations, exact_results):
            if exact.optimal is not True:
                continue
            proven += 1
            gap = exact.optimality_gap
            assert gap is not None and gap >= 0
            if gap:
                gaps.append((evaluation.loop.name, gap))
                assert exact.certificates[exact.ii]["status"] == "sat"
        mii_matched = sum(1 for e in evaluations if e.delta_ii == 0)
        assert proven >= mii_matched
        # The report itself: IMS achieves II* on every proven loop that
        # records no gap.
        assert all(gap > 0 for _, gap in gaps)

    def test_ims_is_optimal_on_easy_kernels(self, evaluations, exact_results):
        """On MII-matched front-end kernels (the easy fixtures) the exact
        backend must confirm the heuristic: same II, proven minimal."""
        confirmed = 0
        for evaluation, exact in zip(evaluations, exact_results):
            if evaluation.loop.lowered is None or evaluation.delta_ii != 0:
                continue
            assert exact.ii == evaluation.ii, evaluation.loop.name
            assert exact.optimal is True, evaluation.loop.name
            confirmed += 1
        assert confirmed >= 50  # nearly all kernels are MII-matched

    def test_exact_results_stable_across_cache_hits(
        self, machine, corpus, tmp_path
    ):
        """Cache hits must reproduce the exact backend's results
        bit-for-bit: same II, same proof status, same certificates."""
        kernels = [
            loop for loop in corpus
            if loop.lowered is not None and loop.name != "distance"
        ][:12]
        cache = tmp_path / "exact-cache"

        def run():
            engine = EvaluationEngine(
                machine, backend="exact", cache_dir=cache
            )
            result = engine.evaluate(kernels)
            assert result.ok, [f.describe() for f in result.failures]
            return result

        first = run()
        second = run()
        assert second.hits == len(kernels)
        for before, after in zip(first.evaluations, second.evaluations):
            assert after.backend == "exact"
            assert after.ii == before.ii
            assert after.optimal == before.optimal
            assert after.result.certificates == before.result.certificates
            assert (
                after.result.attempt_records == before.result.attempt_records
            )
