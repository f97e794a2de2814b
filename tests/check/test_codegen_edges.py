"""Satellite: codegen edge cases the validator and simulator must agree on.

Three corners that historically break modulo-scheduling codegen:

* **zero-trip loops** — the pipelined form must drain to exactly the
  sequential state when the loop body never runs (and when it runs fewer
  times than the kernel has stages);
* **lifetimes longer than the II** — modulo variable expansion must
  unroll far enough that no copy overwrites a value still live;
* **omega > 1 recurrences** — cross-iteration uses reaching back more
  than one iteration (``y[i-2]``) exercise the ``t(q) >= t(p) + delay -
  dist*II`` inequality with ``dist > 1`` and the renaming distance math.
"""

import math

import pytest

from repro.check import check_schedule
from repro.check.codegen import check_codegen
from repro.codegen import compute_lifetimes, modulo_variable_expansion
from repro.core import modulo_schedule
from repro.loopir import compile_loop_full
from repro.machine import cydra5, single_alu_machine
from repro.simulator import check_equivalence
from tests.check.mutate import _clone

DOT = "for i in n:\n    s = s + x[i] * y[i]\n"
IIR2 = "for i in n:\n    y[i] = a0 * x[i] + b1 * y[i-1] + b2 * y[i-2]\n"


def _scheduled(source, machine):
    lowered = compile_loop_full(source, machine)
    result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
    return lowered, result


class TestZeroTrip:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_trip_counts_match_sequential(self, n):
        """Trip counts at or below the stage count drain correctly."""
        lowered, result = _scheduled(DOT, cydra5())
        report = check_equivalence(lowered, result.schedule, n=n)
        assert report.ok, report.describe()
        assert report.n == n

    def test_zero_trip_schedule_still_validates(self):
        lowered, result = _scheduled(DOT, cydra5())
        diags = check_schedule(
            lowered.graph, cydra5(), result.schedule, codegen=True
        )
        assert diags.ok, diags.render()


class TestLongLifetimes:
    def test_lifetime_exceeding_ii_forces_unroll(self):
        """Cydra-5 latencies stretch lifetimes past the II: MVE must
        unroll, and the unroll the generator picks is exactly the one
        the validator re-derives from the lifetimes."""
        lowered, result = _scheduled(DOT, cydra5())
        lifetimes = compute_lifetimes(lowered.graph, result.schedule)
        longest = max(v.length for v in lifetimes.values())
        assert longest > result.ii, "fixture no longer stresses MVE"

        kernel = modulo_variable_expansion(lowered.graph, result.schedule)
        assert kernel.unroll == max(
            math.ceil(v.length / result.ii) for v in lifetimes.values()
        )
        assert kernel.unroll >= 2

        diags = check_codegen(lowered.graph, result.schedule, kernel=kernel)
        assert diags.ok, diags.render()

    def test_under_unrolled_kernel_is_rejected(self):
        """An unroll one short of the longest lifetime trips CODE001."""
        from repro.codegen.mve import MVEKernel

        lowered, result = _scheduled(DOT, cydra5())
        kernel = modulo_variable_expansion(lowered.graph, result.schedule)
        assert kernel.unroll >= 2
        short = MVEKernel(
            ii=kernel.ii,
            unroll=kernel.unroll - 1,
            rows=kernel.rows[: (kernel.unroll - 1) * kernel.ii],
        )
        diags = check_codegen(lowered.graph, result.schedule, kernel=short)
        assert "CODE001" in diags.codes()


class TestOmegaGreaterThanOne:
    def test_iir2_has_distance_two_flow(self):
        lowered, _ = _scheduled(IIR2, cydra5())
        distances = {
            e.distance for e in lowered.graph.edges if e.distance > 1
        }
        assert distances, "iir2 fixture lost its omega>1 dependence"

    def test_schedule_and_codegen_validate(self):
        lowered, result = _scheduled(IIR2, cydra5())
        diags = check_schedule(
            lowered.graph, cydra5(), result.schedule, codegen=True
        )
        assert diags.ok, diags.render()

    def test_pipelined_execution_matches_oracle(self):
        lowered, result = _scheduled(IIR2, cydra5())
        report = check_equivalence(lowered, result.schedule, n=24)
        assert report.ok, report.describe()

    def test_cross_iteration_slack_is_not_free(self):
        """dist*II slack is real: remove it and SCHED005 fires with the
        distance spelled out in the finding."""
        lowered, result = _scheduled(IIR2, cydra5())
        graph = lowered.graph
        edge = next(
            e
            for e in graph.edges
            if e.distance >= 2
            and not graph.operation(e.pred).is_pseudo
            and not graph.operation(e.succ).is_pseudo
        )
        bad = _clone(result.schedule)
        # Violate t(q) >= t(p) + delay - dist*II by one cycle.
        bad.times[edge.succ] = (
            bad.times[edge.pred]
            + edge.delay
            - edge.distance * result.ii
            - 1
        )
        diags = check_schedule(graph, cydra5(), bad)
        findings = [d for d in diags if d.code == "SCHED005"]
        assert findings
        assert any(
            d.detail.get("distance") == edge.distance for d in findings
        )

    def test_single_alu_omega2_also_clean(self):
        machine = single_alu_machine()
        lowered, result = _scheduled(IIR2, machine)
        diags = check_schedule(
            lowered.graph, machine, result.schedule, codegen=True
        )
        assert diags.ok, diags.render()
        report = check_equivalence(lowered, result.schedule, n=16)
        assert report.ok, report.describe()
