"""Every hand-written kernel: compiles, schedules, and matches the oracle.

Each kernel is simulated on every shipped machine the DSL front end can
lower to.  ``bus_conflict_machine`` (Figure 1's machine) is left out: it
has no ``aadd``, so no kernel's address recurrence lowers on it.
"""

import pytest

from repro.check import check_schedule
from repro.core import modulo_schedule
from repro.loopir import compile_loop_full
from repro.machine import (
    cydra5,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)
from repro.simulator import check_equivalence
from repro.workloads import KERNELS, kernel_names, kernel_source


class TestRegistry:
    def test_registry_is_populated(self):
        assert len(KERNELS) >= 40

    def test_names_sorted_and_unique(self):
        names = kernel_names()
        assert names == sorted(set(names))

    def test_categories_are_known(self):
        allowed = {
            "lfk", "blas", "stencil", "recurrence", "predicated",
            "mixed", "irregular",
        }
        assert {spec.category for spec in KERNELS.values()} <= allowed

    def test_kernel_source_lookup(self):
        assert "for i in n" in kernel_source("saxpy")

    def test_each_category_represented(self):
        categories = {spec.category for spec in KERNELS.values()}
        assert len(categories) == 7


@pytest.mark.parametrize("name", sorted(KERNELS))
class TestEndToEnd:
    def test_verified_on_cydra5(self, name):
        machine = cydra5()
        lowered = compile_loop_full(KERNELS[name].source, machine, name=name)
        result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
        assert not check_schedule(lowered.graph, machine, result.schedule).errors
        assert result.ii >= result.mii_result.mii
        report = check_equivalence(lowered, result.schedule, n=19, seed=11)
        assert report.ok, report.describe()

    def test_verified_on_single_alu(self, name):
        _assert_verified(single_alu_machine(), name, n=23, seed=7)

    def test_verified_on_superscalar(self, name):
        _assert_verified(superscalar_machine(), name, n=29, seed=2)


def _assert_verified(machine, name, n, seed):
    lowered = compile_loop_full(KERNELS[name].source, machine, name=name)
    result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
    report = check_equivalence(lowered, result.schedule, n=n, seed=seed)
    assert report.ok, report.describe()


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_verified_on_two_alu(name):
    _assert_verified(two_alu_machine(), name, n=31, seed=4)
