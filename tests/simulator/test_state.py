"""Loop state: halos, copies, diffing, initial-state generation."""

import math

import pytest

from repro.loopir import compile_loop_full
from repro.machine import single_alu_machine
from repro.simulator import ArrayStore, LoopState, make_initial_state
from repro.simulator.state import floats_equal


class TestArrayStore:
    def test_halo_indices_valid(self):
        array = ArrayStore(10, halo=3)
        array[-3] = 1.5
        array[12] = 2.5
        assert array[-3] == 1.5
        assert array[12] == 2.5

    def test_out_of_halo_rejected(self):
        array = ArrayStore(10, halo=3)
        with pytest.raises(IndexError):
            array[-4]
        with pytest.raises(IndexError):
            array[13] = 0.0

    def test_fill_from_touches_body_only(self):
        array = ArrayStore(3, halo=1, fill=9.0)
        array.fill_from([1.0, 2.0, 3.0, 4.0])
        assert array.body() == (1.0, 2.0, 3.0)
        assert array[-1] == 9.0

    def test_copy_is_independent(self):
        array = ArrayStore(4)
        array[0] = 1.0
        duplicate = array.copy()
        duplicate[0] = 2.0
        assert array[0] == 1.0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ArrayStore(-1)


class TestFloatsEqual:
    def test_nan_equals_nan(self):
        assert floats_equal(math.nan, math.nan)

    def test_nan_differs_from_number(self):
        assert not floats_equal(math.nan, 0.0)

    def test_exact_equality(self):
        assert floats_equal(1.5, 1.5)
        assert not floats_equal(1.5, 1.5000001)

    def test_booleans_compare(self):
        assert floats_equal(True, True)
        assert not floats_equal(True, False)

    def test_signed_zeros_differ(self):
        assert floats_equal(0.0, 0.0)
        assert floats_equal(-0.0, -0.0)
        assert not floats_equal(0.0, -0.0)
        assert not floats_equal(-0.0, 0.0)


class TestLoopState:
    def test_differences_empty_for_copies(self):
        state = LoopState(
            arrays={"a": ArrayStore(3)}, scalars={"s": 1.0}
        )
        assert state.differences(state.copy()) == []

    def test_differences_report_array_cell(self):
        left = LoopState(arrays={"a": ArrayStore(3)})
        right = left.copy()
        right.arrays["a"][1] = 5.0
        problems = left.differences(right)
        assert any("a[1]" in p for p in problems)

    def test_differences_report_scalar(self):
        left = LoopState(scalars={"s": 1.0})
        right = LoopState(scalars={"s": 2.0})
        assert any("scalar s" in p for p in left.differences(right))

    def test_differences_report_signed_zero_cell(self):
        left = LoopState(arrays={"a": ArrayStore(3, halo=1)})
        right = left.copy()
        right.arrays["a"][-1] = -0.0
        assert left.differences(right) == ["array a[-1]: 0.0 vs -0.0"]

    def test_differences_report_signed_zero_scalar(self):
        left = LoopState(scalars={"s": -0.0})
        right = LoopState(scalars={"s": 0.0})
        assert left.differences(right) == ["scalar s: -0.0 vs 0.0"]

    def test_differences_ignore_nan_payloads(self):
        left = LoopState(arrays={"a": ArrayStore(2)}, scalars={"s": math.nan})
        right = left.copy()
        left.arrays["a"][0] = math.nan
        right.arrays["a"][0] = -math.nan  # another NaN bit pattern
        right.scalars["s"] = -math.nan
        assert left.differences(right) == []

    def test_differences_report_mismatched_sets(self):
        left = LoopState(scalars={"s": 1.0})
        right = LoopState(scalars={"t": 1.0})
        assert left.differences(right)


class TestMakeInitialState:
    def test_allocates_arrays_and_liveins(self):
        machine = single_alu_machine()
        lowered = compile_loop_full(
            "for i in n:\n    s = s + q * a[i+3]\n", machine
        )
        state = make_initial_state(lowered, n=10, seed=1)
        assert "a" in state.arrays
        assert {"s", "q"} <= set(state.scalars)
        # Halo must cover the +3 offset.
        state.arrays["a"][12]

    def test_deterministic_by_seed(self):
        machine = single_alu_machine()
        lowered = compile_loop_full("for i in n:\n    b[i] = a[i]\n", machine)
        first = make_initial_state(lowered, n=5, seed=9)
        second = make_initial_state(lowered, n=5, seed=9)
        assert first.differences(second) == []

    def test_different_seeds_differ(self):
        machine = single_alu_machine()
        lowered = compile_loop_full("for i in n:\n    b[i] = a[i]\n", machine)
        first = make_initial_state(lowered, n=5, seed=1)
        second = make_initial_state(lowered, n=5, seed=2)
        assert first.differences(second)
