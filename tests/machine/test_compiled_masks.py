"""Mask compilation of reservation tables and the per-(machine, II) cache."""

import pickle

import pytest

from repro.machine import ReservationTable, cydra5
from repro.machine.machine import _MASK_SET_CACHE
from repro.machine.resources import (
    CompiledAlternative,
    compile_alternative,
    compile_linear_uses,
)

ROWS = {"a": 0, "b": 1}


class TestCompileAlternative:
    def test_slot_masks_encode_row_times_ii_plus_slot(self):
        table = ReservationTable("t", [("a", 0), ("b", 2)])
        compiled = compile_alternative(table, ROWS, ii=4)
        # Bit 1 + row*II + slot (bit 0 is the sentinel).
        # Issue slot 0: a@slot0 -> bit 1, b@slot2 -> bit 1+1*4+2 = 7.
        assert compiled.slot_masks[0] == (1 << 1) | (1 << 7)
        # Issue slot 3: a@slot3 -> bit 4, b@slot(3+2)%4=1 -> bit 6.
        assert compiled.slot_masks[3] == (1 << 4) | (1 << 6)
        assert len(compiled.slot_masks) == 4
        assert not compiled.self_conflicting

    def test_offsets_fold_modulo_ii(self):
        table = ReservationTable("t", [("a", 7)])
        compiled = compile_alternative(table, ROWS, ii=3)
        assert compiled.slot_masks[0] == 1 << (1 + 7 % 3)

    def test_self_conflict_detected_at_compile_time(self):
        table = ReservationTable("t", [("a", 0), ("a", 6)])
        assert compile_alternative(table, ROWS, ii=3).self_conflicting
        assert compile_alternative(table, ROWS, ii=6).self_conflicting
        assert not compile_alternative(table, ROWS, ii=4).self_conflicting

    def test_sentinel_bit_marks_self_conflicting_masks(self):
        """Self-conflicting tables carry the always-occupied sentinel in
        every slot mask; placeable tables never touch it."""
        clean = compile_alternative(
            ReservationTable("t", [("a", 0), ("a", 6)]), ROWS, ii=4
        )
        folded = compile_alternative(
            ReservationTable("t", [("a", 0), ("a", 6)]), ROWS, ii=3
        )
        assert all(mask & 1 == 0 for mask in clean.slot_masks)
        assert all(mask & 1 for mask in folded.slot_masks)

    def test_wraps_the_source_table(self):
        table = ReservationTable("t", [("a", 0)])
        compiled = compile_alternative(table, ROWS, ii=2)
        assert type(compiled) is CompiledAlternative
        assert compiled.table is table
        assert compiled.name == table.name
        assert compiled.uses == table.uses

    def test_rejects_ii_below_one(self):
        table = ReservationTable("t", [("a", 0)])
        with pytest.raises(ValueError):
            compile_alternative(table, ROWS, ii=0)

    def test_linear_compilation_keeps_absolute_offsets(self):
        table = ReservationTable("t", [("a", 0), ("a", 5), ("b", 2)])
        pairs = dict(compile_linear_uses(table, ROWS))
        assert pairs[0] == (1 << 0) | (1 << 5)
        assert pairs[1] == 1 << 2


class TestMaskSetCache:
    def test_equal_machines_share_one_compile(self):
        from repro.machine.serialize import machine_from_dict, machine_to_dict

        left = cydra5()
        right = machine_from_dict(machine_to_dict(left))
        assert left is not right
        assert left.content_key == right.content_key
        assert left.compiled_masks(4) is right.compiled_masks(4)

    def test_distinct_iis_compile_separately(self):
        machine = cydra5()
        assert machine.compiled_masks(3) is not machine.compiled_masks(4)
        assert machine.compiled_masks(3) is machine.compiled_masks(3)

    def test_cache_is_content_addressed(self):
        machine = cydra5()
        mask_set = machine.compiled_masks(5)
        assert _MASK_SET_CACHE[(machine.content_key, 5)] is mask_set

    def test_pickled_size_does_not_depend_on_compiled_iis(self):
        """Every engine task pickles the machine; compiled masks must
        stay in the process-wide cache, not ride along."""
        machine = cydra5()
        machine.compiled_masks(1)  # memoizes the content key, too
        one = len(pickle.dumps(machine))
        for ii in range(2, 41):
            machine.compiled_masks(ii)
        assert len(pickle.dumps(machine)) == one

    def test_rows_follow_machine_declaration_order(self):
        machine = cydra5()
        mask_set = machine.compiled_masks(4)
        assert mask_set.row_names == machine.resources
        assert [mask_set.rows[name] for name in machine.resources] == list(
            range(len(machine.resources))
        )

    def test_feasible_filters_self_conflicting_alternatives(self):
        machine = cydra5()
        # A Cydra 5 load holds its memory port at issue and at data
        # return; at an II equal to that return offset the table folds
        # onto itself and must be compiled out of the feasible set.
        load = machine.opcode("load").alternatives[0]
        offsets = [offset for _, offset in load.uses]
        folding_ii = max(offsets) - min(offsets)
        mask_set = machine.compiled_masks(folding_ii)
        assert len(mask_set.feasible("load")) < len(
            mask_set.alternatives("load")
        )
        for opcode in machine.opcode_names:
            for compiled in mask_set.feasible(opcode):
                assert not compiled.self_conflicting
