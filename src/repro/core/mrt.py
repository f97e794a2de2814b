"""Schedule reservation tables, linear and modulo (Sections 2.1 and 3.1).

When an operation is scheduled, its opcode's reservation table is
translated by the scheduled time and overlaid on the *schedule reservation
table*; the placement is legal only if no cell is already occupied.
Unscheduling reverses the overlay.

The modulo variant (the MRT of the literature) folds time into
``time mod II``: a resource used at time T is recorded at slot T mod II, so
a conflict at T implies conflicts at every T + k*II, and the table need
only be II rows long.  The linear variant is the ordinary acyclic table
used by list scheduling.

Both tables are bitmasks.  Every resource gets a stable bit row; the
whole schedule reservation table is one occupancy integer (modulo) or
one integer per resource row (linear), each operation holds its
placement as a mask, and a conflict probe is a single AND against a
mask precompiled per (table, II) — see
:func:`repro.machine.resources.compile_alternative` and the
per-(machine, II) cache
:meth:`repro.machine.machine.MachineDescription.compiled_masks`.

The original dict-of-cells tables and Figure 4's scalar FindTimeSlot
scan live on as test oracles in ``tests/oracles/mrt.py``; the lockstep
suites in ``tests/core/test_mrt_differential.py`` and the corpus parity
tests in ``tests/test_differential.py`` hold these tables to them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.machine.resources import (
    CompiledAlternative,
    ReservationTable,
    compile_alternative,
    compile_linear_uses,
)


class ReservationConflict(RuntimeError):
    """Raised when a reservation would double-book a resource."""


def _render_kernel(
    cells: Dict[Tuple[str, int], int], ii: int, resources: Iterable[str]
) -> str:
    """ASCII kernel view: one row per modulo slot, one column per resource."""
    resources = list(resources)
    width = max([len(r) for r in resources] + [6])
    header = "slot  " + "  ".join(r.ljust(width) for r in resources)
    lines = [header, "-" * len(header)]
    for slot in range(ii):
        row = []
        for resource in resources:
            holder = cells.get((resource, slot))
            row.append(("" if holder is None else f"op{holder}").ljust(width))
        lines.append(f"{slot:>4}  " + "  ".join(row))
    return "\n".join(lines)


class ModuloReservations:
    """The modulo reservation table on one occupancy integer.

    Bit ``1 + row * II + slot`` stands for the cell ``(resource, slot)``;
    ``conflicts`` is ``occupancy & mask[time % II]``.  Bit 0 is the
    sentinel, permanently set in the occupancy: self-conflicting tables
    carry it in every slot mask, so the same single AND rejects them
    with no branch on the probe path.  Resource rows come from an
    optional :class:`~repro.machine.machine.CompiledMaskSet` (machine
    declaration order — what the schedulers use) and grow on demand for
    tables probing resources the set has never seen, so the machine-less
    construction ``ModuloReservations(ii)`` keeps working.
    """

    #: The always-set occupancy bit that answers self-conflict probes.
    SENTINEL = 1

    def __init__(self, ii: int, mask_set=None) -> None:
        if ii < 1:
            raise ValueError(f"II must be >= 1, got {ii}")
        self.ii = ii
        self._occ = self.SENTINEL
        self._held: Dict[int, int] = {}
        if mask_set is not None:
            self._rows: Dict[str, int] = dict(mask_set.rows)
            self._row_names: List[str] = list(mask_set.row_names)
        else:
            self._rows = {}
            self._row_names = []
        # id(table) -> CompiledAlternative; the compiled entry pins the
        # table alive, so ids cannot be recycled under us.
        self._local: Dict[int, CompiledAlternative] = {}

    # -- compilation ---------------------------------------------------

    def _row(self, resource: str) -> int:
        row = self._rows.get(resource)
        if row is None:
            row = self._rows[resource] = len(self._row_names)
            self._row_names.append(resource)
        return row

    def _compiled(self, table) -> CompiledAlternative:
        if type(table) is CompiledAlternative:
            return table
        compiled = self._local.get(id(table))
        if compiled is None:
            for resource, _ in table.uses:
                self._row(resource)
            compiled = compile_alternative(table, self._rows, self.ii)
            self._local[id(table)] = compiled
        return compiled

    # -- the public MRT protocol ---------------------------------------

    def conflicts(self, table, time: int) -> bool:
        """Would placing ``table`` at ``time`` collide with the schedule?

        Includes *self*-conflicts: under modulo folding, two uses of the
        same resource at offsets differing by a multiple of II land in
        the same cell, making the table unplaceable at this II no matter
        what else is scheduled — detected once at mask-compile time and
        encoded as the sentinel bit, so this probe is branch-free.
        """
        compiled = (
            table
            if type(table) is CompiledAlternative
            else self._compiled(table)
        )
        return (self._occ & compiled.slot_masks[time % self.ii]) != 0

    def self_conflicting(self, table) -> bool:
        """True when the table folds onto itself at this interval."""
        return self._compiled(table).self_conflicting

    def first_free_slot(
        self, tables: Sequence, min_time: int
    ) -> Tuple[Optional[int], Optional[int]]:
        """FindTimeSlot's search (Figure 4) over one II-wide window.

        Scans the window ``[min_time, min_time + II - 1]`` across *all*
        of ``tables`` at once and returns ``(time, index)`` for the
        earliest conflict-free placement — the index is the position in
        ``tables`` of the alternative that fits, with ties at one time
        going to the earliest-declared alternative — or ``(None, None)``
        when the whole window conflicts for every table.  That is the
        answer of Figure 4's time-major, alternative-minor scan.

        Instead of probing II × len(tables) (slot, alternative) pairs,
        each table's conflict-slot bit-vector is built by OR-ing one
        rotation of the relevant row's occupancy bits per distinct
        ``(row, offset % II)`` use (``CompiledAlternative.row_uses``):
        bit ``s`` of ``rotr(row_occ, offset)`` says "issue slot ``s``
        collides through this use".  Rotating the free vector by
        ``min_time % II`` anchors bit 0 at ``min_time``, and the lowest
        set bit is the first free slot.
        """
        ii = self.ii
        full = (1 << ii) - 1
        start = min_time % ii
        occ = self._occ >> 1  # drop the sentinel: row r starts at bit r*ii
        best_w: Optional[int] = None
        best_idx: Optional[int] = None
        for idx, table in enumerate(tables):
            compiled = (
                table
                if type(table) is CompiledAlternative
                else self._compiled(table)
            )
            if compiled.self_conflicting:
                continue
            conflict = 0
            for row, offset in compiled.row_uses:
                row_occ = (occ >> (row * ii)) & full
                if offset:
                    row_occ = (
                        (row_occ >> offset) | (row_occ << (ii - offset))
                    ) & full
                conflict |= row_occ
                if conflict == full:
                    break
            free = ~conflict & full
            if not free:
                continue
            if start:
                free = ((free >> start) | (free << (ii - start))) & full
            w = (free & -free).bit_length() - 1
            if best_w is None or w < best_w:
                best_w, best_idx = w, idx
                if w == 0:
                    break
        if best_w is None:
            return None, None
        return min_time + best_w, best_idx

    def conflicting_ops(self, tables: Iterable, time: int) -> Set[int]:
        """Operations occupying any cell any of ``tables`` would use.

        This is the displacement set of Section 3.4, computed by
        intersecting every operation's held mask with the union of the
        probing tables' masks.
        """
        probe = 0
        for table in tables:
            probe |= self._compiled(table).slot_masks[time % self.ii]
        return {op for op, held in self._held.items() if held & probe}

    def reserve(self, op: int, table, time: int) -> None:
        """Overlay ``table`` at ``time`` on behalf of operation ``op``."""
        if op in self._held:
            raise ReservationConflict(f"operation {op} already holds cells")
        compiled = self._compiled(table)
        mask = compiled.slot_masks[time % self.ii]
        # The sentinel bit makes this one test cover occupied cells and
        # self-conflicting tables alike.
        if self._occ & mask:
            self._raise_reserve_conflict(op, compiled, time)
        self._occ |= mask
        self._held[op] = mask

    def _raise_reserve_conflict(
        self, op: int, compiled: CompiledAlternative, time: int
    ) -> None:
        """Report the first offending use, in the table's use order."""
        seen = 0
        for resource, offset in compiled.uses:
            slot = (time + offset) % self.ii
            bit = 1 << (1 + self._rows[resource] * self.ii + slot)
            if self._occ & bit:
                holder = next(
                    o for o, held in self._held.items() if held & bit
                )
                raise ReservationConflict(
                    f"operation {op} at time {time}: {resource!r} slot "
                    f"{slot} already held by operation {holder}"
                )
            if seen & bit:
                raise ReservationConflict(
                    f"operation {op} at time {time}: table "
                    f"{compiled.name!r} self-conflicts on {resource!r} slot "
                    f"{slot} at this interval"
                )
            seen |= bit
        raise AssertionError("reserve conflict vanished during reporting")

    def release(self, op: int) -> None:
        """Remove all reservations held by operation ``op`` (idempotent)."""
        self._occ &= ~self._held.pop(op, 0)

    def holds(self, op: int) -> bool:
        """Whether operation ``op`` currently holds any cells."""
        return op in self._held

    def occupancy(self) -> Dict[Tuple[str, int], int]:
        """Cell map decoded from the held masks, for validation/rendering."""
        cells: Dict[Tuple[str, int], int] = {}
        for op, held in self._held.items():
            while held:
                low = held & -held
                position = low.bit_length() - 2  # undo the sentinel shift
                cells[
                    (self._row_names[position // self.ii], position % self.ii)
                ] = op
                held ^= low
        return cells

    def render(self, resources: Iterable[str]) -> str:
        """ASCII kernel view: one row per modulo slot, one column per
        resource."""
        return _render_kernel(self.occupancy(), self.ii, resources)


class LinearReservations:
    """An ordinary (acyclic) schedule reservation table on bit-grids.

    Time never folds here, so each resource row is one unbounded Python
    integer (bit ``t`` = cycle ``t``) and a table compiles once into
    per-row offset masks that are merely shifted by the issue time — the
    growable linear bit-grid the list scheduler probes.
    """

    def __init__(self, machine=None) -> None:
        if machine is not None:
            self._rows: Dict[str, int] = {
                name: row for row, name in enumerate(machine.resources)
            }
            self._row_names: List[str] = list(machine.resources)
        else:
            self._rows = {}
            self._row_names = []
        self._occ: List[int] = [0] * len(self._row_names)
        # op -> list of (row, shifted mask) it occupies
        self._held: Dict[int, List[Tuple[int, int]]] = {}
        # id(table) -> (table, ((row, offset_mask), ...)); the entry pins
        # the table alive, so ids cannot be recycled under us.
        self._local: Dict[int, Tuple[ReservationTable, Tuple]] = {}

    # -- compilation ---------------------------------------------------

    def _compiled(self, table: ReservationTable) -> Tuple:
        entry = self._local.get(id(table))
        if entry is None:
            for resource, _ in table.uses:
                if resource not in self._rows:
                    self._rows[resource] = len(self._row_names)
                    self._row_names.append(resource)
                    self._occ.append(0)
            entry = (table, compile_linear_uses(table, self._rows))
            self._local[id(table)] = entry
        return entry[1]

    # -- the public MRT protocol ---------------------------------------

    def conflicts(self, table: ReservationTable, time: int) -> bool:
        """Would placing ``table`` at ``time`` collide with the schedule?"""
        occ = self._occ
        for row, mask in self._compiled(table):
            if occ[row] & (mask << time):
                return True
        return False

    def self_conflicting(self, table: ReservationTable) -> bool:
        """Never true without folding: duplicate uses are rejected at
        table construction."""
        return False

    def conflicting_ops(
        self, tables: Iterable[ReservationTable], time: int
    ) -> Set[int]:
        """Operations occupying any cell any of ``tables`` would use."""
        probe: Dict[int, int] = {}
        for table in tables:
            for row, mask in self._compiled(table):
                probe[row] = probe.get(row, 0) | (mask << time)
        return {
            op
            for op, held in self._held.items()
            if any(probe.get(row, 0) & mask for row, mask in held)
        }

    def reserve(self, op: int, table: ReservationTable, time: int) -> None:
        """Overlay ``table`` at ``time`` on behalf of operation ``op``."""
        if op in self._held:
            raise ReservationConflict(f"operation {op} already holds cells")
        compiled = self._compiled(table)
        occ = self._occ
        placed = []
        for row, mask in compiled:
            shifted = mask << time
            if occ[row] & shifted:
                self._raise_reserve_conflict(op, table, time)
            placed.append((row, shifted))
        for row, shifted in placed:
            occ[row] |= shifted
        self._held[op] = placed

    def _raise_reserve_conflict(
        self, op: int, table: ReservationTable, time: int
    ) -> None:
        """Report the first offending use, in the table's use order."""
        for resource, offset in table.uses:
            row = self._rows[resource]
            bit = 1 << (time + offset)
            if self._occ[row] & bit:
                holder = next(
                    o
                    for o, held in self._held.items()
                    if any(r == row and m & bit for r, m in held)
                )
                raise ReservationConflict(
                    f"operation {op} at time {time}: {resource!r} slot "
                    f"{time + offset} already held by operation {holder}"
                )
        raise AssertionError("reserve conflict vanished during reporting")

    def release(self, op: int) -> None:
        """Remove all reservations held by operation ``op`` (idempotent)."""
        for row, mask in self._held.pop(op, ()):
            self._occ[row] &= ~mask

    def holds(self, op: int) -> bool:
        """Whether operation ``op`` currently holds any cells."""
        return op in self._held

    def occupancy(self) -> Dict[Tuple[str, int], int]:
        """Cell map decoded from the held masks, for validation/rendering."""
        cells: Dict[Tuple[str, int], int] = {}
        for op, held in self._held.items():
            for row, mask in held:
                resource = self._row_names[row]
                while mask:
                    low = mask & -mask
                    cells[(resource, low.bit_length() - 1)] = op
                    mask ^= low
        return cells
