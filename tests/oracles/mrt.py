"""The dict-of-cells reservation tables: test oracles for ``repro.core.mrt``.

These are the original schedule reservation tables, one dict entry per
occupied ``(resource, time)`` cell, and Figure 4's scalar FindTimeSlot
scan on top of them.  They share no probe code with the bitmask tables
in :mod:`repro.core.mrt`, which must agree with them on every
observable: ``conflicts``, ``conflicting_ops``, ``occupancy``, the raised
:class:`~repro.core.mrt.ReservationConflict` messages, ``render`` and
``first_free_slot``.

``tests/core/test_mrt_differential.py`` drives both in lockstep, and
``tests/test_differential.py`` schedules whole corpora through these
tables by patching the module globals the schedulers construct their
tables through — :func:`use_dict_tables` does that patching.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import repro.baselines.list_scheduler as list_scheduler
import repro.core.scheduler as scheduler
from repro.core.mrt import ReservationConflict, _render_kernel
from repro.machine.resources import ReservationTable


class DictLinearReservations:
    """The original dict-backed acyclic schedule reservation table."""

    def __init__(self) -> None:
        # (resource, folded time) -> occupying operation index
        self._cells: Dict[Tuple[str, int], int] = {}
        # operation index -> cells it occupies
        self._held: Dict[int, List[Tuple[str, int]]] = {}
        self.checks = 0
        self.fastpath_checks = 0
        self.cell_probes = 0

    def _fold(self, time: int) -> int:
        return time

    # ------------------------------------------------------------------

    def conflicts(self, table: ReservationTable, time: int) -> bool:
        """Would placing ``table`` at ``time`` collide with the schedule?

        Includes *self*-conflicts: under modulo folding, two uses of the
        same resource at offsets differing by a multiple of II land in the
        same cell, making the table unplaceable at this II no matter what
        else is scheduled (e.g. a load whose port is busy at issue and at
        data return cannot be scheduled at II equal to the return offset).
        """
        self.checks += 1
        occupied = self._cells
        fold = self._fold
        cells = set()
        probed = 0
        hit = False
        for resource, offset in table.uses:
            probed += 1
            cell = (resource, fold(time + offset))
            if cell in occupied or cell in cells:
                hit = True
                break
            cells.add(cell)
        self.cell_probes += probed
        return hit

    def self_conflicting(self, table: ReservationTable) -> bool:
        """True when the table folds onto itself at this interval."""
        cells = set()
        for resource, offset in table.uses:
            cell = (resource, self._fold(offset))
            if cell in cells:
                return True
            cells.add(cell)
        return False

    def conflicting_ops(
        self, tables: Iterable[ReservationTable], time: int
    ) -> Set[int]:
        """Operations occupying any cell any of ``tables`` would use.

        This is the displacement set of Section 3.4: when an operation must
        be force-scheduled, everything conflicting with *any* of its
        alternatives is unscheduled.
        """
        occupants: Set[int] = set()
        for table in tables:
            for resource, offset in table.uses:
                self.cell_probes += 1
                holder = self._cells.get((resource, self._fold(time + offset)))
                if holder is not None:
                    occupants.add(holder)
        return occupants

    def reserve(self, op: int, table: ReservationTable, time: int) -> None:
        """Overlay ``table`` at ``time`` on behalf of operation ``op``."""
        if op in self._held:
            raise ReservationConflict(f"operation {op} already holds cells")
        cells: List[Tuple[str, int]] = []
        taken: Set[Tuple[str, int]] = set()
        for resource, offset in table.uses:
            cell = (resource, self._fold(time + offset))
            self.cell_probes += 1
            holder = self._cells.get(cell)
            if holder is not None:
                raise ReservationConflict(
                    f"operation {op} at time {time}: {resource!r} slot "
                    f"{cell[1]} already held by operation {holder}"
                )
            if cell in taken:
                raise ReservationConflict(
                    f"operation {op} at time {time}: table "
                    f"{table.name!r} self-conflicts on {resource!r} slot "
                    f"{cell[1]} at this interval"
                )
            taken.add(cell)
            cells.append(cell)
        for cell in cells:
            self._cells[cell] = op
        self._held[op] = cells

    def release(self, op: int) -> None:
        """Remove all reservations held by operation ``op`` (idempotent)."""
        for cell in self._held.pop(op, ()):
            del self._cells[cell]

    def holds(self, op: int) -> bool:
        """Whether operation ``op`` currently holds any cells."""
        return op in self._held

    def occupancy(self) -> Dict[Tuple[str, int], int]:
        """Copy of the cell map, for validation and rendering."""
        return dict(self._cells)


class DictModuloReservations(DictLinearReservations):
    """The original dict-backed MRT: cells are folded by ``time mod II``."""

    def __init__(self, ii: int) -> None:
        if ii < 1:
            raise ValueError(f"II must be >= 1, got {ii}")
        super().__init__()
        self.ii = ii

    def _fold(self, time: int) -> int:
        return time % self.ii

    def first_free_slot(
        self, tables: Sequence, min_time: int
    ) -> Tuple[Optional[int], Optional[int]]:
        """FindTimeSlot's scan (Figure 4), extended over alternatives.

        Probes every (slot, alternative) pair of the window
        ``[min_time, min_time + II - 1]``, time-major and
        alternative-minor, and returns ``(time, index)`` of the first
        conflict-free pair, or ``(None, None)`` when there is none.
        """
        for time in range(min_time, min_time + self.ii):
            for index, table in enumerate(tables):
                if not self.conflicts(table, time):
                    return time, index
        return None, None

    def render(self, resources: Iterable[str]) -> str:
        """ASCII kernel view: one row per modulo slot, one column per resource."""
        return _render_kernel(self._cells, self.ii, resources)


def use_dict_tables(monkeypatch) -> None:
    """Route the modulo and list schedulers through the dict oracles.

    ``repro.core.scheduler`` builds ``ModuloReservations(ii, mask_set)``
    and ``repro.baselines.list_scheduler`` builds
    ``LinearReservations(machine=machine)``; both names are module
    globals, so patching them swaps the table under the unchanged
    schedulers for the rest of the test.
    """
    monkeypatch.setattr(
        scheduler,
        "ModuloReservations",
        lambda ii, mask_set=None: DictModuloReservations(ii),
    )
    monkeypatch.setattr(
        list_scheduler,
        "LinearReservations",
        lambda machine=None: DictLinearReservations(),
    )
