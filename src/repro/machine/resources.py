"""Reservation tables (Section 2.1, Figure 1).

A reservation table records, for one opcode alternative, which machine
resources are used and at which cycle offsets relative to the issue cycle.
The paper classifies tables into three kinds, in increasing order of
scheduling difficulty:

* **simple** — a single resource for a single cycle, on the issue cycle;
* **block** — a single resource for multiple consecutive cycles starting at
  the issue cycle;
* **complex** — anything else (several resources, non-contiguous usage,
  usage not starting at issue).

Block and complex tables are what make iterative (backtracking) scheduling
necessary in practice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


class TableKind(enum.Enum):
    """Classification of a reservation table (Section 2.1)."""

    SIMPLE = "simple"
    BLOCK = "block"
    COMPLEX = "complex"


@dataclass(frozen=True)
class ReservationTable:
    """Resource usage of one opcode alternative.

    Attributes
    ----------
    name:
        Label for the alternative (typically the functional-unit instance,
        e.g. ``"mem_port0"``).
    uses:
        Sorted tuple of ``(resource, offset)`` pairs: resource names and the
        cycle offsets, relative to issue, at which they are occupied.
    """

    name: str
    uses: Tuple[Tuple[str, int], ...]

    def __init__(self, name: str, uses: Iterable[Tuple[str, int]]) -> None:
        normalized = tuple(sorted((str(r), int(t)) for r, t in uses))
        if not normalized:
            raise ValueError(f"reservation table {name!r} uses no resources")
        seen = set()
        for resource, offset in normalized:
            if offset < 0:
                raise ValueError(
                    f"reservation table {name!r}: negative offset {offset}"
                )
            if (resource, offset) in seen:
                raise ValueError(
                    f"reservation table {name!r}: duplicate use of "
                    f"{resource!r} at offset {offset}"
                )
            seen.add((resource, offset))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "uses", normalized)

    @property
    def resources(self) -> Tuple[str, ...]:
        """The distinct resources this table touches, sorted."""
        return tuple(sorted({r for r, _ in self.uses}))

    @property
    def span(self) -> int:
        """Number of cycles from issue to the last resource use, inclusive."""
        return max(t for _, t in self.uses) + 1

    @property
    def kind(self) -> TableKind:
        """Classify the table as simple, block or complex."""
        resources = {r for r, _ in self.uses}
        if len(resources) > 1:
            return TableKind.COMPLEX
        offsets = sorted(t for _, t in self.uses)
        if offsets == [0]:
            return TableKind.SIMPLE
        if offsets == list(range(len(offsets))):
            return TableKind.BLOCK
        return TableKind.COMPLEX

    def usage_count(self) -> Dict[str, int]:
        """Cycles of use per resource — the quantity ResMII totals up."""
        counts: Dict[str, int] = {}
        for resource, _ in self.uses:
            counts[resource] = counts.get(resource, 0) + 1
        return counts

    def render(self) -> str:
        """ASCII rendering in the style of Figure 1 of the paper."""
        return render_reservation_tables([self])


# ----------------------------------------------------------------------
# Bitmask compilation (the scheduler's O(1)-conflict fast path)
#
# A reservation table probed against a modulo reservation table at II
# touches, for each use ``(resource, offset)``, the cell
# ``(resource, (time + offset) mod II)``.  Assigning every resource a
# stable integer *row* turns the whole (resource x modulo-slot) grid into
# one integer: bit ``row * II + slot``.  A table then compiles — once per
# (row assignment, II) — into one mask per issue slot in ``0..II-1``, and
# a placement test against the occupancy integer is a single AND.


class CompiledAlternative:
    """One :class:`ReservationTable` compiled to bitmasks at a fixed II.

    Attributes
    ----------
    table:
        The source reservation table.
    ii:
        The initiation interval the masks are folded by.
    slot_masks:
        ``slot_masks[t % ii]`` is the occupancy mask of placing the table
        at time ``t`` — bit ``1 + row * ii + slot`` set for every cell
        used.  Bit 0 is the *sentinel*: always set in an MRT's occupancy,
        and set in every slot mask of a self-conflicting table, so the
        single AND also answers "unplaceable at this II" with no extra
        branch on the probe path.
    self_conflicting:
        True when two uses of one resource fold onto the same modulo slot
        at this II, making the table unplaceable whatever the schedule
        holds (detected once here, never re-derived per probe).
    row_uses:
        The deduplicated ``(row, offset % ii)`` pairs of the table's
        uses, sorted.  FindTimeSlot's window sweep
        (:meth:`repro.core.mrt.ModuloReservations.first_free_slot`)
        consumes these:
        for each pair, rotating the row's II-bit occupancy right by the
        folded offset yields the issue slots this use alone would
        conflict at, and OR-ing the rotations over ``row_uses`` yields
        the whole conflict-slot bit-vector in one sweep.
    """

    __slots__ = ("table", "ii", "slot_masks", "self_conflicting", "row_uses")

    def __init__(
        self,
        table: ReservationTable,
        ii: int,
        slot_masks: Tuple[int, ...],
        self_conflicting: bool,
        row_uses: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        self.table = table
        self.ii = ii
        self.slot_masks = slot_masks
        self.self_conflicting = self_conflicting
        self.row_uses = row_uses

    @property
    def name(self) -> str:
        """The source table's name (so traces read the same either way)."""
        return self.table.name

    @property
    def uses(self) -> Tuple[Tuple[str, int], ...]:
        """The source table's uses (for slow-path conflict reporting)."""
        return self.table.uses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledAlternative({self.table.name!r}, ii={self.ii}, "
            f"self_conflicting={self.self_conflicting})"
        )


def compile_alternative(
    table: ReservationTable, rows: Mapping[str, int], ii: int
) -> CompiledAlternative:
    """Fold ``table`` at ``ii`` into one occupancy mask per issue slot.

    ``rows`` maps resource names to their bit rows; every resource the
    table touches must be present.  Self-conflict (two uses landing on
    one bit) is II-dependent but issue-slot-independent, so it is
    detected while building the slot-0 mask — and encoded as the
    sentinel bit 0 in every slot mask, which an MRT keeps permanently
    set in its occupancy.
    """
    if ii < 1:
        raise ValueError(f"II must be >= 1, got {ii}")
    self_conflicting = False
    masks = []
    for issue in range(ii):
        mask = 0
        for resource, offset in table.uses:
            bit = 1 << (1 + rows[resource] * ii + (issue + offset) % ii)
            if issue == 0 and mask & bit:
                self_conflicting = True
            mask |= bit
        masks.append(mask)
    if self_conflicting:
        masks = [mask | 1 for mask in masks]
    row_uses = tuple(
        sorted({(rows[resource], offset % ii) for resource, offset in table.uses})
    )
    return CompiledAlternative(
        table, ii, tuple(masks), self_conflicting, row_uses
    )


def compile_linear_uses(
    table: ReservationTable, rows: Mapping[str, int]
) -> Tuple[Tuple[int, int], ...]:
    """Compile ``table`` for a *linear* (acyclic) bit-grid.

    Returns ``(row, offset_mask)`` pairs, one per distinct resource: bit
    ``o`` of ``offset_mask`` is set when the table uses the resource at
    cycle offset ``o``.  Placing the table at time ``t`` occupies
    ``offset_mask << t`` within the resource's (unbounded, growable)
    occupancy integer — time never folds, so a plain shift suffices.
    """
    per_row: Dict[int, int] = {}
    for resource, offset in table.uses:
        row = rows[resource]
        per_row[row] = per_row.get(row, 0) | (1 << offset)
    return tuple(sorted(per_row.items()))


def render_reservation_tables(tables: Sequence[ReservationTable]) -> str:
    """Render one or more reservation tables side by side, Figure-1 style.

    Each row is a cycle offset; each column a resource; an ``X`` marks a
    reservation.  Resources are the union across the given tables so that
    inter-table conflicts (e.g. a shared result bus) are visually aligned.
    """
    resources: List[str] = []
    for table in tables:
        for resource in table.resources:
            if resource not in resources:
                resources.append(resource)
    depth = max(table.span for table in tables)
    width = max(len(r) for r in resources)
    width = max(width, 4)
    header = "Time  " + "  ".join(r.ljust(width) for r in resources)
    lines = [header, "-" * len(header)]
    for offset in range(depth):
        cells = []
        for resource in resources:
            marks = [
                table.name
                for table in tables
                if (resource, offset) in set(table.uses)
            ]
            cell = "X" if marks else ""
            cells.append(cell.ljust(width))
        lines.append(f"{offset:>4}  " + "  ".join(cells))
    return "\n".join(lines)
