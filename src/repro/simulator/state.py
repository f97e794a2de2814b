"""Machine-visible loop state: arrays with halos, plus scalars."""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


def floats_equal(a: float, b: float) -> bool:
    """Bit-for-bit equality, except that two NaNs compare equal.

    Speculative arithmetic legitimately produces NaN on both sides of an
    equivalence check (e.g. a guarded sqrt of a negative value), so NaN
    must equal NaN here.  ``0.0`` and ``-0.0`` differ, although ``==``
    calls them equal: their bits differ, and so do ``1/x`` and
    ``copysign`` of them.
    """
    if a == b:
        return a != 0 or math.copysign(1.0, a) == math.copysign(1.0, b)
    try:
        return math.isnan(a) and math.isnan(b)
    except TypeError:
        return False


def _bits(cells: List[float]) -> bytes:
    """The cells packed as doubles: equal exactly when every cell is
    bit-identical (list equality calls ``0.0`` and ``-0.0`` equal)."""
    return struct.pack(f"{len(cells)}d", *cells)


class ArrayStore:
    """A one-dimensional array addressable at ``i + c`` for small ``c``.

    Indices from ``-halo`` to ``length + halo - 1`` are valid, so loop
    bodies using subscripts like ``a[i-2]`` or ``a[i+3]`` stay in bounds
    for every iteration.
    """

    def __init__(self, length: int, halo: int = 8, fill: float = 0.0) -> None:
        if length < 0:
            raise ValueError(f"array length must be >= 0, got {length}")
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        self.length = length
        self.halo = halo
        self._data: List[float] = [fill] * (length + 2 * halo)

    def _position(self, index: int) -> int:
        position = index + self.halo
        if not 0 <= position < len(self._data):
            raise IndexError(
                f"index {index} outside [-{self.halo}, "
                f"{self.length + self.halo})"
            )
        return position

    def __getitem__(self, index: int) -> float:
        return self._data[self._position(index)]

    def __setitem__(self, index: int, value: float) -> None:
        self._data[self._position(index)] = float(value)

    def fill_from(self, values: Iterable[float]) -> "ArrayStore":
        """Fill positions 0..length-1 from an iterable (halo untouched)."""
        for index, value in enumerate(values):
            if index >= self.length:
                break
            self[index] = value
        return self

    def cells(self) -> List[float]:
        """The live backing list, halo included: index ``i`` sits at
        ``i + halo``.  Whoever writes to it must write floats."""
        return self._data

    def snapshot(self) -> Tuple[float, ...]:
        """The full backing store (halo included), for comparisons."""
        return tuple(self._data)

    def body(self) -> Tuple[float, ...]:
        """Just positions 0..length-1."""
        return tuple(self._data[self.halo : self.halo + self.length])

    def copy(self) -> "ArrayStore":
        """An independent deep copy (halo included)."""
        duplicate = ArrayStore(self.length, self.halo)
        duplicate._data = list(self._data)
        return duplicate


@dataclass
class LoopState:
    """All state a loop reads and writes: named arrays and scalars."""

    arrays: Dict[str, ArrayStore] = field(default_factory=dict)
    scalars: Dict[str, float] = field(default_factory=dict)

    def copy(self) -> "LoopState":
        """An independent deep copy of all arrays and scalars."""
        return LoopState(
            arrays={name: array.copy() for name, array in self.arrays.items()},
            scalars=dict(self.scalars),
        )

    def differences(self, other: "LoopState") -> List[str]:
        """Describe where two states differ (empty when identical)."""
        problems: List[str] = []
        if set(self.arrays) != set(other.arrays):
            problems.append(
                f"array sets differ: {sorted(self.arrays)} vs "
                f"{sorted(other.arrays)}"
            )
            return problems
        if set(self.scalars) != set(other.scalars):
            problems.append(
                f"scalar sets differ: {sorted(self.scalars)} vs "
                f"{sorted(other.scalars)}"
            )
            return problems
        for name in sorted(self.arrays):
            mine, theirs = self.arrays[name], other.arrays[name]
            same_shape = (mine.length, mine.halo) == (theirs.length, theirs.halo)
            if same_shape and _bits(mine._data) == _bits(theirs._data):
                continue  # bit-identical cells are floats_equal cells
            for index in range(-mine.halo, mine.length + mine.halo):
                if not floats_equal(mine[index], theirs[index]):
                    problems.append(
                        f"array {name}[{index}]: {mine[index]!r} vs "
                        f"{theirs[index]!r}"
                    )
        for name in sorted(self.scalars):
            if not floats_equal(self.scalars[name], other.scalars[name]):
                problems.append(
                    f"scalar {name}: {self.scalars[name]!r} vs "
                    f"{other.scalars[name]!r}"
                )
        return problems


def make_initial_state(
    lowered,
    n: int,
    seed: Optional[int] = 0,
    halo: Optional[int] = None,
) -> LoopState:
    """Random-but-reproducible initial state sized for ``n`` iterations.

    Array contents and live-in scalars are drawn from a seeded RNG so the
    equivalence check exercises data-dependent control flow; pass explicit
    values by mutating the returned state.
    """
    rng = random.Random(seed)
    if halo is None:
        halo = 4
        for op in lowered.graph.real_operations():
            offset = op.attrs.get("offset")
            if offset is not None:
                halo = max(halo, abs(offset) + 2)
    index_arrays = {
        op.attrs["index_array"]
        for op in lowered.graph.real_operations()
        if "index_array" in op.attrs
    }
    state = LoopState()
    for array in lowered.arrays:
        store = ArrayStore(n, halo=halo)
        cells = store.cells()  # index -halo first, as the draws go
        if array in index_arrays:
            # Arrays used as indirect subscripts hold valid element
            # indices so gathers/scatters stay in bounds.
            cells[:] = [float(rng.randrange(max(1, n))) for _ in cells]
        else:
            cells[:] = [round(rng.uniform(-4.0, 4.0), 3) for _ in cells]
        state.arrays[array] = store
    for scalar in sorted(lowered.live_in_scalars):
        state.scalars[scalar] = round(rng.uniform(-4.0, 4.0), 3)
    return state
