"""Machine descriptions: the resource set and opcode repertoire.

A :class:`MachineDescription` is the scheduler's entire view of the target
processor: which resources exist (pipeline stages, buses, issue slots) and,
for every opcode, its latency and reservation-table alternatives.  It also
serves as the *latency provider* for dependence graphs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.machine.opcodes import Opcode
from repro.machine.resources import (
    CompiledAlternative,
    ReservationTable,
    TableKind,
    compile_alternative,
)


class MachineError(KeyError):
    """Raised for unknown opcodes or malformed machine descriptions."""


class CompiledMaskSet:
    """Every opcode alternative of one machine, mask-compiled at one II.

    Resources take their bit rows from the machine's declaration order,
    so masks are stable across processes and machine instances with the
    same content.  Alternatives that fold onto themselves at this II are
    rejected here, once — ``feasible()`` is what the scheduler's
    per-attempt setup consumes instead of re-probing every alternative.
    """

    def __init__(self, machine: "MachineDescription", ii: int) -> None:
        self.ii = ii
        self.row_names: Tuple[str, ...] = machine.resources
        self.rows: Dict[str, int] = {
            name: row for row, name in enumerate(self.row_names)
        }
        self._all: Dict[str, Tuple[CompiledAlternative, ...]] = {}
        self._feasible: Dict[str, Tuple[CompiledAlternative, ...]] = {}
        for opcode in machine.opcode_names:
            compiled = tuple(
                compile_alternative(alt, self.rows, ii)
                for alt in machine.opcode(opcode).alternatives
            )
            self._all[opcode] = compiled
            self._feasible[opcode] = tuple(
                alt for alt in compiled if not alt.self_conflicting
            )

    def alternatives(self, opcode: str) -> Tuple[CompiledAlternative, ...]:
        """Every compiled alternative of ``opcode``, in declaration order."""
        return self._all[opcode]

    def feasible(self, opcode: str) -> Tuple[CompiledAlternative, ...]:
        """The alternatives of ``opcode`` placeable at this II."""
        return self._feasible[opcode]


#: Process-wide compiled-mask cache, content-addressed like the corpus
#: engine's result cache: the key is (sha256 of the serialized machine,
#: II), so equal machines built in different places share one compile.
_MASK_SET_CACHE: Dict[Tuple[str, int], CompiledMaskSet] = {}
_MASK_SET_CACHE_LIMIT = 1024


class MachineDescription:
    """An immutable machine model.

    Parameters
    ----------
    name:
        Model name used in reports.
    resources:
        All resource names.  Every reservation table of every opcode must
        reference only these.
    opcodes:
        The opcode repertoire.
    """

    def __init__(
        self, name: str, resources: Iterable[str], opcodes: Iterable[Opcode]
    ) -> None:
        self.name = name
        self._resources: Tuple[str, ...] = tuple(resources)
        if len(set(self._resources)) != len(self._resources):
            raise MachineError(f"machine {name!r} has duplicate resources")
        self._opcodes: Dict[str, Opcode] = {}
        resource_set = set(self._resources)
        for opcode in opcodes:
            if opcode.name in self._opcodes:
                raise MachineError(
                    f"machine {name!r} defines opcode {opcode.name!r} twice"
                )
            for alt in opcode.alternatives:
                missing = set(alt.resources) - resource_set
                if missing:
                    raise MachineError(
                        f"opcode {opcode.name!r} alternative {alt.name!r} uses "
                        f"unknown resources {sorted(missing)}"
                    )
            self._opcodes[opcode.name] = opcode
        self._content_key: Optional[str] = None

    # ------------------------------------------------------------------

    @property
    def content_key(self) -> str:
        """SHA-256 of the canonical serialized machine (lazy, memoized)."""
        if self._content_key is None:
            from repro.machine.serialize import machine_to_dict

            text = json.dumps(
                machine_to_dict(self), sort_keys=True, separators=(",", ":")
            )
            self._content_key = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
        return self._content_key

    def compiled_masks(self, ii: int) -> CompiledMaskSet:
        """The bitmask compilation of every opcode alternative at ``ii``.

        Compilation happens at most once per (machine content, II) per
        process; repeated scheduler attempts, corpus loops, and even
        distinct-but-equal machine instances all share the result.  The
        machine itself holds no compiled masks, so its pickle (which
        every engine task carries to a worker) stays the same size
        whatever IIs were compiled.
        """
        key = (self.content_key, ii)
        shared = _MASK_SET_CACHE.get(key)
        if shared is None:
            while len(_MASK_SET_CACHE) >= _MASK_SET_CACHE_LIMIT:
                _MASK_SET_CACHE.pop(next(iter(_MASK_SET_CACHE)))
            shared = _MASK_SET_CACHE[key] = CompiledMaskSet(self, ii)
        return shared

    # ------------------------------------------------------------------

    @property
    def resources(self) -> Tuple[str, ...]:
        """All resource names, in declaration order."""
        return self._resources

    @property
    def opcode_names(self) -> Tuple[str, ...]:
        """Sorted names of every opcode in the repertoire."""
        return tuple(sorted(self._opcodes))

    def has_opcode(self, name: str) -> bool:
        """Whether the machine defines opcode ``name``."""
        return name in self._opcodes

    def opcode(self, name: str) -> Opcode:
        """Look up an opcode; raises :class:`MachineError` if unknown."""
        try:
            return self._opcodes[name]
        except KeyError:
            raise MachineError(
                f"machine {self.name!r} has no opcode {name!r}"
            ) from None

    def latency(self, name: str) -> int:
        """Latency of an opcode (latency-provider protocol for graphs)."""
        return self.opcode(name).latency

    def alternatives(self, name: str) -> Tuple[ReservationTable, ...]:
        """The reservation-table alternatives of opcode ``name``."""
        return self.opcode(name).alternatives

    def table_kind_census(self) -> Dict[TableKind, int]:
        """Count reservation tables of each kind across the repertoire."""
        census = {kind: 0 for kind in TableKind}
        for opcode in self._opcodes.values():
            for alt in opcode.alternatives:
                census[alt.kind] += 1
        return census

    def describe(self) -> str:
        """Multi-line summary in the spirit of Table 2 of the paper."""
        lines = [f"Machine {self.name!r}"]
        lines.append(f"  resources: {', '.join(self._resources)}")
        for name in sorted(self._opcodes):
            opcode = self._opcodes[name]
            alts = ", ".join(a.name for a in opcode.alternatives)
            lines.append(
                f"  {name}: latency={opcode.latency}, alternatives=[{alts}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MachineDescription({self.name!r}, {len(self._resources)} "
            f"resources, {len(self._opcodes)} opcodes)"
        )
