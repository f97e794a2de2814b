"""Structured diagnostics: stable codes, severities, locations, renderers.

Every checker and lint pass in :mod:`repro.check` reports its findings as
:class:`Diagnostic` records collected in a :class:`Diagnostics` set.  Codes
are *stable identifiers* (``SCHED005``, ``MACH002``, …): tests, waivers and
CI gates key on them, so a code is never renumbered or reused — the
negative-path regression suite (one corrupted fixture per code, see
``tests/check/mutate.py``) pins each one in place.

Two renderers are provided: a human one (one finding per line, grouped by
severity rank) and a JSON document under the ``repro.check.v1`` format,
which the CI ``static-check`` job uploads as an artifact.

Findings from machine-description lints can be *waived* with an inline
source comment::

    resources = ("alu", "spare_bus")  # lint: waive(MACH001)

:func:`waivers_in_source` extracts the waived codes from an object's
source text and :func:`apply_waivers` downgrades matching findings to
``LINT000`` info records, keeping the waiver visible in reports.
"""

from __future__ import annotations

import enum
import inspect
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

#: Format tag of the JSON diagnostics document.
JSON_FORMAT = "repro.check.v1"


class Severity(enum.Enum):
    """How bad a finding is.  Only ``ERROR`` fails a check run."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: The stable code registry: code -> (default severity, summary).
#: Codes are never renumbered or reused; new findings get new codes.
CODES: Dict[str, Tuple[Severity, str]] = {
    # -- schedule validator (repro.check.validate) ---------------------
    "SCHED001": (Severity.ERROR, "invalid initiation interval"),
    "SCHED002": (Severity.ERROR, "operation missing from schedule"),
    "SCHED003": (Severity.ERROR, "START not scheduled at cycle 0"),
    "SCHED004": (Severity.ERROR, "operation scheduled at negative time"),
    "SCHED005": (Severity.ERROR, "dependence-edge inequality violated"),
    "SCHED006": (Severity.ERROR, "pseudo-operation holds resources"),
    "SCHED007": (Severity.ERROR, "operation lacks a reservation alternative"),
    "SCHED008": (Severity.ERROR, "alternative foreign to the operation's opcode"),
    "SCHED009": (Severity.ERROR, "modulo reservation conflict"),
    "SCHED010": (Severity.ERROR, "linear reservation conflict"),
    # -- codegen cross-checks (repro.check.codegen) --------------------
    "CODE001": (Severity.ERROR, "MVE unroll factor below lifetime requirement"),
    "CODE002": (Severity.ERROR, "kernel row placement inconsistent with schedule"),
    "CODE003": (Severity.ERROR, "rotating live range overwritten before last use"),
    "CODE004": (Severity.ERROR, "rotating register blocks overlap"),
    "CODE005": (Severity.ERROR, "prologue/epilogue instance counts inconsistent"),
    "CODE006": (Severity.ERROR, "prologue/epilogue row contents inconsistent"),
    # -- dependence-graph lints (repro.check.lint) ---------------------
    "GRAPH001": (Severity.ERROR, "START/STOP bracketing invariant broken"),
    "GRAPH002": (Severity.WARNING, "edge delay deviates from Table 1"),
    "GRAPH003": (Severity.ERROR, "zero-distance dependence circuit"),
    "GRAPH004": (Severity.ERROR, "dangling virtual register"),
    "GRAPH005": (Severity.ERROR, "DSA single-assignment violation"),
    # -- machine-description lints -------------------------------------
    "MACH001": (Severity.WARNING, "dead resource never referenced"),
    "MACH002": (Severity.WARNING, "alternative dominated by an earlier one"),
    "MACH003": (Severity.WARNING, "resource held at or beyond opcode latency"),
    "MACH004": (Severity.WARNING, "non-positive opcode latency"),
    # -- MinDist-matrix invariants -------------------------------------
    "MIND001": (Severity.ERROR, "MinDist matrix not transitively closed"),
    "MIND002": (Severity.ERROR, "MinDist feasibility disagrees with RecMII"),
    # -- simulator oracle (repro.simulator.check) ----------------------
    "SIM001": (Severity.ERROR, "final state mismatch vs sequential oracle"),
    "SIM002": (Severity.ERROR, "dynamic dependence violation"),
    # -- bookkeeping ----------------------------------------------------
    "LINT000": (Severity.INFO, "finding waived by inline directive"),
}


@dataclass(frozen=True)
class SourceLocation:
    """Where a finding points: a unit (loop/machine) and an object in it."""

    unit: str
    obj: Optional[str] = None

    def describe(self) -> str:
        """``unit`` or ``unit / obj``."""
        return self.unit if self.obj is None else f"{self.unit} / {self.obj}"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, severity, message and location."""

    code: str
    severity: Severity
    message: str
    location: Optional[SourceLocation] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human rendering: ``error SCHED005 [where]: message``."""
        where = f" [{self.location.describe()}]" if self.location else ""
        return f"{self.severity.value} {self.code}{where}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible record (``repro.check.v1`` diagnostics entry)."""
        record: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.location is not None:
            record["unit"] = self.location.unit
            if self.location.obj is not None:
                record["obj"] = self.location.obj
        if self.detail:
            record["detail"] = dict(self.detail)
        return record


class Diagnostics:
    """An ordered collection of findings with severity queries."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._diagnostics: List[Diagnostic] = list(diagnostics)

    def add(
        self,
        code: str,
        message: str,
        *,
        unit: Optional[str] = None,
        obj: Optional[str] = None,
        severity: Optional[Severity] = None,
        **detail: Any,
    ) -> Diagnostic:
        """Record one finding under a registered code.

        The severity defaults to the code's registry entry; passing
        ``severity`` explicitly upgrades/downgrades a single finding
        (e.g. ``GRAPH002`` is a warning for over-conservative delays but
        an error for delays below the hardware minimum).
        """
        try:
            default_severity, _ = CODES[code]
        except KeyError:
            raise ValueError(f"unregistered diagnostic code {code!r}") from None
        location = None if unit is None else SourceLocation(unit, obj)
        diagnostic = Diagnostic(
            code=code,
            severity=severity if severity is not None else default_severity,
            message=message,
            location=location,
            detail=detail,
        )
        self._diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "Diagnostics") -> None:
        """Append every finding of ``other``."""
        self._diagnostics.extend(other)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        """Findings at ``ERROR`` severity."""
        return [d for d in self._diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Findings at ``WARNING`` severity."""
        return [d for d in self._diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no finding is an error (warnings/info allowed)."""
        return not self.errors

    def codes(self) -> List[str]:
        """The distinct codes present, in first-appearance order."""
        seen: List[str] = []
        for diagnostic in self._diagnostics:
            if diagnostic.code not in seen:
                seen.append(diagnostic.code)
        return seen

    def render(self, limit: Optional[int] = None) -> str:
        """Human rendering; see :func:`render_human`."""
        return render_human(self, limit=limit)

    def to_dict(self, **meta: Any) -> Dict[str, Any]:
        """The ``repro.check.v1`` JSON document for these findings."""
        counts = {"error": 0, "warning": 0, "info": 0}
        for diagnostic in self._diagnostics:
            counts[diagnostic.severity.value] += 1
        document: Dict[str, Any] = {
            "format": JSON_FORMAT,
            "counts": counts,
            "diagnostics": [d.to_dict() for d in self._diagnostics],
        }
        document.update(meta)
        return document

    def to_json(self, indent: Optional[int] = None, **meta: Any) -> str:
        """Serialize :meth:`to_dict` to JSON text."""
        return json.dumps(self.to_dict(**meta), indent=indent, sort_keys=True)


def render_human(diagnostics: Diagnostics, limit: Optional[int] = None) -> str:
    """Render findings one per line, errors first, with a summary head."""
    ordered = sorted(diagnostics, key=lambda d: d.severity.rank)
    n_errors = len(diagnostics.errors)
    n_warnings = len(diagnostics.warnings)
    if not ordered:
        return "check: clean (no findings)"
    head = (
        f"check: {n_errors} error(s), {n_warnings} warning(s), "
        f"{len(ordered) - n_errors - n_warnings} note(s)"
    )
    shown = ordered if limit is None else ordered[:limit]
    lines = [head] + ["  " + d.describe() for d in shown]
    if limit is not None and len(ordered) > limit:
        lines.append(f"  ... {len(ordered) - limit} more")
    return "\n".join(lines)


#: ``# lint: waive(MACH001)`` or ``# lint: waive(MACH001, MACH003)``.
_WAIVE_RE = re.compile(r"#\s*lint:\s*waive\(\s*([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\s*\)")


def parse_waivers(text: str) -> frozenset:
    """Codes waived by ``# lint: waive(...)`` comments in ``text``."""
    codes = set()
    for match in _WAIVE_RE.finditer(text):
        for code in match.group(1).split(","):
            codes.add(code.strip())
    return frozenset(codes)


def waivers_in_source(obj: Any) -> frozenset:
    """Waived codes found in the source of a module/function/class.

    Objects whose source is unavailable (builtins, REPL definitions)
    waive nothing.
    """
    try:
        text = inspect.getsource(obj)
    except (OSError, TypeError):
        return frozenset()
    return parse_waivers(text)


def apply_waivers(diagnostics: Diagnostics, waivers: Iterable[str]) -> Diagnostics:
    """Downgrade waived findings to ``LINT000`` info records.

    The waived finding stays visible (its original code and message move
    into the ``LINT000`` record's detail) but no longer counts as an
    error or warning, so a waiver is auditable rather than silent.
    """
    waived_codes = frozenset(waivers)
    result = Diagnostics()
    for diagnostic in diagnostics:
        if diagnostic.code in waived_codes:
            result.add(
                "LINT000",
                f"waived {diagnostic.code}: {diagnostic.message}",
                unit=diagnostic.location.unit if diagnostic.location else None,
                obj=diagnostic.location.obj if diagnostic.location else None,
                waived_code=diagnostic.code,
            )
        else:
            result._diagnostics.append(diagnostic)
    return result
