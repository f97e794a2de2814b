"""Fault-tolerant corpus execution: the engine's resilience substrate.

The corpus engine (:mod:`repro.analysis.engine`) must survive adversarial
loops, not just the curated corpus: one hung MinDist search, one crashed
worker or one truncated cache entry must never lose a 1327-loop run.
This module holds the policy pieces the reworked execution path composes:

* the **cooperative deadline** (re-exported from
  :mod:`repro.core.deadline`) that the in-worker watchdog threads through
  ``compute_mii`` and ``modulo_schedule``;
* the **failure taxonomy** — every terminal error is classified as
  :data:`TRANSIENT` (environmental: crashed or reaped workers, I/O),
  :data:`RESOURCE` (ran out of a budget: wall-clock deadline, memory) or
  :data:`DETERMINISTIC` (the algorithm itself rejects the loop: a
  zero-distance circuit, a verification mismatch).  Transient and
  resource failures are retried with exponential backoff on a fresh
  worker; deterministic ones are quarantined immediately — retrying a
  pure function on the same input is wasted work;
* the **retry policy** (:class:`RetryPolicy`) with its capped
  exponential backoff;
* the **degradation ladder** constants — when iterative modulo
  scheduling exhausts its budget or deadline the worker falls back,
  *recorded but never silent*, first to floor-budget IMS and then to the
  acyclic list scheduler with kernel-only codegen, so every feasible
  loop yields a verified schedule plus a ``degradation_level``;
* the **durable writer** (:func:`atomic_write`) behind every file the
  engine keeps — cache entries and ``quarantine.json``: the content
  reaches the disk before it takes the final name, so the cache is the
  run's checkpoint and a re-run after a crash or Ctrl-C evaluates only
  the loops that were never cached;
* the **quarantine file** — terminal failures serialized to
  ``quarantine.json`` with enough detail (attempted IIs, budget spent,
  taxonomy kind) to be actionable without re-running the corpus.

Everything here is deliberately free of process-pool mechanics; the
engine owns the execution path and consults these policies.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.core.deadline import Deadline, DeadlineExceeded, check_deadline

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "check_deadline",
    "TRANSIENT",
    "DETERMINISTIC",
    "RESOURCE",
    "classify_failure",
    "RetryPolicy",
    "DEGRADATION_LEVELS",
    "LEVEL_FULL",
    "LEVEL_RELAXED",
    "LEVEL_LIST_FALLBACK",
    "atomic_write",
    "write_quarantine",
    "load_quarantine",
    "QUARANTINE_FORMAT",
]


# ----------------------------------------------------------------------
# Failure taxonomy

#: Environmental failures (killed/reaped workers, broken pools, I/O):
#: nothing about the loop itself is known to be wrong, so retry.
TRANSIENT = "transient"

#: A budget ran out (wall-clock deadline, memory).  Retried — a loaded
#: machine can starve an innocent loop — but a repeat offender ends up
#: quarantined with kind ``resource`` rather than ``deterministic``.
RESOURCE = "resource"

#: The algorithm rejected the loop (infeasible graph, verification
#: mismatch, bad input).  Re-running a pure function on the same input
#: cannot help: quarantine immediately, never retry.
DETERMINISTIC = "deterministic"

#: Error types raised by the pool machinery rather than the loop.
_TRANSIENT_ERRORS = frozenset(
    {
        "WorkerCrash",
        "WorkerHang",
        "BrokenProcessPool",
        "BrokenExecutor",
        "CancelledError",
        "InjectedTransientError",
        "ConnectionError",
        "BrokenPipeError",
        "InterruptedError",
    }
)

#: Error types meaning a budget was exhausted.
_RESOURCE_ERRORS = frozenset(
    {
        "DeadlineExceeded",
        "TimeoutError",
        "MemoryError",
    }
)


def classify_failure(error_type: str) -> str:
    """Map an exception type name onto the retry taxonomy.

    Classification is by *name* because failures cross process
    boundaries as structured records, never as live exception objects
    (an exception type with a non-trivial ``__init__`` must not poison
    the pool on the way back).
    """
    if error_type in _TRANSIENT_ERRORS:
        return TRANSIENT
    if error_type in _RESOURCE_ERRORS:
        return RESOURCE
    return DETERMINISTIC


# ----------------------------------------------------------------------
# Retry policy


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient/resource failures.

    ``max_retries`` counts *re-executions* (0 disables retrying);
    attempt ``k`` (0-based) failing transiently waits
    ``min(backoff_base * 2**k, backoff_cap)`` seconds before the loop is
    resubmitted to a fresh worker.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 2.0

    def should_retry(self, kind: str, attempt: int) -> bool:
        """Whether attempt ``attempt`` (0-based) of kind ``kind`` retries."""
        if kind == DETERMINISTIC:
            return False
        return attempt < self.max_retries

    def delay(self, attempt: int) -> float:
        """Backoff before re-running a task that failed attempt ``attempt``."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_base * (2.0 ** attempt), self.backoff_cap)


# ----------------------------------------------------------------------
# Degradation ladder

#: Level 0: the paper's iterative modulo scheduler at the configured
#: budget ratio — the normal path.
LEVEL_FULL = 0

#: Level 1: IMS again, with the budget ratio relaxed to its floor (1.0):
#: each operation is scheduled ~once per candidate II, escalating II
#: quickly.  Produces a legal modulo schedule, usually at a worse II.
LEVEL_RELAXED = 1

#: Level 2: the acyclic list scheduler plus kernel-only codegen — no
#: software pipelining at all, but always a verified schedule.
LEVEL_LIST_FALLBACK = 2

#: Human-readable ladder rung names (report + quarantine rendering).
DEGRADATION_LEVELS = {
    LEVEL_FULL: "full-ims",
    LEVEL_RELAXED: "relaxed-ims",
    LEVEL_LIST_FALLBACK: "list-fallback",
}


# ----------------------------------------------------------------------
# Durable writes


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` so no crash leaves it half-written.

    The text goes to a temporary file in the same directory, which is
    flushed and fsynced before ``os.replace`` gives it the final name.
    A process death (kill -9, Ctrl-C, an OOM kill) therefore leaves
    either the old file or the whole new one; after an OS crash a rename
    that had not reached the disk leaves the old state, never a torn
    file under the new name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Quarantine

QUARANTINE_FORMAT = "repro.quarantine.v1"


def write_quarantine(
    path,
    machine_name: str,
    entries: Iterable[Dict[str, Any]],
) -> Path:
    """Atomically write ``quarantine.json`` (always, even when empty).

    ``entries`` are :meth:`repro.analysis.engine.LoopFailure.to_dict`
    records, each carrying the taxonomy ``kind``, the attempt count and
    the structured ``detail`` (attempted IIs, per-II budget spent) that
    makes the record actionable without re-running the corpus.
    """
    path = Path(path)
    document = {
        "format": QUARANTINE_FORMAT,
        "machine": machine_name,
        "entries": list(entries),
    }
    atomic_write(path, json.dumps(document, indent=2) + "\n")
    return path


def load_quarantine(path) -> List[Dict[str, Any]]:
    """Read a quarantine file's entries (raises on a foreign document)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != QUARANTINE_FORMAT:
        raise ValueError(f"not a quarantine file: {path}")
    return data.get("entries", [])
