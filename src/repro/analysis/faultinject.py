"""Deterministic fault injection for the corpus engine's resilience suite.

Every mechanism in :mod:`repro.analysis.resilience` — the in-worker
watchdog, the pool-side reaper, crash-isolated retries, cache-corruption
recovery, the quarantine — is proved end-to-end by injecting faults into
an otherwise-clean corpus run and asserting nothing is lost.  Faults are
keyed by *corpus loop index* and *attempt number*, so a run is exactly
reproducible: the same spec against the same corpus fires the same
faults at the same points, every time (no randomness, no clocks).

Spec grammar (``REPRO_FAULT_INJECT`` or an explicit :class:`FaultPlan`)::

    spec      := directive (";" directive)*
    directive := kind "@" index [":" arg] ["!"]

* ``crash@3``       — the worker evaluating loop 3 dies with ``os._exit``
  (indistinguishable from a SIGKILL / OOM kill: the pool breaks);
* ``hang@5:60``     — the worker wedges for 60s (default 300) with
  SIGALRM ignored, i.e. a hang even the in-worker watchdog cannot see —
  only the pool-side reaper can recover it.  Under ``jobs=1`` there is
  no pool to reap, so the hang degrades to a deadline-bounded stall;
* ``slow@7:0.5``    — the loop stalls 0.5s (default 0.25) cooperatively:
  the in-worker deadline (SIGALRM + ``Deadline`` checks) catches it when
  it overruns ``--loop-timeout``;
* ``raise@4:ValueError`` — the evaluation raises the named exception
  (``transient`` and ``exotic`` select the injector's own types below);
* ``corrupt@2``     — the *engine* truncates loop 2's cache entry right
  after the evaluating process wrote it, so the next run exercises the
  corrupt-cache path.

A directive fires on attempt 0 only — the fault is *transient* and a
retry on a fresh worker succeeds, which is what lets the resilience
suite assert bit-identical results versus a clean run.  A trailing ``!``
makes it fire on **every** attempt (a *persistent* fault), driving the
retry budget to exhaustion and the loop into quarantine.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.deadline import Deadline, DeadlineExceeded

#: Environment variable consulted by the engine when no explicit plan is
#: passed.  Empty/unset means no injection (the production default).
FAULT_ENV = "REPRO_FAULT_INJECT"

#: Exit status of an injected worker crash (visible in pool diagnostics).
CRASH_EXIT_STATUS = 66

_KINDS = ("crash", "hang", "slow", "raise", "corrupt")


class FaultSpecError(ValueError):
    """The fault-injection spec does not follow the grammar."""


class InjectedTransientError(RuntimeError):
    """An injected failure classified as transient (retried away)."""


class ExoticError(Exception):
    """An exception the pool could never pickle back whole.

    Its mandatory multi-argument ``__init__`` and unpicklable baggage
    model third-party exception types; the worker must reduce it to a
    structured string record instead of letting it poison the pool.
    """

    def __init__(self, code: int, context: Dict[str, object]) -> None:
        super().__init__(f"exotic failure code={code}")
        self.code = code
        self.context = context

    def __reduce__(self):
        raise TypeError("ExoticError deliberately refuses to pickle")


#: Exception types selectable by ``raise@i:<name>``.
RAISABLE = {
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
    "MemoryError": MemoryError,
    "transient": InjectedTransientError,
    "exotic": None,  # constructed specially (mandatory arguments)
}


@dataclass(frozen=True)
class FaultDirective:
    """One parsed ``kind@index[:arg][!]`` directive."""

    kind: str
    index: int
    arg: str = ""
    persistent: bool = False

    def fires(self, attempt: int) -> bool:
        """Whether this directive applies to attempt ``attempt`` (0-based)."""
        return self.persistent or attempt == 0

    def spec(self) -> str:
        """Canonical textual form (round-trips through the parser)."""
        text = f"{self.kind}@{self.index}"
        if self.arg:
            text += f":{self.arg}"
        if self.persistent:
            text += "!"
        return text


def parse_fault_spec(text: Optional[str]) -> "FaultPlan":
    """Parse a spec string into a :class:`FaultPlan` (empty for blank)."""
    directives = []
    for chunk in (text or "").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        persistent = chunk.endswith("!")
        if persistent:
            chunk = chunk[:-1]
        if "@" not in chunk:
            raise FaultSpecError(
                f"bad fault directive {chunk!r}: expected kind@index[:arg]"
            )
        kind, _, rest = chunk.partition("@")
        kind = kind.strip()
        if kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} (choose from {', '.join(_KINDS)})"
            )
        index_text, _, arg = rest.partition(":")
        try:
            index = int(index_text)
        except ValueError:
            raise FaultSpecError(
                f"bad loop index {index_text!r} in fault directive {chunk!r}"
            ) from None
        if kind == "raise" and arg and arg not in RAISABLE:
            raise FaultSpecError(
                f"unknown exception {arg!r} in {chunk!r} "
                f"(choose from {', '.join(sorted(RAISABLE))})"
            )
        directives.append(
            FaultDirective(
                kind=kind, index=index, arg=arg.strip(), persistent=persistent
            )
        )
    return FaultPlan(tuple(directives))


@dataclass(frozen=True)
class FaultPlan:
    """The full set of directives for one engine run (picklable)."""

    directives: Tuple[FaultDirective, ...] = ()

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan named by :data:`FAULT_ENV` (empty when unset)."""
        environ = os.environ if environ is None else environ
        return parse_fault_spec(environ.get(FAULT_ENV))

    def __bool__(self) -> bool:
        return bool(self.directives)

    def for_loop(self, index: int) -> Tuple[FaultDirective, ...]:
        """Worker-side directives for one corpus loop (corrupt excluded:
        the engine truncates the entry once the worker has written it)."""
        return tuple(
            d
            for d in self.directives
            if d.index == index and d.kind != "corrupt"
        )

    def corrupts_cache(self, index: int) -> bool:
        """Whether loop ``index``'s cache entry should be truncated."""
        return any(
            d.kind == "corrupt" and d.index == index for d in self.directives
        )

    def spec(self) -> str:
        """Canonical spec string for the whole plan."""
        return ";".join(d.spec() for d in self.directives)


#: The empty plan (no directives; every query is a fast no).
NULL_PLAN = FaultPlan()


def apply_worker_faults(
    directives: Tuple[FaultDirective, ...],
    attempt: int,
    deadline: Optional[Deadline] = None,
    in_pool: bool = True,
) -> None:
    """Fire the directives that apply to this attempt, in spec order.

    Called by the corpus worker at the top of a loop evaluation.  In a
    pool worker a ``crash`` really exits the process and a ``hang``
    really wedges it; in-process (``jobs=1``) both degrade to their
    recoverable analogues (a transient exception, a deadline-bounded
    stall) because killing or wedging the caller would take the whole
    run down — the thing the injection exists to prove cannot happen.
    """
    for directive in directives:
        if not directive.fires(attempt):
            continue
        if directive.kind == "crash":
            if in_pool:
                os._exit(CRASH_EXIT_STATUS)
            raise InjectedTransientError(
                f"injected crash (in-process analogue): {directive.spec()}"
            )
        elif directive.kind == "hang":
            seconds = float(directive.arg) if directive.arg else 300.0
            if in_pool and hasattr(signal, "SIGALRM"):
                # A true wedge: even the SIGALRM watchdog is ignored, so
                # only the pool-side reaper can recover this worker.
                signal.signal(signal.SIGALRM, signal.SIG_IGN)
                time.sleep(seconds)
                raise InjectedTransientError(
                    f"injected hang outlived its sleep: {directive.spec()}"
                )
            _cooperative_stall(seconds, deadline, directive)
        elif directive.kind == "slow":
            seconds = float(directive.arg) if directive.arg else 0.25
            _cooperative_stall(seconds, deadline, directive)
        elif directive.kind == "raise":
            name = directive.arg or "RuntimeError"
            if name == "exotic":
                raise ExoticError(
                    code=13, context={"directive": directive.spec()}
                )
            raise RAISABLE[name](f"injected failure: {directive.spec()}")


def _cooperative_stall(
    seconds: float,
    deadline: Optional[Deadline],
    directive: FaultDirective,
) -> None:
    """Sleep ``seconds`` in small slices, honouring the deadline."""
    end = time.monotonic() + seconds
    while True:
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        if deadline is not None and deadline.expired:
            raise DeadlineExceeded(
                f"injected stall overran the loop deadline: "
                f"{directive.spec()}"
            )
        time.sleep(min(0.02, remaining))
