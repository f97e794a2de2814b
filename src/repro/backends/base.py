"""The :class:`SchedulerBackend` protocol.

A scheduler backend turns one sealed dependence graph plus a machine
description into a :class:`~repro.core.schedule.Schedule` wrapped in the
:class:`~repro.core.scheduler.ModuloScheduleResult` metadata bundle —
the same result type :func:`repro.core.scheduler.modulo_schedule` has
always produced, so everything downstream (the evaluation engine, the
cache payloads, the benchmarks, the validator) consumes any backend's
output unchanged.

Backends are small classes registered by name
(:mod:`repro.backends.registry`); the engine, the CLI's ``--backend``
flag and the cache key all select them by that name.  Three ship with
the repo:

``ims``
    Rau's iterative modulo scheduler (the paper's algorithm), moved
    behind the protocol unchanged.
``list``
    The acyclic list scheduler — no software pipelining; its schedule
    is a legal modulo schedule at II = SL, which makes it both the
    degradation ladder's last rung and the exact backend's termination
    guarantee.
``exact``
    SAT-based exact modulo scheduling: probes II upward from MII, so
    the first satisfiable II is *proven* minimal
    (:mod:`repro.backends.exact`).

See ``docs/BACKENDS.md`` for the full protocol contract and the
conformance suite that enforces it (``tests/backends/``).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.deadline import Deadline
from repro.core.mii import MIIResult
from repro.core.scheduler import ModuloScheduleResult
from repro.core.stats import Counters
from repro.ir.graph import DependenceGraph

# Re-exported so backend implementations and tests import the attempt
# metadata from one place.
from repro.core.scheduler import AttemptRecord  # noqa: F401


class SchedulerBackend(abc.ABC):
    """One scheduling algorithm behind a uniform interface.

    Class attributes describe capabilities the conformance suite keys
    off: ``modulo`` distinguishes true modulo schedulers (II bounded by
    ``[MII, max_ii]``, ``schedule.modulo`` True) from acyclic ones, and
    ``proves_optimality`` marks backends whose results may carry
    ``optimal=True`` for II > MII.
    """

    #: Registered name (set by subclasses; used by the registry, the
    #: cache key, the CLI and every attempt record).
    name: str = ""
    #: Whether the backend emits modulo schedules (II < SL possible).
    modulo: bool = True
    #: Whether the backend can prove II minimality above the MII bound.
    proves_optimality: bool = False

    @abc.abstractmethod
    def schedule(
        self,
        graph: DependenceGraph,
        machine,
        budget_ratio: float = 6.0,
        *,
        mii_result: Optional[MIIResult] = None,
        counters: Optional[Counters] = None,
        obs=None,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> ModuloScheduleResult:
        """Schedule ``graph`` on ``machine``.

        ``budget_ratio`` is the paper's BudgetRatio for heuristic
        backends (the exact backend forwards it to its IMS upper-bound
        run); the II search runs up to
        :func:`repro.core.scheduler.default_max_ii`.  Implementations
        must return a fully populated :class:`ModuloScheduleResult`
        whose ``backend`` field equals :attr:`name` and whose
        ``attempt_records`` tag every candidate II tried; they raise
        :class:`~repro.core.scheduler.SchedulingFailure` (its
        ``records`` tag the IIs that failed) when no schedule exists
        and let :class:`~repro.core.deadline.DeadlineExceeded`
        propagate — the engine's degradation ladder handles both
        uniformly for every backend.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
