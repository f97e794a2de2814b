"""Pluggable scheduler backends.

One protocol (:class:`SchedulerBackend`), a name-based registry, and
three implementations: ``ims`` (the paper's algorithm), ``list`` (the
acyclic baseline) and ``exact`` (SAT-based, proves II minimality).
See ``docs/BACKENDS.md``.
"""

from repro.backends.base import AttemptRecord, SchedulerBackend
from repro.backends.registry import backend_names, get_backend, register

__all__ = [
    "AttemptRecord",
    "SchedulerBackend",
    "backend_names",
    "get_backend",
    "register",
]
