"""Name-based registry of scheduler backends.

Backends self-register at import time via the :func:`register`
decorator (the same pattern the lint passes use); consumers resolve
them with :func:`get_backend` and enumerate them with
:func:`backend_names` — which is what the CLI's ``--backend`` choices,
the engine's validation and the conformance suite's parametrization all
call, so a newly registered backend is automatically picked up by every
layer, tests included.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.backends.base import SchedulerBackend

_REGISTRY: Dict[str, Type[SchedulerBackend]] = {}


def register(cls: Type[SchedulerBackend]) -> Type[SchedulerBackend]:
    """Class decorator: register a backend under its ``name``."""
    if not cls.name:
        raise ValueError(f"backend class {cls.__name__} has no name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"backend {cls.name!r} registered twice")
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> List[str]:
    """All registered backend names, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_backend(name: str, **options) -> SchedulerBackend:
    """Instantiate the backend registered under ``name``.

    ``options`` are forwarded to the backend's constructor (e.g. the
    exact backend's ``max_conflicts=``).  Raises
    :class:`ValueError` for an unknown name — the engine and the CLI
    surface that as a clean configuration error.
    """
    _ensure_loaded()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler backend {name!r}; "
            f"choose from {', '.join(sorted(_REGISTRY))}"
        ) from None
    return cls(**options)


def _ensure_loaded() -> None:
    """Import the built-in backend modules (idempotent)."""
    from repro.backends import exact, ims, listsched  # noqa: F401
