"""Unified observability: spans, metrics, exporters, and the observatory.

See ``docs/OBSERVABILITY.md`` for the span model, metric names, the
``repro.obs.v2`` record schema, and the observatory workflow.

* :class:`repro.obs.context.ObsContext` — one run's collector: nested
  ``span()``s plus a counter/gauge/histogram registry, with views over
  the older :class:`~repro.core.trace.PhaseTimer` and
  :class:`~repro.core.stats.Counters` fragments;
* :data:`repro.obs.context.NULL_OBS` — the no-op context every
  instrumented call site defaults to (``obs = obs or NULL_OBS``);
* :mod:`repro.obs.exporters` — JSONL and Chrome-trace writers (labeled
  worker lanes);
* :mod:`repro.obs.schema` — the ``repro.obs.v2`` record schema and its
  validator (also run by CI via ``python -m repro.obs.check``);
* :mod:`repro.obs.store` — the SQLite run store the exports ingest
  into (:class:`~repro.obs.store.RunStore`);
* :mod:`repro.obs.analyze` — phase profiles, top-loop attribution,
  run-to-run diffs and baseline budgets over the store;
* :mod:`repro.obs.flame` — collapsed-stack flamegraph export;
* :mod:`repro.obs.profile` — the opt-in sampling profiler
  (``--profile``) for engine workers;
* :mod:`repro.obs.cli` — the ``repro obs`` command family.
"""

from repro.obs.context import (
    Histogram,
    MetricsRegistry,
    NULL_OBS,
    NullObsContext,
    ObsContext,
    Span,
)
from repro.obs.exporters import (
    FORMATS,
    lane_label,
    to_chrome_trace,
    write_chrome_trace,
    write_export,
    write_jsonl,
)
from repro.obs.schema import (
    FORMAT,
    content_record_count,
    parse_jsonl,
    records_from_snapshot,
    validate_jsonl,
    validate_record,
    validate_records,
    worker_lanes,
)

__all__ = [
    "FORMAT",
    "FORMATS",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NullObsContext",
    "ObsContext",
    "Span",
    "content_record_count",
    "lane_label",
    "parse_jsonl",
    "records_from_snapshot",
    "to_chrome_trace",
    "validate_jsonl",
    "validate_record",
    "validate_records",
    "worker_lanes",
    "write_chrome_trace",
    "write_export",
    "write_jsonl",
]
