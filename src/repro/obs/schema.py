"""The ``repro.obs.v2`` record schema and its validator.

A traced run is exported as JSON Lines: one self-describing record per
line, each carrying ``"format": "repro.obs.v2"`` and a ``"type"``:

``meta``
    Exactly one, first: ``{"format", "type", "run": {...}}`` — free-form
    run description (command, machine, jobs, ...).

``span``
    ``{"format", "type", "name", "span_id", "parent_id", "start",
    "dur", "pid", "tid", "attrs"}``.  ``parent_id`` is ``null`` for a
    root span; ``start`` is wall-clock epoch seconds (comparable across
    worker processes); ``dur`` is a monotonic-clock duration; ``tid`` is
    the span's *worker lane* — a stable small integer (0 for the
    coordinating process, 1..N for workers in sorted-pid order) that
    survives pid recycling across runs and gives trace viewers labeled,
    reproducible tracks.

``metric``
    ``{"format", "type", "kind", "name", "value"}`` with ``kind`` one
    of ``counter``/``gauge``/``histogram``; a histogram ``value`` is the
    summary dict ``{"count", "total", "min", "max"}``.

:func:`validate_records` is the single source of truth for the schema —
the test suite and the CI smoke step (via :mod:`repro.obs.check`) both
call it, so a schema drift fails fast in both places.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

#: The format marker every record carries.
FORMAT = "repro.obs.v2"

_SPAN_FIELDS = {
    "name": str,
    "span_id": int,
    "start": (int, float),
    "dur": (int, float),
    "pid": int,
    "tid": int,
    "attrs": dict,
}
_METRIC_KINDS = ("counter", "gauge", "histogram")
_HISTOGRAM_FIELDS = ("count", "total", "min", "max")


def worker_lanes(spans: Iterable[Dict[str, Any]]) -> Dict[int, int]:
    """Stable pid -> lane numbering for a snapshot's spans.

    Lane 0 is the coordinating process — the pid of the first root span
    (``parent_id`` is null) in stream order, which is the engine's own
    process for any traced corpus run.  Worker pids get lanes 1..N in
    ascending pid order.  The numbering depends only on the *set* of
    pids and the root span, so re-exporting the same snapshot always
    yields the same lanes.
    """
    pids: List[int] = []
    root_pid: Optional[int] = None
    for span in spans:
        pid = span.get("pid", 0)
        if pid not in pids:
            pids.append(pid)
        if root_pid is None and span.get("parent_id") is None:
            root_pid = pid
    if root_pid is None:
        root_pid = min(pids) if pids else 0
    lanes = {root_pid: 0}
    for pid in sorted(pids):
        if pid not in lanes:
            lanes[pid] = len(lanes)
    return lanes


def records_from_snapshot(
    snapshot: Dict[str, Any], run: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """Flatten an ``ObsContext.to_dict()`` snapshot into v2 records.

    The record list starts with the ``meta`` record, then every span (in
    the snapshot's order, each with its worker-lane ``tid``), then every
    metric (sorted by kind and name — the snapshot is already
    deterministic).
    """
    records: List[Dict[str, Any]] = [
        {"format": FORMAT, "type": "meta", "run": dict(run or {})}
    ]
    lanes = worker_lanes(snapshot.get("spans", ()))
    for span in snapshot.get("spans", ()):
        records.append(
            {
                "format": FORMAT,
                "type": "span",
                "tid": lanes.get(span.get("pid", 0), 0),
                **span,
            }
        )
    metrics = snapshot.get("metrics", {})
    for kind in _METRIC_KINDS:
        plural = kind + "s"
        for name, value in metrics.get(plural, {}).items():
            records.append(
                {
                    "format": FORMAT,
                    "type": "metric",
                    "kind": kind,
                    "name": name,
                    "value": value,
                }
            )
    return records


def validate_record(record: Any) -> List[str]:
    """Schema errors of one decoded record ([] means valid).

    Structural only — cross-record checks (parent resolution, meta
    placement) live in :func:`validate_records`.
    """
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    errors: List[str] = []
    if record.get("format") != FORMAT:
        errors.append(f"format is {record.get('format')!r}, not {FORMAT}")
    kind = record.get("type")
    if kind == "meta":
        if not isinstance(record.get("run"), dict):
            errors.append("meta record lacks a 'run' object")
    elif kind == "span":
        for name, expected in _SPAN_FIELDS.items():
            if not isinstance(record.get(name), expected):
                errors.append(f"span field {name!r} missing or mistyped")
        parent = record.get("parent_id")
        if parent is not None and not isinstance(parent, int):
            errors.append("span parent_id must be an int or null")
        if isinstance(record.get("dur"), (int, float)) and record["dur"] < 0:
            errors.append("span dur is negative")
    elif kind == "metric":
        if record.get("kind") not in _METRIC_KINDS:
            errors.append(f"unknown metric kind {record.get('kind')!r}")
        if not isinstance(record.get("name"), str):
            errors.append("metric field 'name' missing or mistyped")
        value = record.get("value")
        if record.get("kind") == "histogram":
            if not isinstance(value, dict) or not all(
                field in value for field in _HISTOGRAM_FIELDS
            ):
                errors.append(
                    "histogram value must be an object with "
                    + "/".join(_HISTOGRAM_FIELDS)
                )
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append("metric value must be a number")
    else:
        errors.append(f"unknown record type {kind!r}")
    return errors


def validate_records(records: Iterable[Any]) -> List[str]:
    """Schema errors across a whole record stream ([] means valid).

    Beyond per-record structure: the stream must be non-empty, start
    with exactly one ``meta`` record, use unique span ids, and every
    non-null ``parent_id`` must name a span in the stream.
    """
    errors: List[str] = []
    span_ids = set()
    parents: List[tuple] = []
    n = 0
    for index, record in enumerate(records):
        n += 1
        for problem in validate_record(record):
            errors.append(f"record {index}: {problem}")
        if not isinstance(record, dict):
            continue
        if (record.get("type") == "meta") != (index == 0):
            errors.append(
                f"record {index}: exactly one meta record, first, expected"
            )
        if record.get("type") == "span" and isinstance(
            record.get("span_id"), int
        ):
            if record["span_id"] in span_ids:
                errors.append(
                    f"record {index}: duplicate span_id {record['span_id']}"
                )
            span_ids.add(record["span_id"])
            if record.get("parent_id") is not None:
                parents.append((index, record["parent_id"]))
    if n == 0:
        errors.append("no records")
    for index, parent in parents:
        if parent not in span_ids:
            errors.append(
                f"record {index}: parent_id {parent} names no span"
            )
    return errors


def content_record_count(records: Iterable[Any]) -> int:
    """How many span/metric records the stream carries.

    A schema-valid export with zero content records (a bare ``meta``
    line) is almost always a bug in the producer — nothing was traced —
    so :mod:`repro.obs.check` treats it as a distinct failure mode.
    """
    return sum(
        1
        for record in records
        if isinstance(record, dict) and record.get("type") in ("span", "metric")
    )


def parse_jsonl(text: str):
    """Decode a JSONL document into ``(records, decode_errors)``."""
    records: List[Any] = []
    errors: List[str] = []
    lines = [line for line in text.splitlines() if line.strip()]
    for number, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            errors.append(f"line {number + 1}: not JSON ({exc})")
    return records, errors


def validate_jsonl(text: str) -> List[str]:
    """Validate a JSONL document (undecodable lines are schema errors)."""
    records, errors = parse_jsonl(text)
    return errors + validate_records(records)
