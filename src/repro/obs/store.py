"""The scheduling observatory's persistent run store (SQLite).

A ``repro.obs.v2`` export (:mod:`repro.obs.schema`) describes one run
completely — every span, every metric — but on its own it is
write-only: you can validate it, not aggregate two runs, diff them, or
ask "which loops got slower".  :class:`RunStore` ingests exports (and
``BENCH_*.json`` trajectories) into one normalized SQLite database so
those questions become queries:

``runs``
    One row per ingested run.  The ``run_id`` is content-addressed — the
    SHA-256 of the canonical record stream — so ingesting the same
    export twice is a no-op (dedupe by construction), while two *runs*
    of the same corpus (whose span clocks differ) are distinct rows.
    The row keeps the ``meta`` record's run description and what the
    span tree says about the whole run: span and loop counts, and the
    wall seconds of its root spans.

``spans``
    Every span, with its **self time** precomputed at ingest: the
    span's duration minus the summed durations of its direct children —
    the quantity flamegraphs and per-phase attribution are built on.
    Each span also resolves its *owning loop* (the nearest ancestor
    ``loop`` span's name) so per-loop attribution needs no tree walks
    at query time.

``metrics``
    The deterministic counter/gauge/histogram registry, one row per
    metric (histogram summaries stored as JSON).  Run-level tallies —
    cache hits and misses, ``engine.failures``, the ``resilience.*``
    counters — are read from here, never copied into ``runs``.

``loops``
    One row per corpus loop, folded out of the span tree at ingest.
    The engine's ``loop`` span gives the outcome, II, degradation and
    failure kind and phase; its direct children the per-phase seconds;
    its ``schedule`` and ``schedule.attempt`` descendants the MII,
    attempt count and displacement/forcing tallies; the ``cache.load``
    span whether the loop was a cache hit.

``profile_samples``
    Collapsed call stacks from the sampling profiler
    (:mod:`repro.obs.profile`), when the run was profiled.

``bench_runs``
    ``BENCH_*.json`` trajectory entries (one row per benchmark run),
    keyed by (bench, unix_time) so re-ingesting a trajectory file only
    adds the new tail.

The derived views — phase profiles with p50/p95/p99, top-N loop
attribution, statistical run-to-run diffs — live in
:mod:`repro.obs.analyze`; the flamegraph exporter in
:mod:`repro.obs.flame`; the CLI family (``repro obs ingest|report|
diff|top|flame``) in :mod:`repro.obs.cli`.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.schema import (
    parse_jsonl,
    records_from_snapshot,
    validate_records,
)

_SCHEMA_VERSION = 3  # v3: loop rows lost the resumed column

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    seq         INTEGER NOT NULL,
    source      TEXT,
    format      TEXT,
    run_json    TEXT NOT NULL DEFAULT '{}',
    n_spans     INTEGER NOT NULL DEFAULT 0,
    n_loops     INTEGER NOT NULL DEFAULT 0,
    wall_seconds REAL
);
CREATE TABLE IF NOT EXISTS spans (
    run_id    TEXT NOT NULL,
    span_id   INTEGER NOT NULL,
    parent_id INTEGER,
    name      TEXT NOT NULL,
    start     REAL NOT NULL,
    dur       REAL NOT NULL,
    self_dur  REAL NOT NULL,
    pid       INTEGER NOT NULL,
    tid       INTEGER NOT NULL,
    loop      TEXT,
    attrs_json TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, span_id)
);
CREATE INDEX IF NOT EXISTS spans_by_name ON spans (run_id, name);
CREATE TABLE IF NOT EXISTS metrics (
    run_id    TEXT NOT NULL,
    kind      TEXT NOT NULL,
    name      TEXT NOT NULL,
    value     REAL,
    value_json TEXT,
    PRIMARY KEY (run_id, kind, name)
);
CREATE TABLE IF NOT EXISTS loops (
    run_id    TEXT NOT NULL,
    idx       INTEGER NOT NULL,
    name      TEXT,
    cache_hit INTEGER NOT NULL,
    ok        INTEGER NOT NULL,
    wall      REAL NOT NULL,
    seconds_json TEXT NOT NULL,
    ii        INTEGER,
    mii       INTEGER,
    attempts  INTEGER,
    displaced INTEGER NOT NULL,
    forced    INTEGER NOT NULL,
    degraded  TEXT,
    failure_kind TEXT,
    failure_phase TEXT,
    PRIMARY KEY (run_id, idx)
);
CREATE TABLE IF NOT EXISTS profile_samples (
    run_id TEXT NOT NULL,
    stack  TEXT NOT NULL,
    count  INTEGER NOT NULL,
    PRIMARY KEY (run_id, stack)
);
CREATE TABLE IF NOT EXISTS bench_runs (
    bench     TEXT NOT NULL,
    unix_time REAL NOT NULL,
    source    TEXT,
    payload_json TEXT NOT NULL,
    PRIMARY KEY (bench, unix_time)
);
"""

#: The spans the engine opens per corpus loop, each labelled with the
#: loop's ``index``: its evaluation and its cache probe.
_LOOP_SPANS = ("loop", "cache.load")

#: ``loop`` span attribute -> ``loops`` column.
_LOOP_ATTRS = (
    ("ok", "ok"),
    ("ii", "ii"),
    ("degraded", "degraded"),
    ("kind", "failure_kind"),
    ("failed_phase", "failure_phase"),
)


def run_id_for_records(records: Sequence[Any]) -> str:
    """Content-addressed run id: SHA-256 of the canonical record stream.

    Stable across processes and re-serialization (sorted keys, compact
    separators), so the same export always lands on the same id and the
    store dedupes it; any semantic difference — a span's clock included —
    yields a new id.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(
            json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _enclosing_loop(
    span: Dict[str, Any], by_id: Dict[int, Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """The nearest ``loop`` span at or above ``span`` (cycle-safe)."""
    node: Optional[Dict[str, Any]] = span
    seen = set()
    while node is not None and node["span_id"] not in seen:
        if node["name"] == "loop":
            return node
        seen.add(node["span_id"])
        parent = node.get("parent_id")
        node = by_id.get(parent) if parent is not None else None
    return None


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingest call."""

    run_id: str
    created: bool
    kind: str
    source: str = ""

    def describe(self) -> str:
        verb = "ingested" if self.created else "already present (deduped)"
        return f"{self.kind} {self.source or '<memory>'}: run {self.run_id} {verb}"


class StoreError(ValueError):
    """A file could not be ingested or a run could not be resolved."""


class RunStore:
    """SQLite-backed store over every observability artifact of a repo.

    Open with a filesystem path (created on demand) or ``":memory:"``.
    All writes are transactional per ingest call; the store is safe to
    re-open concurrently for reads.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        try:
            self._db = sqlite3.connect(self.path)
            self._db.row_factory = sqlite3.Row
            self._db.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            raise StoreError(f"{self.path}: not a usable store ({exc})")
        version = self._db.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            self._db.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
        elif version != _SCHEMA_VERSION:
            raise StoreError(
                f"{self.path}: store schema version {version}, "
                f"this build reads {_SCHEMA_VERSION}"
            )
        self._db.commit()

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run bookkeeping ------------------------------------------------

    def has_run(self, run_id: str) -> bool:
        row = self._db.execute(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return row is not None

    def _run_record(self, row: sqlite3.Row) -> Dict[str, Any]:
        """A ``runs`` row as a dict, with its failure count from metrics."""
        record = dict(row)
        record["run"] = json.loads(record.pop("run_json"))
        failures = self.counters(record["run_id"]).get("engine.failures")
        record["n_failures"] = int(failures) if failures is not None else None
        return record

    def runs(self) -> List[Dict[str, Any]]:
        """Every run, oldest first, as plain dicts."""
        rows = self._db.execute("SELECT * FROM runs ORDER BY seq").fetchall()
        return [self._run_record(row) for row in rows]

    def resolve_run(self, ref: Optional[str] = None) -> str:
        """Resolve a run reference to a run id.

        ``None``, ``""`` and ``"latest"`` mean the most recently ingested
        run; otherwise ``ref`` must be a run id or a unique prefix.
        """
        if not ref or ref == "latest":
            row = self._db.execute(
                "SELECT run_id FROM runs ORDER BY seq DESC LIMIT 1"
            ).fetchone()
            if row is None:
                raise StoreError(f"{self.path}: store holds no runs")
            return row["run_id"]
        rows = self._db.execute(
            "SELECT run_id FROM runs WHERE run_id LIKE ? ORDER BY seq",
            (ref + "%",),
        ).fetchall()
        if not rows:
            raise StoreError(f"no run matches {ref!r}")
        if len(rows) > 1:
            matches = ", ".join(r["run_id"] for r in rows)
            raise StoreError(f"run reference {ref!r} is ambiguous: {matches}")
        return rows[0]["run_id"]

    # -- ingest: obs record streams -------------------------------------

    def ingest_records(
        self, records: Sequence[Dict[str, Any]], source: str = ""
    ) -> IngestResult:
        """Ingest a validated ``repro.obs.v2`` record stream as one run.

        Re-ingesting a stream whose content hash is already present is a
        no-op — the dedupe the determinism tests assert.
        """
        errors = validate_records(records)
        if errors:
            raise StoreError(
                f"{source or 'records'}: not a valid obs export: "
                + "; ".join(errors[:5])
            )
        run_id = run_id_for_records(records)
        if self.has_run(run_id):
            return IngestResult(run_id, False, "obs", source)
        spans = [r for r in records if r["type"] == "span"]
        by_id = {span["span_id"]: span for span in spans}
        owners = {s["span_id"]: _enclosing_loop(s, by_id) for s in spans}
        with self._db:  # one transaction: the whole run or nothing
            self._insert_spans(run_id, spans, owners)
            n_loops = self._insert_loops(run_id, spans, owners)
            seq = self._db.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM runs"
            ).fetchone()[0]
            self._db.execute(
                "INSERT INTO runs VALUES (?,?,?,?,?,?,?,?)",
                (
                    run_id,
                    seq,
                    source,
                    records[0]["format"],
                    json.dumps(records[0]["run"], sort_keys=True),
                    len(spans),
                    n_loops,
                    sum(s["dur"] for s in spans if s.get("parent_id") is None),
                ),
            )
            for record in records:
                if record["type"] != "metric":
                    continue
                value = record["value"]
                summary = isinstance(value, dict)  # a histogram
                self._db.execute(
                    "INSERT OR REPLACE INTO metrics VALUES (?,?,?,?,?)",
                    (
                        run_id,
                        record["kind"],
                        record["name"],
                        None if summary else value,
                        json.dumps(value, sort_keys=True) if summary else None,
                    ),
                )
        return IngestResult(run_id, True, "obs", source)

    def _insert_spans(self, run_id: str, spans, owners) -> None:
        """Insert spans with derived self time and owning loop."""
        child_dur: Dict[Any, float] = {}
        for span in spans:
            parent = span.get("parent_id")
            if parent is not None:
                child_dur[parent] = child_dur.get(parent, 0.0) + span["dur"]
        rows = []
        for span in spans:
            owner = owners[span["span_id"]]
            children = child_dur.get(span["span_id"], 0.0)
            rows.append(
                (
                    run_id,
                    span["span_id"],
                    span.get("parent_id"),
                    span["name"],
                    span["start"],
                    span["dur"],
                    max(0.0, span["dur"] - children),
                    span["pid"],
                    span["tid"],
                    owner["attrs"].get("loop") if owner is not None else None,
                    json.dumps(span["attrs"], sort_keys=True),
                )
            )
        self._db.executemany(
            "INSERT INTO spans VALUES (?,?,?,?,?,?,?,?,?,?,?)", rows
        )

    def _insert_loops(self, run_id: str, spans, owners) -> int:
        """Fold one ``loops`` row per loop index out of the span tree.

        A retried loop keeps the outcome of its last ``loop`` span (the
        one that stuck); wall seconds, phase seconds and the attempt
        tallies accumulate over every span the loop owns.  Returns the
        number of rows written.
        """
        rows: Dict[int, Dict[str, Any]] = {}

        def row_of(span: Optional[Dict[str, Any]]):
            index = span["attrs"].get("index") if span is not None else None
            if not isinstance(index, int):
                return None
            return rows.setdefault(index, {
                "name": span["attrs"].get("loop"), "cache_hit": False,
                "ok": None, "wall": 0.0, "seconds": {},
                "ii": None, "mii": None, "attempts": None, "displaced": 0,
                "forced": 0, "degraded": None, "failure_kind": None,
                "failure_phase": None,
            })

        for span in spans:
            name, attrs = span["name"], span["attrs"]
            if name in _LOOP_SPANS:
                row = row_of(span)
                if row is None:
                    continue
                row["wall"] += span["dur"]
                if name == "loop":
                    for attr, column in _LOOP_ATTRS:
                        if attr in attrs:
                            row[column] = attrs[attr]
                else:
                    row["cache_hit"] = bool(attrs.get("hit"))
                    seconds = row["seconds"]
                    seconds[name] = seconds.get(name, 0.0) + span["dur"]
                continue
            owner = owners[span["span_id"]]
            row = row_of(owner)
            if row is None:
                continue
            if span.get("parent_id") == owner["span_id"]:
                seconds = row["seconds"]
                seconds[name] = seconds.get(name, 0.0) + span["dur"]
            if name == "schedule":
                row["mii"] = attrs.get("mii", row["mii"])
                if "attempts" in attrs:
                    row["attempts"] = max(
                        row["attempts"] or 0, attrs["attempts"]
                    )
            elif name == "schedule.attempt":
                row["displaced"] += attrs.get("displaced", 0)
                row["forced"] += attrs.get("forced", 0)
        for index, row in rows.items():
            if row["ok"] is None:  # served from the cache
                row["ok"] = row["cache_hit"]
            row["seconds"] = json.dumps(row["seconds"], sort_keys=True)
            self._db.execute(
                "INSERT INTO loops VALUES (:run_id, :idx, :name, :cache_hit, "
                ":ok, :wall, :seconds, :ii, :mii, :attempts, "
                ":displaced, :forced, :degraded, :failure_kind, "
                ":failure_phase)",
                {"run_id": run_id, "idx": index, **row},
            )
        return len(rows)

    # -- ingest: bench trajectories -------------------------------------

    def ingest_bench_trajectory(self, path) -> int:
        """Ingest a ``BENCH_*.json`` trajectory; returns new rows added.

        Keyed by (bench, unix_time): re-ingesting an extended trajectory
        adds only the new tail, turning the one-shot JSON blob into a
        tracked time series.
        """
        path = Path(path)
        data = json.loads(path.read_text())
        runs = data.get("runs")
        if not isinstance(runs, list):
            raise StoreError(f"{path}: not a BENCH_*.json trajectory")
        added = 0
        for entry in runs:
            if not isinstance(entry, dict) or "bench" not in entry:
                continue
            cursor = self._db.execute(
                "INSERT OR IGNORE INTO bench_runs "
                "(bench, unix_time, source, payload_json) VALUES (?,?,?,?)",
                (
                    entry["bench"],
                    float(entry.get("unix_time", 0.0)),
                    str(path),
                    json.dumps(entry, sort_keys=True),
                ),
            )
            added += cursor.rowcount
        self._db.commit()
        return added

    def bench_series(self, bench: str) -> List[Dict[str, Any]]:
        """The time series of one benchmark, oldest first."""
        rows = self._db.execute(
            "SELECT payload_json FROM bench_runs WHERE bench = ? "
            "ORDER BY unix_time",
            (bench,),
        ).fetchall()
        return [json.loads(row["payload_json"]) for row in rows]

    # -- ingest: profiler samples ---------------------------------------

    def ingest_profile(
        self, run_id: str, samples: Dict[str, int]
    ) -> None:
        """Merge collapsed-stack sample counts into a run."""
        for stack, count in samples.items():
            self._db.execute(
                "INSERT INTO profile_samples (run_id, stack, count) "
                "VALUES (?,?,?) ON CONFLICT (run_id, stack) "
                "DO UPDATE SET count = count + excluded.count",
                (run_id, stack, int(count)),
            )
        self._db.commit()

    def profile_samples(self, run_id: str) -> Dict[str, int]:
        rows = self._db.execute(
            "SELECT stack, count FROM profile_samples WHERE run_id = ? "
            "ORDER BY stack",
            (run_id,),
        ).fetchall()
        return {row["stack"]: row["count"] for row in rows}

    # -- ingest: files ---------------------------------------------------

    def ingest_path(self, path) -> IngestResult:
        """Ingest one file: a ``repro.obs.v2`` export or a bench trajectory.

        Raises :class:`StoreError` for anything else.
        """
        path = Path(path)
        text = path.read_text()
        stripped = text.lstrip()
        if stripped.startswith("{") and "\n{" not in stripped.rstrip():
            # A single JSON document: a bench trajectory or nothing.
            try:
                data = json.loads(text)
            except ValueError as exc:
                raise StoreError(f"{path}: not JSON ({exc})") from None
            if isinstance(data, dict) and isinstance(data.get("runs"), list):
                added = self.ingest_bench_trajectory(path)
                return IngestResult(
                    f"bench:{path.stem}", added > 0, "bench", str(path)
                )
            raise StoreError(f"{path}: unrecognized JSON document")
        records, errors = parse_jsonl(text)
        if errors:
            raise StoreError(f"{path}: {errors[0]}")
        return self.ingest_records(records, source=str(path))

    def ingest_run_artifacts(
        self,
        snapshot: Dict[str, Any],
        run: Optional[Dict[str, Any]] = None,
        profile: Optional[Dict[str, int]] = None,
        source: str = "",
    ) -> IngestResult:
        """Record one live engine run (its obs snapshot and profile).

        This is the ``corpus --obs-db`` entry point.  The snapshot is
        flattened into exactly the records ``--obs-out`` writes for the
        same ``run`` description, so ingesting that file afterwards is a
        dedupe, not a second run.
        """
        records = records_from_snapshot(snapshot, run=run)
        result = self.ingest_records(records, source=source)
        if profile:
            self.ingest_profile(result.run_id, profile)
        return result

    # -- queries the analyzers build on ---------------------------------

    def span_rows(self, run_id: str) -> List[sqlite3.Row]:
        return self._db.execute(
            "SELECT * FROM spans WHERE run_id = ? ORDER BY span_id",
            (run_id,),
        ).fetchall()

    def loop_rows(self, run_id: str) -> List[sqlite3.Row]:
        return self._db.execute(
            "SELECT * FROM loops WHERE run_id = ? ORDER BY idx",
            (run_id,),
        ).fetchall()

    def run_row(self, run_id: str) -> Dict[str, Any]:
        row = self._db.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no run {run_id!r}")
        return self._run_record(row)

    def metric_rows(self, run_id: str) -> List[sqlite3.Row]:
        return self._db.execute(
            "SELECT * FROM metrics WHERE run_id = ? ORDER BY kind, name",
            (run_id,),
        ).fetchall()

    def counters(self, run_id: str) -> Dict[str, float]:
        """The run's counter metrics as a plain dict."""
        return {
            row["name"]: row["value"]
            for row in self._db.execute(
                "SELECT name, value FROM metrics "
                "WHERE run_id = ? AND kind = 'counter' ORDER BY name",
                (run_id,),
            )
        }
