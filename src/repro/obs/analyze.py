"""Derived profiles over the run store: phase stats, attribution, diffs.

Everything here is a pure function over :class:`repro.obs.store.RunStore`
queries — no SQL of its own, no I/O — so the CLI renderers, the tests
and CI all compute from one code path:

* :func:`phase_profile` — per-span-name **self time** statistics with
  nearest-rank p50/p95/p99 percentiles;
* :func:`top_loops` — top-N loop attribution by wall clock, displacement
  count, scheduling attempts, or II slack (achieved II − MII);
* :func:`diff_runs` — the statistical run-to-run diff: per-phase deltas
  gated by a noise threshold, new/vanished failure kinds, cache
  hit-rate, resilience-tally and counter deltas.  Only *regressions*
  (a phase slower than noise allows, or a new failure kind) make a diff
  non-clean — improvements and cache/counter drift are report-only, so
  a warm re-run diffs clean against its cold predecessor;
* :func:`check_baseline` — compare a profile against a committed
  ``repro.obs.baseline.v1`` budget document (CI's regression gate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.store import RunStore

BASELINE_FORMAT = "repro.obs.baseline.v1"

#: A phase delta is a regression only when it exceeds both the relative
#: and the absolute noise gates; timer jitter on sub-millisecond phases
#: would otherwise flag every self-diff of a warm cache.
DEFAULT_NOISE_RATIO = 0.25
DEFAULT_NOISE_FLOOR = 0.05


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the flat-file standard; no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))  # ceil without math
    return ordered[min(len(ordered) - 1, int(rank) - 1)]


@dataclass(frozen=True)
class PhaseStat:
    """Self-time statistics of one span name across a run."""

    name: str
    count: int
    total: float
    self_total: float
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "self_total": self.self_total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


def phase_profile(store: RunStore, run_id: str) -> List[PhaseStat]:
    """Per-span-name self-time profile, largest self-total first."""
    durations: Dict[str, List[float]] = {}
    totals: Dict[str, float] = {}
    for row in store.span_rows(run_id):
        durations.setdefault(row["name"], []).append(row["self_dur"])
        totals[row["name"]] = totals.get(row["name"], 0.0) + row["dur"]
    stats = []
    for name, values in durations.items():
        self_total = sum(values)
        stats.append(
            PhaseStat(
                name=name,
                count=len(values),
                total=totals[name],
                self_total=self_total,
                mean=self_total / len(values),
                p50=percentile(values, 0.50),
                p95=percentile(values, 0.95),
                p99=percentile(values, 0.99),
                max=max(values),
            )
        )
    return sorted(stats, key=lambda s: (-s.self_total, s.name))


#: The attribution orderings ``top_loops`` understands.
TOP_KEYS = ("wall", "displaced", "attempts", "slack")


def top_loops(
    store: RunStore, run_id: str, by: str = "wall", n: int = 10
) -> List[Dict[str, Any]]:
    """Top-N loops of a run under one attribution key.

    ``wall`` ranks by per-loop wall clock (where did the run's time
    go), ``displaced`` by eviction count (where did the scheduler
    fight), ``attempts`` by candidate IIs tried (where did the II
    search climb), ``slack`` by achieved II − MII (where is achieved
    throughput furthest from the bound).
    """
    if by not in TOP_KEYS:
        raise ValueError(
            f"unknown attribution key {by!r}; choose from {', '.join(TOP_KEYS)}"
        )
    loops = []
    for row in store.loop_rows(run_id):
        entry = dict(row)
        entry["seconds"] = json.loads(entry.pop("seconds_json"))
        ii, mii = entry.get("ii"), entry.get("mii")
        entry["slack"] = (
            ii - mii if isinstance(ii, int) and isinstance(mii, int) else None
        )
        loops.append(entry)

    def sort_key(entry: Dict[str, Any]):
        value = entry.get(by)
        return (-(value if value is not None else -1), entry["idx"])

    ranked = sorted(loops, key=sort_key)
    return [entry for entry in ranked[:n] if entry.get(by) is not None]


@dataclass(frozen=True)
class PhaseDelta:
    """One phase's movement between two runs."""

    name: str
    base: float
    other: float

    @property
    def delta(self) -> float:
        return self.other - self.base

    @property
    def ratio(self) -> Optional[float]:
        return self.other / self.base if self.base > 0 else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base,
            "other": self.other,
            "delta": self.delta,
            "ratio": self.ratio,
        }


@dataclass
class RunDiff:
    """The structured outcome of :func:`diff_runs`.

    ``regressions`` alone decide :attr:`clean`; everything else is
    context for the report.
    """

    base_id: str
    other_id: str
    noise_ratio: float
    noise_floor: float
    regressions: List[PhaseDelta] = field(default_factory=list)
    improvements: List[PhaseDelta] = field(default_factory=list)
    unchanged: List[PhaseDelta] = field(default_factory=list)
    new_failure_kinds: List[str] = field(default_factory=list)
    vanished_failure_kinds: List[str] = field(default_factory=list)
    cache_hit_rate: Dict[str, Optional[float]] = field(default_factory=dict)
    resilience_deltas: Dict[str, float] = field(default_factory=dict)
    counter_deltas: Dict[str, float] = field(default_factory=dict)
    slower_loops: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing regressed (new failure kinds included)."""
        return not self.regressions and not self.new_failure_kinds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base_id,
            "other": self.other_id,
            "clean": self.clean,
            "noise_ratio": self.noise_ratio,
            "noise_floor": self.noise_floor,
            "regressions": [d.to_dict() for d in self.regressions],
            "improvements": [d.to_dict() for d in self.improvements],
            "unchanged": [d.to_dict() for d in self.unchanged],
            "new_failure_kinds": list(self.new_failure_kinds),
            "vanished_failure_kinds": list(self.vanished_failure_kinds),
            "cache_hit_rate": dict(self.cache_hit_rate),
            "resilience_deltas": dict(self.resilience_deltas),
            "counter_deltas": dict(self.counter_deltas),
            "slower_loops": list(self.slower_loops),
        }


def _hit_rate(counters: Dict[str, float]) -> Optional[float]:
    hits = counters.get("engine.cache.hits", 0)
    misses = counters.get("engine.cache.misses", 0)
    return hits / (hits + misses) if hits + misses else None


def _is_resilience_tally(name: str) -> bool:
    """Whether a counter tallies fault events (docs/RESILIENCE.md)."""
    return name.startswith("resilience.") or name == "cache.corrupt"


def _failure_kinds(store: RunStore, run_id: str) -> Dict[str, int]:
    kinds: Dict[str, int] = {}
    for row in store.loop_rows(run_id):
        kind = row["failure_kind"]
        if kind:
            kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def diff_runs(
    store: RunStore,
    base_id: str,
    other_id: str,
    noise_ratio: float = DEFAULT_NOISE_RATIO,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    top_n: int = 5,
) -> RunDiff:
    """Statistical diff of two runs (``other`` measured against ``base``).

    A phase regresses when its self-time total grows by more than
    ``max(noise_floor, noise_ratio * base)`` seconds — both gates, so
    neither sub-millisecond jitter nor a large-but-proportional wobble
    on a long phase trips the alarm.  A failure kind present in
    ``other`` but not ``base`` is always a regression (correctness
    never gets a noise allowance).  ``slower_loops`` names the top
    individual loops responsible for the regressed time, using per-loop
    span wall clock (which catches slowdowns *outside* the phase
    timers, e.g. an injected sleep).  Cache hit rate, resilience
    tallies and counter deltas come from the runs' metrics.
    """
    diff = RunDiff(base_id, other_id, noise_ratio, noise_floor)

    base_profile = {s.name: s for s in phase_profile(store, base_id)}
    other_profile = {s.name: s for s in phase_profile(store, other_id)}
    for name in sorted(set(base_profile) | set(other_profile)):
        base = base_profile.get(name)
        other = other_profile.get(name)
        delta = PhaseDelta(
            name,
            base.self_total if base else 0.0,
            other.self_total if other else 0.0,
        )
        allowance = max(noise_floor, noise_ratio * delta.base)
        if delta.delta > allowance:
            diff.regressions.append(delta)
        elif delta.delta < -allowance:
            diff.improvements.append(delta)
        else:
            diff.unchanged.append(delta)
    diff.regressions.sort(key=lambda d: -d.delta)
    diff.improvements.sort(key=lambda d: d.delta)

    base_kinds = _failure_kinds(store, base_id)
    other_kinds = _failure_kinds(store, other_id)
    diff.new_failure_kinds = sorted(set(other_kinds) - set(base_kinds))
    diff.vanished_failure_kinds = sorted(set(base_kinds) - set(other_kinds))

    base_counters = store.counters(base_id)
    other_counters = store.counters(other_id)
    diff.cache_hit_rate = {
        "base": _hit_rate(base_counters),
        "other": _hit_rate(other_counters),
    }
    for name in sorted(set(base_counters) | set(other_counters)):
        moved = other_counters.get(name, 0) - base_counters.get(name, 0)
        if moved:
            diff.counter_deltas[name] = moved
            if _is_resilience_tally(name):
                diff.resilience_deltas[name] = moved

    if not diff.clean:
        diff.slower_loops = _slower_loops(store, base_id, other_id, top_n)
    return diff


def _loop_walls(store: RunStore, run_id: str) -> Dict[str, float]:
    """Per-loop wall clock, from the loop rows the span tree folded into."""
    return {row["name"]: row["wall"] for row in store.loop_rows(run_id)}


def _slower_loops(
    store: RunStore, base_id: str, other_id: str, top_n: int
) -> List[Dict[str, Any]]:
    base = _loop_walls(store, base_id)
    other = _loop_walls(store, other_id)
    deltas = [
        {"loop": name, "base": base.get(name, 0.0), "other": wall,
         "delta": wall - base.get(name, 0.0)}
        for name, wall in other.items()
        if wall - base.get(name, 0.0) > 0
    ]
    deltas.sort(key=lambda d: -d["delta"])
    return deltas[:top_n]


# ----------------------------------------------------------------------
# Baseline budgets (CI's committed regression gate)


def make_baseline(
    store: RunStore, run_id: str, headroom: float = 3.0
) -> Dict[str, Any]:
    """Derive a ``repro.obs.baseline.v1`` budget document from one run.

    Budgets are *per loop* (self seconds / loop count), scaled by
    ``headroom``, so the committed baseline survives corpus growth and
    machine variance; CI regenerates one with ``repro obs report
    --make-baseline`` when the engine legitimately changes shape.
    """
    n_loops = max(1, store.run_row(run_id)["n_loops"])
    # A phase whose budget rounds to zero would breach on any epsilon of
    # self time; leave it out — absent phases are ignored at check time.
    budgets = {
        stat.name: budget
        for stat in phase_profile(store, run_id)
        if (budget := round(stat.self_total / n_loops * headroom, 6)) > 0.0
    }
    return {
        "format": BASELINE_FORMAT,
        "headroom": headroom,
        "per_loop_self_seconds": budgets,
    }


def check_baseline(
    store: RunStore, run_id: str, baseline: Dict[str, Any]
) -> List[str]:
    """Breaches of a committed baseline ([] means within budget).

    Phases absent from the baseline are ignored (new instrumentation
    must not fail CI until a budget is set for it).
    """
    if baseline.get("format") != BASELINE_FORMAT:
        return [f"not a {BASELINE_FORMAT} document"]
    budgets = baseline.get("per_loop_self_seconds") or {}
    n_loops = max(1, store.run_row(run_id)["n_loops"])
    breaches = []
    for stat in phase_profile(store, run_id):
        budget = budgets.get(stat.name)
        if budget is None:
            continue
        per_loop = stat.self_total / n_loops
        if per_loop > budget:
            breaches.append(
                f"phase {stat.name!r}: {per_loop:.6f}s/loop exceeds "
                f"budget {budget:.6f}s/loop"
            )
    return breaches
