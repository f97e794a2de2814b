"""Per-layer metrics of a traced run, from spans and engine timing records.

Times are seconds per traced round (the median over traced rounds);
counts and ratios are those of the first traced round, which repeat
exactly run to run.  Counts are the engine's ``Counters`` summed over
the loops a round actually evaluated (cache hits excluded).  At
``jobs`` > 1 the wrappers see only the parent process, so the layers
that run in pool workers take their seconds from the engine's per-loop
phase timings instead: ``mii.s`` is then the ``mindist`` phase (MII
plus the schedule-length bounds) and ``ims.s`` the ``scheduling``
phase (HeightR and the list-schedule bound included).
"""

from __future__ import annotations

import statistics

from tracer import SpanTotals

#: Worker-side pool phases standing in for a layer's seconds at jobs > 1.
_POOL_PHASES = {
    "mii.s": "mindist",
    "ims.s": "scheduling",
    "check.s": "check",
    "codegen.s": "codegen",
    "sim.s": "simulation",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def round_metrics(round_, jobs: int) -> dict:
    """Every per-layer metric of one traced round except the set-up ones."""
    spans = SpanTotals(round_.spans)
    seconds, calls = spans.seconds, spans.calls
    counters = round_.counters
    mb = 1.0 / 1024.0
    code_ops, real_ops = spans.extra.get("codegen", (0, 0))
    metrics = {
        "bound.s": seconds.get("bound", 0.0),
        "bound.calls": calls.get("bound", 0),
        "bound.rss_growth_mb": spans.rss_kb.get("bound", 0) * mb,
        "list_sl.s": seconds.get("list_sl", 0.0),
        "mii.s": seconds.get("mii", 0.0),
        "mii.scc_s": spans.nested.get(("scc", "mii"), 0.0),
        "mii.res_s": spans.nested.get(("resmii", "mii"), 0.0),
        "mii.rec_s": spans.nested.get(("recmii", "mii"), 0.0),
        "mii.rss_growth_mb": spans.rss_kb.get("mii", 0) * mb,
        "mii.failures": spans.failures.get("mii", 0),
        "mii.scc_steps": counters.get("scc_steps", 0),
        "mii.resmii_steps": counters.get("resmii_steps", 0),
        "mii.mindist_n3_ops": counters.get("mindist_inner", 0)
        + counters.get("mindist_closure_inner", 0),
        "ims.s": spans.self_seconds.get("ims", 0.0),
        "heightr.s": seconds.get("heightr", 0.0),
        "heightr.inner": counters.get("heightr_inner", 0),
        "ims.ii_attempts": counters.get("ii_attempts", 0),
        "ims.attempt_yield": _ratio(
            round_.miss_ims, counters.get("ii_attempts", 0)
        ),
        "ims.ops_scheduled": counters.get("ops_scheduled", 0),
        "ims.ops_unscheduled": counters.get("ops_unscheduled", 0),
        "ims.ops_forced": counters.get("ops_forced", 0),
        "ims.placement_yield": _ratio(
            counters.get("ops_scheduled", 0) - counters.get("ops_unscheduled", 0),
            counters.get("ops_scheduled", 0),
        ),
        "ims.findtimeslot_iters": counters.get("findtimeslot_iters", 0),
        "ims.estart_preds": counters.get("estart_preds", 0),
        "ims.steps_per_op": _ratio(
            counters.get("ops_scheduled", 0), round_.miss_ops
        ),
        "check.s": seconds.get("check", 0.0),
        "check.calls": calls.get("check", 0),
        "codegen.s": seconds.get("codegen", 0.0),
        "codegen.code_ops_ratio": _ratio(code_ops, real_ops),
        "sim.s": seconds.get("sim", 0.0),
        "sim.calls": calls.get("sim", 0),
        "engine.key_s": seconds.get("key", 0.0),
        "engine.encode_s": seconds.get("encode", 0.0),
        "engine.decode_s": seconds.get("decode", 0.0),
        "engine.cache_load_s": round_.load_s,
        "engine.cache_hit_frac": _ratio(
            round_.hits, round_.hits + round_.misses
        ),
        "engine.retries": round_.retries,
        "engine.worker_busy_s": round_.busy_s,
        "engine.fanout_util": _ratio(round_.busy_s, jobs * round_.wall),
    }
    accounted = spans.top_level_seconds
    if jobs > 1:
        for name, phase in _POOL_PHASES.items():
            metrics[name] += round_.phase_s.get(phase, 0.0)
        accounted += round_.busy_s / jobs
    metrics["engine.self_s"] = round_.wall - accounted
    return metrics


def layer_metrics(traced, untraced, build_spans, jobs: int, units: dict) -> dict:
    """The per-layer metrics named in ``units`` (name -> unit) of a run;
    see the module docstring."""
    per_round = [round_metrics(r, jobs) for r in traced]
    metrics = {}
    for name, value in per_round[0].items():
        if units.get(name) == "s":
            metrics[name] = statistics.median(m[name] for m in per_round)
        else:
            metrics[name] = value
    builds = [SpanTotals(spans) for spans in build_spans]
    metrics["loopir.lower_s"] = statistics.median(
        b.seconds.get("lower", 0.0) for b in builds
    )
    metrics["loopir.lower_calls"] = builds[0].calls.get("lower", 0)
    metrics["workloads.synth_s"] = statistics.median(
        b.seconds.get("synth", 0.0) for b in builds
    )
    metrics["trace.overhead"] = statistics.median(
        r.wall for r in traced
    ) / statistics.median(r.wall for r in untraced)
    return {name: metrics[name] for name in units}
