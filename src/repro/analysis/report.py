"""Plain-text rendering of tables and series for the benchmark harness."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[str]], title: str = ""
) -> str:
    """Render an aligned plain-text table."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_series(
    x_label: str,
    y_labels: Sequence[str],
    points: Sequence[Tuple[float, Sequence[float]]],
    title: str = "",
    precision: int = 4,
) -> str:
    """Render an x-vs-many-y series as an aligned text block (Figure 6)."""
    headers = [x_label] + list(y_labels)
    rows = [
        [f"{x:g}"] + [f"{y:.{precision}f}" for y in ys] for x, ys in points
    ]
    return render_table(headers, rows, title=title)


def render_phase_profile(run_id, run, profile) -> str:
    """Render one stored run's self-time phase profile.

    ``profile`` is the :func:`repro.obs.analyze.phase_profile` output
    (a list of ``PhaseStat``); ``run`` the store's run row dict.
    """
    bits = [f"run {run_id}"]
    if run.get("n_loops"):
        bits.append(f"{run['n_loops']} loops")
    if run.get("n_failures"):
        bits.append(f"{run['n_failures']} failures")
    if run.get("wall_seconds"):
        bits.append(f"{run['wall_seconds']:.2f}s wall")
    rows = [
        [
            stat.name,
            str(stat.count),
            f"{stat.self_total:.3f}",
            f"{stat.mean:.6f}",
            f"{stat.p50:.6f}",
            f"{stat.p95:.6f}",
            f"{stat.p99:.6f}",
            f"{stat.max:.6f}",
        ]
        for stat in profile
    ]
    return render_table(
        ["phase", "count", "self s", "mean", "p50", "p95", "p99", "max"],
        rows,
        title=f"phase profile ({', '.join(bits)}):",
    )


def render_run_diff(diff) -> str:
    """Render a :class:`repro.obs.analyze.RunDiff` for humans."""
    lines: List[str] = [
        f"diff {diff.base_id} -> {diff.other_id}: "
        + ("CLEAN" if diff.clean else
           f"{len(diff.regressions)} phase regression(s), "
           f"{len(diff.new_failure_kinds)} new failure kind(s)")
    ]

    def block(title, deltas):
        rows = [
            [d.name, f"{d.base:.3f}", f"{d.other:.3f}", f"{d.delta:+.3f}",
             f"{d.ratio:.2f}x" if d.ratio is not None else "new"]
            for d in deltas
        ]
        if rows:
            lines.append(
                render_table(
                    ["phase", "base s", "other s", "delta", "ratio"],
                    rows, title=title,
                )
            )

    block("regressions:", diff.regressions)
    block("improvements:", diff.improvements)
    if diff.new_failure_kinds:
        lines.append(
            "new failure kinds: " + ", ".join(diff.new_failure_kinds)
        )
    if diff.vanished_failure_kinds:
        lines.append(
            "vanished failure kinds: "
            + ", ".join(diff.vanished_failure_kinds)
        )
    rate = diff.cache_hit_rate
    if rate.get("base") is not None or rate.get("other") is not None:
        def pct(value):
            return f"{value:.1%}" if value is not None else "n/a"

        lines.append(
            f"cache hit rate: {pct(rate.get('base'))} -> "
            f"{pct(rate.get('other'))}"
        )
    if diff.resilience_deltas:
        lines.append(
            "resilience deltas: "
            + ", ".join(
                f"{name} {value:+g}"
                for name, value in sorted(diff.resilience_deltas.items())
            )
        )
    if diff.slower_loops:
        rows = [
            [entry["loop"], f"{entry['base']:.3f}", f"{entry['other']:.3f}",
             f"{entry['delta']:+.3f}"]
            for entry in diff.slower_loops
        ]
        lines.append(
            render_table(
                ["loop", "base s", "other s", "delta"],
                rows, title="slowest-moving loops:",
            )
        )
    return "\n\n".join(lines)


def render_top_loops(run_id, by, ranked) -> str:
    """Render :func:`repro.obs.analyze.top_loops` output."""
    def cell(value, fmt="{}"):
        return fmt.format(value) if value is not None else ""

    rows = [
        [
            str(entry["idx"]),
            entry.get("name") or "",
            cell(entry.get("wall"), "{:.3f}"),
            cell(entry.get("ii")),
            cell(entry.get("mii")),
            cell(entry.get("slack")),
            cell(entry.get("attempts")),
            cell(entry.get("displaced")),
            "yes" if entry.get("cache_hit") else "",
            entry.get("failure_kind") or "",
        ]
        for entry in ranked
    ]
    return render_table(
        ["idx", "loop", "wall s", "II", "MII", "slack", "attempts",
         "displaced", "hit", "failure"],
        rows,
        title=f"top {len(ranked)} loops by {by} (run {run_id}):",
    )


def render_obs_summary(snapshot, title: str = "observability summary:") -> str:
    """Text exporter for an ``ObsContext.to_dict()`` snapshot.

    Three blocks: spans aggregated by name (count, total and mean
    seconds, longest first), then the counter and histogram registries.
    This is the human-facing view of the same record the JSONL and
    Chrome exporters serialize.
    """
    lines: List[str] = [title] if title else []

    by_name = {}
    for span in snapshot.get("spans", ()):
        count, total = by_name.get(span["name"], (0, 0.0))
        by_name[span["name"]] = (count + 1, total + span["dur"])
    rows = [
        [name, str(count), f"{total:.3f}", f"{total / count:.6f}"]
        for name, (count, total) in sorted(
            by_name.items(), key=lambda item: (-item[1][1], item[0])
        )
    ]
    if rows:
        lines.append(
            render_table(["span", "count", "total s", "mean s"], rows)
        )

    metrics = snapshot.get("metrics", {})
    counter_rows = [
        [name, f"{value:g}"]
        for name, value in sorted(metrics.get("counters", {}).items())
    ]
    if counter_rows:
        lines.append(render_table(["counter", "value"], counter_rows))
    histogram_rows = [
        [
            name,
            str(data["count"]),
            f"{data['total']:g}",
            f"{data['min']:g}",
            f"{data['max']:g}",
        ]
        for name, data in sorted(metrics.get("histograms", {}).items())
        if data["count"]
    ]
    if histogram_rows:
        lines.append(
            render_table(
                ["histogram", "count", "sum", "min", "max"], histogram_rows
            )
        )
    return "\n\n".join(lines)
