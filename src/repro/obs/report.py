"""Text rendering of run artifacts: timeline tables and diffs.

Consumed by the ``repro observe report`` / ``observe diff`` CLI; kept
separate from :mod:`repro.obs.export` so the serialization layer stays
dependency-free of presentation choices.
"""

from __future__ import annotations

from repro.obs.export import Artifact

__all__ = ["render_diff", "render_report", "render_trend"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}" if value else "0"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:_}"
    return str(value)


def _table(headers: list[str], rows: list[list]) -> list[str]:
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in cells:
        lines.append(
            "  ".join(value.rjust(widths[i]) for i, value in enumerate(row))
        )
    return lines


def render_report(artifact: Artifact) -> str:
    """Full text report: header, per-phase table, spans, instruments."""
    header = artifact.header
    meta = header.get("meta", {})
    lines: list[str] = []
    descriptor = " ".join(
        f"{key}={meta[key]}"
        for key in ("graph", "n", "m", "seed", "faults")
        if key in meta
    )
    path_label = "fast path" if header.get("fast_path") else (
        "per-message mode (" + "; ".join(header.get("fallback_reasons", [])) + ")"
    )
    lines.append(f"observe report · schema {header.get('schema')}")
    if descriptor:
        lines.append(descriptor)
    lines.append(
        f"rounds={header.get('rounds')} target={header.get('target')} "
        f"[{path_label}]"
    )

    metrics = artifact.summary.get("metrics", {})
    lines.append(
        "totals: "
        f"messages={_fmt(metrics.get('total_messages', 0))} "
        f"bits={_fmt(metrics.get('total_bits', 0))} "
        f"max_bits/edge/round={_fmt(metrics.get('max_bits_per_edge_round', 0))}"
    )
    recovery = artifact.summary.get("recovery")
    if recovery:
        lines.append(
            "recovery: "
            + " ".join(f"{key}={_fmt(value)}" for key, value in recovery.items())
        )

    if artifact.phases:
        lines.append("")
        lines.append("per-phase timeline:")
        rows = [
            [
                phase["name"],
                f"{phase['start_round']}-{phase['end_round']}",
                phase["rounds"],
                phase["messages"],
                phase["bits"],
                phase.get("retransmits", 0),
                phase.get("wall_s", 0.0),
            ]
            for phase in artifact.phases
        ]
        lines.extend(
            _table(
                ["phase", "rounds", "#", "messages", "bits", "retransmits",
                 "wall_s"],
                rows,
            )
        )

    if artifact.spans:
        lines.append("")
        lines.append("spans (hottest first):")
        span_rows = sorted(
            artifact.spans.values(), key=lambda span: -span["wall_s"]
        )
        lines.extend(
            _table(
                ["span", "count", "wall_s"],
                [
                    [span["path"], span["count"], span["wall_s"]]
                    for span in span_rows
                ],
            )
        )

    if artifact.instruments:
        lines.append("")
        lines.append("instruments:")
        lines.extend(
            _table(
                ["instrument", "count", "mean", "max"],
                [
                    [
                        name,
                        digest.get("count", 0),
                        round(float(digest.get("mean", 0.0)), 2),
                        digest.get("max", 0),
                    ]
                    for name, digest in sorted(artifact.instruments.items())
                ],
            )
        )

    if artifact.trace_summary is not None:
        lines.append("")
        lines.append(
            f"trace: {artifact.trace_summary.get('events', 0)} events "
            f"({artifact.trace_summary.get('dropped', 0)} dropped)"
        )
    return "\n".join(lines)


#: Metric columns of the trend table, in display order.
_TREND_METRICS = ("rounds", "messages", "bits", "retransmissions", "wall_s")


def render_trend(
    trajectory: dict,
    scenario: str | None = None,
    last: int | None = None,
) -> str:
    """Per-scenario history tables for one trajectory document.

    One table per scenario (or just ``scenario`` when given): one row
    per recorded entry, keyed by short SHA and date, with the tracked
    deterministic counters and wall clock side by side so a metric's
    drift across PRs is visible at a glance.  ``last`` keeps only the
    most recent N entries.
    """
    entries = trajectory.get("entries", [])
    if last is not None:
        entries = entries[-last:]
    lines = [
        f"trajectory · suite {trajectory.get('suite')} · "
        f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}"
    ]
    names: list[str] = []
    for entry in entries:
        for name in entry.get("scenarios", {}):
            if name not in names:
                names.append(name)
    if scenario is not None:
        if scenario not in names:
            known = ", ".join(names) or "none"
            return f"{lines[0]}\nscenario {scenario!r} not found ({known})"
        names = [scenario]
    for name in names:
        rows = []
        for entry in entries:
            metrics = entry.get("scenarios", {}).get(name)
            if metrics is None:
                continue
            rows.append(
                [
                    entry.get("sha", "?"),
                    str(entry.get("date", "?"))[:10],
                    *(metrics.get(metric, "-") for metric in _TREND_METRICS),
                ]
            )
        if not rows:
            continue
        lines.append("")
        lines.append(f"scenario {name}:")
        lines.extend(_table(["sha", "date", *_TREND_METRICS], rows))
    return "\n".join(lines)


def render_diff(
    diff: dict, label_a: str = "a", label_b: str = "b"
) -> str:
    """Text rendering of :func:`repro.obs.export.diff_artifacts` output."""
    lines = [f"observe diff · {label_a} -> {label_b}"]
    lines.append("")
    lines.append("summary deltas:")
    lines.extend(
        _table(
            ["metric", label_a, label_b, "delta"],
            [
                [key, a, b, delta]
                for key, (a, b, delta) in diff["summary"].items()
            ],
        )
    )
    if diff["phases"]:
        lines.append("")
        lines.append("per-phase deltas:")
        rows = []
        for name, entries in diff["phases"].items():
            for key, (a, b, delta) in entries.items():
                if a or b:
                    rows.append([f"{name}.{key}", a, b, delta])
        lines.extend(_table(["phase.metric", label_a, label_b, "delta"], rows))
    span_rows = [
        [path, a, b, delta]
        for path, entry in diff.get("spans", {}).items()
        for a, b, delta in [entry["wall_s"]]
        if a or b
    ]
    if span_rows:
        lines.append("")
        lines.append("span wall-clock deltas:")
        lines.extend(_table(["span", label_a, label_b, "delta"], span_rows))
    return "\n".join(lines)
