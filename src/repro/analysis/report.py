"""Plain-text rendering of tables and figure data.

The benchmark harness prints paper-style tables; these helpers keep the
formatting in one place (and testable).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_count(value: int | float) -> str:
    """Human-scale counts: 1234 -> '1.2k', 4200000 -> '4.2M'."""
    value = float(value)
    for threshold, suffix in ((1e9, "B"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= threshold:
            return f"{value / threshold:.1f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def format_percent(fraction: float, digits: int = 1) -> str:
    return f"{fraction * 100:.{digits}f}%"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Monospace table with column auto-sizing."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in materialised:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def render_ccdf(
    points: Sequence[tuple[int, float]],
    *,
    title: str,
) -> str:
    """A log-bucketed textual CCDF (stands in for the Fig. 8 plots), at
    most 12 thresholds."""
    if not points:
        return f"{title}\n(no data)"
    # Pick representative thresholds: powers of ~4 within the value range.
    thresholds: list[int] = []
    value = 1
    limit = points[-1][0]
    while value <= limit and len(thresholds) < 12:
        thresholds.append(value)
        value = max(value + 1, value * 4)
    rows = []
    for threshold in thresholds:
        share = 0.0
        for point_value, point_share in points:
            if point_value >= threshold:
                share = point_share
                break
        rows.append((f">= {threshold}", format_percent(share, 2)))
    rows.append((f"max = {points[-1][0]}", format_percent(points[-1][1], 3)))
    return render_table(("value", "CCDF"), rows, title=title)


def render_shares(
    shares: Iterable[tuple[str, float]],
    *,
    title: str,
    limit: int | None = None,
) -> str:
    rows = []
    for index, (label, share) in enumerate(shares):
        if limit is not None and index >= limit:
            break
        rows.append((label, format_percent(share)))
    return render_table(("label", "share"), rows, title=title)
