"""Plain-text tables and series formatting for experiment output.

The experiment CLIs print the same rows/series the paper reports; these
helpers keep that output aligned and dependency-free.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

__all__ = ["format_table", "format_value", "format_series"]


def format_value(value: Any) -> str:
    """Render one cell: compact floats, engineering-friendly magnitudes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if value != value:  # NaN
        return "-"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.001:
        return f"{value:.3e}"
    return f"{value:.4g}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str | None = None) -> str:
    """Render an aligned monospace table."""
    rendered = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def format_series(points: Iterable[tuple[float, float]], *,
                  width: int = 60, height: int = 12,
                  log_y: bool = False, title: str | None = None) -> str:
    """A tiny ASCII scatter of (x, y) points — enough to eyeball a figure."""
    pts = [(x, y) for x, y in points if y == y]
    if not pts:
        return title or "(no data)"
    ys = [math.log10(y) if log_y and y > 0 else y for _, y in pts]
    xs = [x for x, _ in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (x, _), y in zip(pts, ys):
        col = int((x - xmin) / xspan * (width - 1))
        row = height - 1 - int((y - ymin) / yspan * (height - 1))
        grid[row][col] = "*"
    lines = []
    if title:
        lines.append(title)
    label_hi = f"{ymax:.3g}" + (" (log10)" if log_y else "")
    label_lo = f"{ymin:.3g}"
    lines.append(label_hi)
    lines.extend("|" + "".join(row) for row in grid)
    lines.append(label_lo + " " + "-" * max(0, width - len(label_lo)))
    lines.append(f"x: {xmin:.3g} .. {xmax:.3g}")
    return "\n".join(lines)
