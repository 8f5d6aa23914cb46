"""Plain-text report formatting for tables and figure data.

The experiment runner prints the same rows/series the paper reports; these
helpers render them as aligned ASCII tables so the output of
``python -m repro.experiments.runner`` (and the examples) is directly
readable next to the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def format_cell(value: object, precision: int = 2) -> str:
    """Render one table cell; floats get ``precision`` decimals."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table.

    Every row must have the same number of cells as ``headers``.
    """
    str_rows: List[List[str]] = [
        [format_cell(c, precision) for c in row] for row in rows
    ]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("every row must match the header length")
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_speedup_table(
    speedups: Mapping[str, Mapping[str, float]],
    row_label: str = "workload",
    title: Optional[str] = None,
) -> str:
    """Render a ``{row -> {policy -> speedup}}`` mapping (Table 1 style)."""
    if not speedups:
        return title or ""
    columns = sorted({p for row in speedups.values() for p in row})
    headers = [row_label] + columns
    rows = []
    for label, row in speedups.items():
        rows.append(
            [label] + [f"{row[c]:.2f}x" if c in row else "-" for c in columns]
        )
    return format_table(headers, rows, title=title)


def format_series(
    x: Sequence[Number],
    series: Mapping[str, Sequence[Number]],
    x_label: str = "x",
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render one or more y-series against a shared x axis (figure data)."""
    headers = [x_label] + list(series)
    rows = []
    for i, xv in enumerate(x):
        rows.append([xv] + [s[i] for s in series.values()])
    return format_table(headers, rows, precision=precision, title=title)


__all__ = [
    "format_cell",
    "format_series",
    "format_speedup_table",
    "format_table",
]
