"""Plain-text table rendering for benchmark/experiment output.

Every figure/table harness prints its rows through :func:`format_table`
so the regenerated artifacts look uniform and diff cleanly run-to-run.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 2,
    title: str = "",
) -> str:
    """Render an aligned monospace table.

    Cells are left-aligned and padded to their column's width:

    >>> print(format_table(["n", "mean"], [[1, 2.25]]))
    n | mean
    --+-----
    1 | 2.25
    """
    rendered: List[List[str]] = [[_cell(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)
