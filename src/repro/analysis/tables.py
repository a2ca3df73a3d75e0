"""Plain-text table rendering for figure pipelines and reports.

The benches print the same rows/series the paper's figures plot; these
helpers keep that output aligned and consistent without pulling in any
plotting dependency.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import AnalysisError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_fmt: str = "{:.3f}",
) -> str:
    """Render an aligned monospace table."""
    if not headers:
        raise AnalysisError("table needs headers")
    rendered: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        rendered.append(
            [
                float_fmt.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
