"""Plain-text table/series rendering for the experiment harness.

The paper reports results as LaTeX tables and matplotlib figures; our
harness prints the same rows/series as aligned monospace tables so a
benchmark run is directly comparable against the paper without plotting.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an aligned monospace table.

    ``rows`` cells are str()-ed; column widths auto-fit.  Used by every
    experiment module to print paper-style tables.
    """
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        padded = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append(" | ".join(padded))
    return "\n".join(lines)
