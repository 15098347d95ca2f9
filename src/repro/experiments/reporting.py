"""Plain-text table rendering shared by the experiment drivers."""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Iterable, Iterator, List, Sequence

from repro.errors import ExperimentError

#: Values :func:`distribution_cells` reads per chunk.
_CHUNK = 4096


def distribution_cells(values: Iterable[float]) -> List[object]:
    """``[mean, min, max]`` cells for one row of an aggregate table.

    Population-scale reports (the ``tenants`` experiment) summarise a
    per-tenant metric as its distribution rather than printing hundreds of
    rows; an empty input renders as dashes. The mean uses ``math.fsum``
    so the rendered row is invariant under any permutation of the input —
    the same exactness contract the placement layer's bid folding keeps.
    ``values`` is read once, a chunk at a time, so an iterator over a
    million wallets is summarised without being listed.
    """
    floats = map(float, values)
    extremes = []  # (min, max, count) per chunk, in input order

    def chunks() -> Iterator[List[float]]:
        for chunk in iter(lambda: list(islice(floats, _CHUNK)), []):
            extremes.append((min(chunk), max(chunk), len(chunk)))
            yield chunk

    total = math.fsum(chain.from_iterable(chunks()))
    if not extremes:
        return ["-", "-", "-"]
    lows, highs, counts = zip(*extremes)
    return [total / sum(counts), min(lows), max(highs)]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a fixed-width text table (the benches print these).

    Numeric cells are rendered with two decimals; everything else with
    ``str``. Column widths adapt to the longest cell.
    """
    if not headers:
        raise ExperimentError("a table needs at least one column")
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        rendered_rows.append([_render_cell(cell) for cell in row])

    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(header).ljust(widths[index])
                           for index, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[index]) if _is_numeric(cell)
                               else cell.ljust(widths[index])
                               for index, cell in enumerate(row)))
    return "\n".join(lines)


def _render_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
