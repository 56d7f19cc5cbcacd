"""Rendering of experiment rows as text / markdown tables and CSV files.

The figure and extension functions all return lists of dictionaries; this
module turns those rows into the artefacts a user actually reads — an aligned
text table for the terminal, a markdown table for EXPERIMENTS.md-style
reports, or a CSV file for external plotting — without pulling in any
plotting dependency.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, List, Mapping, Sequence

from repro.exceptions import InvalidParameterError

__all__ = [
    "format_table",
    "format_markdown_table",
    "metrics_rows",
    "save_rows_csv",
    "select_columns",
]


def _stringify(value: object, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    if isinstance(value, (list, tuple)):
        return ", ".join(_stringify(item, float_format) for item in value)
    return str(value)


def _normalise_rows(
    rows: Iterable[Mapping[str, object]],
    columns: Sequence[str] | None,
) -> tuple[List[str], List[dict]]:
    materialised = [dict(row) for row in rows]
    if not materialised:
        raise InvalidParameterError("cannot format an empty list of rows")
    if columns is None:
        # Preserve the key order of the first row, appending keys that only
        # appear in later rows.
        columns = list(materialised[0].keys())
        for row in materialised[1:]:
            for key in row:
                if key not in columns:
                    columns.append(key)
    else:
        columns = list(columns)
        if not columns:
            raise InvalidParameterError("the column selection must not be empty")
    return columns, materialised


def select_columns(
    rows: Iterable[Mapping[str, object]], columns: Sequence[str]
) -> List[dict]:
    """Project every row onto ``columns`` (missing keys become empty strings)."""
    projected = []
    for row in rows:
        projected.append({column: row.get(column, "") for column in columns})
    if not projected:
        raise InvalidParameterError("cannot project an empty list of rows")
    return projected


def format_table(
    rows: Iterable[Mapping[str, object]],
    *,
    columns: Sequence[str] | None = None,
    float_format: str = ".4g",
) -> str:
    """Aligned plain-text table (what the CLI prints)."""
    columns, materialised = _normalise_rows(rows, columns)
    cells = [
        [_stringify(row.get(column, ""), float_format) for column in columns]
        for row in materialised
    ]
    widths = [
        max(len(str(column)), max((len(row[index]) for row in cells), default=0))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in cells
    ]
    return "\n".join([header, separator, *body])


def format_markdown_table(
    rows: Iterable[Mapping[str, object]],
    *,
    columns: Sequence[str] | None = None,
    float_format: str = ".4g",
) -> str:
    """GitHub-flavoured markdown table (what EXPERIMENTS.md embeds)."""
    columns, materialised = _normalise_rows(rows, columns)
    header = "| " + " | ".join(str(column) for column in columns) + " |"
    separator = "|" + "|".join(["---"] * len(columns)) + "|"
    body = [
        "| "
        + " | ".join(_stringify(row.get(column, ""), float_format) for column in columns)
        + " |"
        for row in materialised
    ]
    return "\n".join([header, separator, *body])


def save_rows_csv(
    rows: Iterable[Mapping[str, object]],
    path: str | Path,
    *,
    columns: Sequence[str] | None = None,
) -> Path:
    """Write the rows to a CSV file and return its path."""
    columns, materialised = _normalise_rows(rows, columns)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in materialised:
            writer.writerow({column: row.get(column, "") for column in columns})
    return target


def metrics_rows(
    document: Mapping[str, object], *, include_families: bool = False
) -> List[dict]:
    """Flatten a service ``GET /metrics`` document into harness table rows.

    One row per ``(kind, phase)`` histogram with ``count`` / ``mean`` /
    ``p50`` / ``p95`` columns, ready for :func:`format_table` /
    :func:`save_rows_csv` — quantiles are read from the shared log-spaced
    bucket bounds (upper-bound estimates, matching the server's own
    ``/stats`` summaries).

    Understands both document generations: the PR 8 shape (``bounds`` +
    ``kinds``) and the extended registry shape that adds ``families``.
    With ``include_families=True``, registry histograms from other layers
    (``session.compute_seconds``, ``engine.executor.queue_seconds``, ...)
    become extra rows whose ``kind`` is the family name — except the
    ``service`` family, which would duplicate the ``kinds`` rows verbatim.
    The default keeps the PR 8 row set exactly, whichever document shape
    arrives.
    """
    import math

    shared_bounds = [float(bound) for bound in document.get("bounds", [])]
    kinds = document.get("kinds", {})
    if not isinstance(kinds, Mapping):
        raise InvalidParameterError("'kinds' must be a mapping of histograms")

    def quantile(
        counts: Sequence[int], total: int, q: float, bounds: Sequence[float]
    ) -> float | None:
        if not total or not bounds:
            return None
        rank = max(1, math.ceil(q * total))
        seen = 0
        for index, bucket in enumerate(counts):
            seen += int(bucket)
            if seen >= rank:
                return bounds[min(index, len(bounds) - 1)]
        return bounds[-1]

    def histogram_row(kind: str, phase: str, histogram: Mapping, bounds) -> dict:
        count = int(histogram.get("count", 0))
        total_seconds = float(histogram.get("sum", 0.0))
        counts = histogram.get("counts", [])
        return {
            "kind": kind,
            "phase": phase,
            "count": count,
            "mean": (total_seconds / count) if count else None,
            "p50": quantile(counts, count, 0.5, bounds),
            "p95": quantile(counts, count, 0.95, bounds),
        }

    rows: List[dict] = []
    for kind in sorted(kinds):
        phases = kinds[kind]
        for phase, histogram in phases.items():
            rows.append(histogram_row(kind, phase, histogram, shared_bounds))
    families = document.get("families") if include_families else None
    if isinstance(families, Mapping):
        for family in sorted(families):
            if family == "service" and kinds:
                continue  # identical histograms already emitted above
            histograms = families[family].get("histograms", {})
            for name in sorted(histograms):
                histogram = histograms[name]
                bounds = [
                    float(bound) for bound in histogram.get("bounds", shared_bounds)
                ]
                rows.append(histogram_row(family, name, histogram, bounds))
    return rows
