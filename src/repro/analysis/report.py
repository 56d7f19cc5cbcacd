"""Textual reports of VALMOD results.

These formatters turn result objects into the fixed-width tables the CLI and
the examples print — motif rankings, per-length pruning statistics and a
VALMAP summary.  They deliberately avoid any third-party table library.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.checkpoints import summarize_checkpoints
from repro.core.results import PruningStats, ValmodResult
from repro.matrix_profile.profile import MotifPair

__all__ = [
    "format_motif_table",
    "format_pruning_table",
    "format_pruning_power",
    "format_valmap_summary",
    "result_report",
]


def _format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Minimal fixed-width table formatter."""
    rows = [list(row) for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    separator = "  ".join("-" * width for width in widths)
    lines = [fmt(headers), separator]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_motif_table(pairs: Iterable[MotifPair], *, title: str = "motif pairs") -> str:
    """Table of motif pairs: rank, length, offsets, raw and normalised distance."""
    rows = [
        [
            str(rank),
            str(pair.window),
            str(pair.offset_a),
            str(pair.offset_b),
            f"{pair.distance:.4f}",
            f"{pair.normalized_distance:.4f}",
        ]
        for rank, pair in enumerate(pairs, start=1)
    ]
    table = _format_table(
        ["rank", "length", "offset A", "offset B", "distance", "norm. distance"], rows
    )
    return f"{title}\n{table}"


def format_pruning_table(stats: Iterable[PruningStats], *, title: str = "pruning per length") -> str:
    """Table of the per-length pruning counters (Figure 2 data)."""
    rows = [
        [
            str(stat.length),
            str(stat.num_profiles),
            str(stat.num_valid),
            str(stat.num_non_valid),
            str(stat.num_recomputed),
            f"{stat.valid_fraction:.3f}",
        ]
        for stat in stats
    ]
    table = _format_table(
        ["length", "profiles", "valid", "non-valid", "recomputed", "valid frac"], rows
    )
    return f"{title}\n{table}"


def format_valmap_summary(result: ValmodResult) -> str:
    """Summary of the VALMAP structure: best entry, updated regions, checkpoints."""
    valmap = result.valmap
    offset, length, match, normalized = valmap.best_entry()
    summary = summarize_checkpoints(valmap)
    lines = [
        "VALMAP summary",
        f"  positions            : {len(valmap)}",
        f"  length range         : [{valmap.min_length}, {valmap.max_length}]",
        f"  best entry           : offset {offset}, length {length}, match {match}, "
        f"normalized distance {normalized:.4f}",
        f"  updated positions    : {len(valmap.updated_positions())}",
        f"  update events        : {summary.num_updates}",
        f"  contiguous regions   : {len(summary.update_regions)}",
    ]
    if summary.update_regions:
        preview = ", ".join(f"[{start}, {stop})" for start, stop in summary.update_regions[:5])
        lines.append(f"  first regions        : {preview}")
    return "\n".join(lines)


def result_report(result: ValmodResult, *, top_k: int = 5) -> str:
    """Complete textual report of a VALMOD run (used by the CLI and examples)."""
    sections = [
        f"VALMOD on {result.series_name!r} "
        f"({result.series_length} points, lengths "
        f"[{result.config.min_length}, {result.config.max_length}])",
        f"elapsed: {result.elapsed_seconds:.3f} s",
        "",
        format_motif_table(
            result.top_motifs(top_k), title=f"top-{top_k} variable-length motif pairs"
        ),
        "",
        format_pruning_table(
            [result.length_results[length].pruning for length in result.lengths],
            title="pruning per length",
        ),
        format_pruning_power(
            [result.length_results[length].pruning for length in result.lengths]
        ),
        "",
        format_valmap_summary(result),
    ]
    return "\n".join(sections)


def format_pruning_power(stats: Sequence[PruningStats]) -> str:
    """One-line overall pruning power (the paper's Section 6 headline
    number): the fraction of per-length profiles the lower bound kept
    valid, i.e. that never needed recomputation.  The same value is
    published live as the ``valmod.pruning_power.overall`` gauge —
    ``repro metrics`` reads it without re-running anything.  Per-length
    figures have no gauge; they are the rows of
    :func:`format_pruning_table`."""
    total = sum(stat.num_profiles for stat in stats)
    valid = sum(stat.num_valid for stat in stats)
    overall = 1.0 if total == 0 else valid / total
    return (
        f"pruning power: {overall:.3f} "
        f"({valid}/{total} profiles valid across {len(list(stats))} lengths)"
    )
