"""AB-joins — matrix profiles between two different series.

The self-join matrix profile answers "where does this series repeat itself?";
the AB-join answers "where does series ``A`` occur in series ``B``?".  Every
entry ``i`` of the AB-join profile is the z-normalised distance between
``A[i:i+m]`` and its nearest neighbour among the subsequences of ``B`` (no
exclusion zone is needed because the two series are distinct).

The VALMOD demo only shows self-joins, but the underlying C library (like
every matrix-profile implementation) exposes joins as well, and two library
features rely on them:

* :func:`repro.matrix_profile.mpdist.mpdist` builds its distance measure from
  the two one-sided joins;
* the analysis helpers use joins to locate a discovered motif inside another
  recording (e.g. "does the heartbeat found in recording 1 appear in
  recording 2?").

The inner loop lives in :mod:`repro.matrix_profile.kernels`
(:func:`~repro.matrix_profile.kernels.run_join_sweep`): the historical
one-MASS-call-per-subsequence loop is the ``"oracle"`` kernel, and the
``"numpy"``/``"native"`` kernels replace the per-row FFTs with the
``O(|A|·|B|)`` cross-series STOMP recurrence.  ``engine="parallel"``
additionally block-partitions the A-rows across cores through
:func:`repro.engine.batch.compute_profiles`, the same data plane self-joins
use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.exceptions import EmptyResultError, InvalidParameterError
from repro.matrix_profile.kernels import (
    DEFAULT_JOIN_RESEED_INTERVAL,
    run_join_sweep,
    validate_kernel,
)
from repro.series.validation import validate_series, validate_subsequence_length
from repro.stats.sliding import SlidingStats

__all__ = ["JoinProfile", "ab_join", "ab_join_both", "join_sweep_rows"]


@dataclass(frozen=True)
class JoinProfile:
    """The one-sided AB-join profile of ``series_a`` against ``series_b``.

    Attributes
    ----------
    distances:
        ``distances[i]`` is the distance between ``A[i:i+window]`` and its
        nearest neighbour among the subsequences of ``B``.
    indices:
        Offset (in ``B``) of that nearest neighbour.
    window:
        Subsequence length of the join.
    """

    distances: np.ndarray
    indices: np.ndarray
    window: int

    def __post_init__(self) -> None:
        distances = np.asarray(self.distances, dtype=np.float64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if distances.ndim != 1 or indices.ndim != 1 or distances.shape != indices.shape:
            raise InvalidParameterError(
                "distances and indices must be 1-D arrays of identical length"
            )
        if self.window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {self.window}")
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return int(self.distances.size)

    def best(self) -> tuple[int, int, float]:
        """The closest cross-series pair as ``(offset_in_a, offset_in_b, distance)``."""
        finite = np.isfinite(self.distances)
        if not finite.any():
            raise EmptyResultError("the join profile contains no finite entries")
        offset = int(np.argmin(np.where(finite, self.distances, np.inf)))
        return (offset, int(self.indices[offset]), float(self.distances[offset]))

    def top_matches(self, k: int = 3) -> List[tuple[int, int, float]]:
        """The ``k`` closest cross-series pairs as ``(offset_a, offset_b, distance)``."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        order = np.argsort(self.distances, kind="stable")
        matches: List[tuple[int, int, float]] = []
        for offset in order.tolist():
            if not np.isfinite(self.distances[offset]):
                break
            matches.append(
                (int(offset), int(self.indices[offset]), float(self.distances[offset]))
            )
            if len(matches) == k:
                break
        return matches

    def as_dict(self, *, arrays: bool = False) -> dict:
        """Plain-dict form for reports and serialization (``arrays=True``
        keeps the numpy arrays rather than listing them)."""
        return {
            "window": self.window,
            "distances": self.distances if arrays else self.distances.tolist(),
            "indices": self.indices if arrays else self.indices.tolist(),
        }


def join_sweep_rows(
    series_a,
    series_b,
    window: int,
    start: int,
    stop: int,
    *,
    stats_a: SlidingStats | None = None,
    stats_b: SlidingStats | None = None,
    kernel: str | None = None,
    reseed_interval: int | None = None,
) -> JoinProfile:
    """AB-join of query rows ``[start, stop)`` of ``series_a`` against ``series_b``.

    The row-range primitive behind :func:`ab_join` and the engine's block
    partitioning: it prepares the B-centered inputs (both series shifted by
    ``stats_b.center`` — z-normalised distances are shift-invariant and the
    centered products avoid the large-offset cancellation) and hands the rows
    to :func:`~repro.matrix_profile.kernels.run_join_sweep`.  The returned
    profile covers only the requested rows; ``indices`` are offsets in ``B``.
    """
    values_a = validate_series(series_a, name="series_a")
    values_b = validate_series(series_b, name="series_b")
    window = validate_subsequence_length(min(values_a.size, values_b.size), window)
    if stats_a is None:
        stats_a = SlidingStats(values_a)
    if stats_b is None:
        stats_b = SlidingStats(values_b)
    means_a, stds_a = stats_a.mean_std(window)

    center = stats_b.center
    shifted_a = values_a - center
    shifted_means_a = means_a - center
    centered_b = stats_b.centered_values
    centered_means_b, stds_b = stats_b.centered_mean_std(window)
    compensated = stats_b.conversion_compensated(window)

    distances, indices = run_join_sweep(
        shifted_a,
        centered_b,
        window,
        shifted_means_a,
        stds_a,
        centered_means_b,
        stds_b,
        start,
        stop,
        kernel=kernel,
        compensated=compensated,
        reseed_interval=reseed_interval,
    )
    return JoinProfile(distances=distances, indices=indices, window=window)


def ab_join(
    series_a,
    series_b,
    window: int,
    *,
    stats_a: SlidingStats | None = None,
    stats_b: SlidingStats | None = None,
    kernel: str | None = None,
    reseed_interval: int | None = None,
    engine: str | None = None,
    n_jobs: int | None = None,
    block_size: int | None = None,
) -> JoinProfile:
    """One-sided AB-join: nearest neighbour in ``series_b`` of every subsequence of ``series_a``.

    ``kernel`` selects the inner loop (see
    :func:`~repro.matrix_profile.kernels.run_join_sweep`): ``"oracle"`` is the
    historical STAMP-style loop — one MASS call per subsequence of ``A``,
    ``O(|A|·|B| log |B|)`` — while ``"numpy"``/``"native"`` advance the
    cross-series STOMP recurrence for ``O(|A|·|B|)``.  ``engine="parallel"``
    (or ``"auto"``) block-partitions the A-rows through
    :func:`repro.engine.batch.compute_profiles`; ``reseed_interval=0`` makes
    every kernel and any block partitioning bit-for-bit equal to the oracle
    (each row is then seeded by the identical FFT).
    """
    values_a = validate_series(series_a, name="series_a")
    values_b = validate_series(series_b, name="series_b")
    window = validate_subsequence_length(min(values_a.size, values_b.size), window)
    validate_kernel(kernel)
    count_a = values_a.size - window + 1

    if engine is not None and engine != "serial":
        from repro.engine import batch as engine_batch
        from repro.engine.partition import default_block_size, plan_blocks

        jobs_hint = n_jobs if n_jobs is not None else (os.cpu_count() or 1)
        width = (
            int(block_size)
            if block_size is not None
            else default_block_size(count_a, max(1, int(jobs_hint)))
        )
        interval = (
            DEFAULT_JOIN_RESEED_INTERVAL if reseed_interval is None else reseed_interval
        )
        jobs = [
            engine_batch.ProfileJob(
                series=values_a,
                series_b=values_b,
                window=window,
                row_range=(block_start, block_stop),
                kernel=kernel,
                reseed_interval=interval,
            )
            for block_start, block_stop in plan_blocks(count_a, width)
        ]
        outcomes = engine_batch.compute_profiles(jobs, executor=engine, n_jobs=n_jobs)
        parts = [outcome.unwrap() for outcome in outcomes]
        return JoinProfile(
            distances=np.concatenate([part.distances for part in parts]),
            indices=np.concatenate([part.indices for part in parts]),
            window=window,
        )

    return join_sweep_rows(
        values_a,
        values_b,
        window,
        0,
        count_a,
        stats_a=stats_a,
        stats_b=stats_b,
        kernel=kernel,
        reseed_interval=reseed_interval,
    )


def ab_join_both(
    series_a,
    series_b,
    window: int,
    *,
    stats_a: SlidingStats | None = None,
    stats_b: SlidingStats | None = None,
    kernel: str | None = None,
    reseed_interval: int | None = None,
    engine: str | None = None,
    n_jobs: int | None = None,
    block_size: int | None = None,
) -> tuple[JoinProfile, JoinProfile]:
    """Both one-sided joins ``(A -> B, B -> A)``, sharing the sliding statistics.

    Each series' :class:`~repro.stats.sliding.SlidingStats` is built (or taken
    from ``stats_a=``/``stats_b=``) exactly once and reused across both join
    directions — one set of prefix sums and centered values per series instead
    of one per direction.
    """
    values_a = validate_series(series_a, name="series_a")
    values_b = validate_series(series_b, name="series_b")
    window = validate_subsequence_length(min(values_a.size, values_b.size), window)
    if stats_a is None:
        stats_a = SlidingStats(values_a)
    if stats_b is None:
        stats_b = SlidingStats(values_b)
    options = dict(
        kernel=kernel,
        reseed_interval=reseed_interval,
        engine=engine,
        n_jobs=n_jobs,
        block_size=block_size,
    )
    forward = ab_join(
        values_a, values_b, window, stats_a=stats_a, stats_b=stats_b, **options
    )
    backward = ab_join(
        values_b, values_a, window, stats_a=stats_b, stats_b=stats_a, **options
    )
    return forward, backward
