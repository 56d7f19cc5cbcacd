"""SKIMP-style pan matrix profile — an alternative variable-length view.

After VALMOD, the matrix-profile line of work proposed a second way of
looking at "all lengths at once": compute the complete matrix profile for a
(sub)set of lengths and stack the length-normalised profiles into a matrix —
the *pan matrix profile* — visiting the lengths in a breadth-first
binary-split order so that interrupting the computation still leaves the
range uniformly covered (SKIMP, "Matrix Profile XX").

The library implements it for two reasons:

* as an **ablation baseline** for VALMOD: the pan profile pays the full
  per-length cost for every evaluated length, which is exactly the cost
  VALMOD's lower-bound pruning avoids — the ablation benchmark compares the
  two on identical length ranges;
* as an **analysis companion**: the pan profile contains the best match of
  *every* position at *every* evaluated length (not only the top-k pairs),
  so it can answer questions VALMAP deliberately summarises away.

Collapsing the pan profile over the length axis (per-position minimum of the
length-normalised distances) yields the same ``⟨MPn, IP, LP⟩`` triple as
VALMAP built from complete per-length profiles; the tests use this to
cross-check the two structures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.core.ranking import rank_motif_pairs
from repro.core.valmap import Valmap
from repro.exceptions import EmptyResultError, InvalidParameterError
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.profile import MatrixProfile, MotifPair
from repro.matrix_profile.stomp import stomp
from repro.series.validation import validate_length_range, validate_series
from repro.stats.sliding import SlidingStats

__all__ = ["PanMatrixProfile", "breadth_first_lengths", "skimp"]


def breadth_first_lengths(min_length: int, max_length: int) -> List[int]:
    """Binary-split (breadth-first) visiting order of ``[min_length, max_length]``.

    The first few visited lengths split the range into halves, quarters, ...,
    so a run interrupted after ``k`` lengths has evaluated a roughly uniform
    sample of the whole range — SKIMP's anytime property over lengths.
    """
    if min_length > max_length:
        raise InvalidParameterError(
            f"min_length {min_length} exceeds max_length {max_length}"
        )
    visited: List[int] = []
    seen = set()
    queue: List[tuple[int, int]] = [(min_length, max_length)]
    while queue:
        low, high = queue.pop(0)
        middle = (low + high) // 2
        if middle not in seen:
            visited.append(middle)
            seen.add(middle)
        if low <= middle - 1:
            queue.append((low, middle - 1))
        if middle + 1 <= high:
            queue.append((middle + 1, high))
    return visited


@dataclass(frozen=True)
class PanMatrixProfile:
    """The pan matrix profile of one series over a set of lengths.

    Attributes
    ----------
    lengths:
        The evaluated subsequence lengths, ascending.
    normalized_profiles:
        2-D array of shape ``(len(lengths), n - min(lengths) + 1)``; row ``r``
        holds the *length-normalised* matrix profile at ``lengths[r]``, padded
        with ``nan`` beyond its own number of subsequences.
    index_profiles:
        Best-match offsets, same shape, padded with ``-1``.
    min_length, max_length:
        The requested length range (the evaluated lengths are a subset).
    """

    lengths: np.ndarray
    normalized_profiles: np.ndarray
    index_profiles: np.ndarray
    min_length: int
    max_length: int
    elapsed_seconds: float = 0.0

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=np.int64)
        profiles = np.asarray(self.normalized_profiles, dtype=np.float64)
        indices = np.asarray(self.index_profiles, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0:
            raise InvalidParameterError("at least one evaluated length is required")
        if profiles.shape != indices.shape or profiles.ndim != 2:
            raise InvalidParameterError(
                "normalized_profiles and index_profiles must be 2-D arrays of equal shape"
            )
        if profiles.shape[0] != lengths.size:
            raise InvalidParameterError(
                "one profile row is required per evaluated length"
            )
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "normalized_profiles", profiles)
        object.__setattr__(self, "index_profiles", indices)

    def __len__(self) -> int:
        return int(self.lengths.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self.lengths.tolist())

    # ------------------------------------------------------------------ #
    # per-length access
    # ------------------------------------------------------------------ #
    def _row(self, length: int) -> int:
        matches = np.flatnonzero(self.lengths == length)
        if matches.size == 0:
            raise InvalidParameterError(
                f"length {length} was not evaluated; available: {self.lengths.tolist()}"
            )
        return int(matches[0])

    def profile_at(self, length: int) -> MatrixProfile:
        """The (de-normalised) matrix profile of one evaluated length."""
        row = self._row(length)
        count = self.normalized_profiles.shape[1] - (length - self.min_length)
        normalized = self.normalized_profiles[row, :count]
        indices = self.index_profiles[row, :count]
        return MatrixProfile(
            distances=normalized * np.sqrt(length),
            indices=np.array(indices),
            window=int(length),
            exclusion_radius=default_exclusion_radius(int(length)),
        )

    def best_pair_at(self, length: int) -> MotifPair:
        """The best motif pair of one evaluated length."""
        return self.profile_at(length).best()

    # ------------------------------------------------------------------ #
    # cross-length views
    # ------------------------------------------------------------------ #
    def top_motifs(self, k: int = 10, *, distinct_events: bool = True) -> List[MotifPair]:
        """Variable-length top-``k`` pairs across the evaluated lengths."""
        pairs = []
        for length in self.lengths.tolist():
            try:
                pairs.append(self.best_pair_at(int(length)))
            except EmptyResultError:
                continue
        return rank_motif_pairs(pairs, k, distinct_events=distinct_events)

    def best_motif(self) -> MotifPair:
        """The single best variable-length pair (smallest length-normalised distance)."""
        ranked = self.top_motifs(1, distinct_events=False)
        if not ranked:
            raise EmptyResultError("the pan profile holds no finite entry")
        return ranked[0]

    def collapse(self) -> Valmap:
        """Collapse the pan profile into a VALMAP ``⟨MPn, IP, LP⟩`` triple.

        Every position adopts the evaluated length that gives it the smallest
        length-normalised best-match distance — the dense analogue of the
        VALMAP update rule (which only sees the top-k pairs of each length).
        """
        size = self.normalized_profiles.shape[1]
        valmap = Valmap(self.min_length, int(self.max_length), size)
        with np.errstate(invalid="ignore"):
            filled = np.where(np.isnan(self.normalized_profiles), np.inf, self.normalized_profiles)
        best_rows = np.argmin(filled, axis=0)
        positions = np.arange(size)
        best_values = filled[best_rows, positions]
        valmap.normalized_profile[:] = best_values
        valmap.index_profile[:] = self.index_profiles[best_rows, positions]
        valmap.length_profile[:] = self.lengths[best_rows]
        # Positions beyond the reach of every evaluated length stay unset.
        unreachable = ~np.isfinite(best_values)
        valmap.index_profile[unreachable] = -1
        valmap.length_profile[unreachable] = self.min_length
        return valmap

    def length_of_best_match(self) -> np.ndarray:
        """For every position, the evaluated length with the smallest normalised distance."""
        return np.array(self.collapse().length_profile)

    def as_dict(self, *, arrays: bool = False) -> dict:
        """Plain-dict form for reports and serialization (``arrays=True``
        keeps the numpy arrays rather than listing them)."""
        return {
            "min_length": self.min_length,
            "max_length": self.max_length,
            "lengths": self.lengths if arrays else self.lengths.tolist(),
            "elapsed_seconds": self.elapsed_seconds,
            "normalized_profiles": (
                self.normalized_profiles
                if arrays
                else self.normalized_profiles.tolist()
            ),
            "index_profiles": (
                self.index_profiles if arrays else self.index_profiles.tolist()
            ),
        }


def skimp(
    series,
    min_length: int,
    max_length: int,
    *,
    num_lengths: int | None = None,
    lengths: Sequence[int] | None = None,
    exclusion_factor: int = 4,
    engine: object | None = None,
    n_jobs: int | None = None,
    kernel: str | None = None,
    stats: SlidingStats | None = None,
) -> PanMatrixProfile:
    """Compute a pan matrix profile over ``[min_length, max_length]``.

    Parameters
    ----------
    num_lengths:
        When given, only the first ``num_lengths`` lengths of the breadth-first
        order are evaluated (SKIMP's anytime behaviour over lengths); by
        default every length of the range is evaluated.
    lengths:
        Explicit list of lengths to evaluate (overrides ``num_lengths``); they
        must all fall inside the range.
    exclusion_factor:
        Trivial-match exclusion denominator passed to the per-length STOMP
        runs.
    engine, n_jobs:
        ``engine=None`` (default) keeps the serial per-length loop.
        Otherwise the per-length profiles are dispatched as one batch of
        independent jobs through :func:`repro.engine.batch.compute_profiles`
        — the pan profile is the engine's best case, since every length is
        a full profile with no cross-length data dependency.
    kernel:
        Sweep kernel of the per-length STOMP runs
        (:mod:`repro.matrix_profile.kernels`).
    """
    values = validate_series(series)
    min_length, max_length = validate_length_range(values.size, min_length, max_length)

    if lengths is not None:
        chosen = sorted({int(length) for length in lengths})
        for length in chosen:
            if length < min_length or length > max_length:
                raise InvalidParameterError(
                    f"explicit length {length} outside range [{min_length}, {max_length}]"
                )
        if not chosen:
            raise InvalidParameterError("the explicit length list must not be empty")
    else:
        order = breadth_first_lengths(min_length, max_length)
        if num_lengths is not None:
            if num_lengths < 1:
                raise InvalidParameterError(f"num_lengths must be >= 1, got {num_lengths}")
            order = order[:num_lengths]
        chosen = sorted(order)

    started = time.perf_counter()
    size = values.size - min_length + 1
    normalized = np.full((len(chosen), size), np.nan, dtype=np.float64)
    indices = np.full((len(chosen), size), -1, dtype=np.int64)
    def fill_row(row: int, profile: MatrixProfile) -> None:
        count = len(profile)
        normalized[row, :count] = profile.normalized_distances
        indices[row, :count] = profile.indices

    if engine is not None:
        from repro.engine.batch import ProfileJob, compute_profiles

        jobs = [
            ProfileJob(
                values,
                window=length,
                exclusion_radius=default_exclusion_radius(length, exclusion_factor),
                kernel=kernel,
            )
            for length in chosen
        ]
        for row, outcome in enumerate(
            compute_profiles(jobs, executor=engine, n_jobs=n_jobs)
        ):
            fill_row(row, outcome.unwrap())
    else:
        if stats is None:
            stats = SlidingStats(values)
        for row, length in enumerate(chosen):
            # Copy-and-discard per length: peak memory stays O(n), not O(L·n).
            fill_row(
                row,
                stomp(
                    values,
                    length,
                    exclusion_radius=default_exclusion_radius(length, exclusion_factor),
                    stats=stats,
                    kernel=kernel,
                ),
            )
            stats.forget(length)
    elapsed = time.perf_counter() - started

    return PanMatrixProfile(
        lengths=np.array(chosen, dtype=np.int64),
        normalized_profiles=normalized,
        index_profiles=indices,
        min_length=min_length,
        max_length=max_length,
        elapsed_seconds=elapsed,
    )
