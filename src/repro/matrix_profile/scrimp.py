"""SCRIMP and PreSCRIMP — anytime computation of the matrix profile.

STOMP computes the matrix profile row by row, so interrupting it half-way
leaves the second half of the profile empty.  SCRIMP (Zhu et al., ICDM 2018)
computes the *same* exact profile diagonal by diagonal: each diagonal updates
entries spread over the whole profile, so an interrupted run is a uniformly
converging approximation of the final answer.  PreSCRIMP is the companion
preprocessing pass that seeds the profile with the distance profiles of a
sample of subsequences (one every ``step`` offsets), which already places
most motif pairs within a small factor of their true distance.

These algorithms are not part of the VALMOD paper itself, but they are the
natural "anytime" companions of the fixed-length substrate the paper builds
on, and the library uses them in two places:

* the anytime ablation benchmark, which measures how quickly a partial
  SCRIMP run approaches the exact profile (and therefore the exact motifs);
* the streaming package, which uses the same diagonal update internally.

Run to completion (``fraction=1.0``) SCRIMP is exact and its output is
bit-for-bit comparable with :func:`repro.matrix_profile.stomp.stomp` (the
tests assert this).  The diagonals are folded by
:func:`~repro.matrix_profile.kernels.run_diagonal_sweep`: one at a time on the
oracle and numpy kernels, all in one compiled call on the native kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.matrix_profile.exclusion import apply_exclusion_zone, default_exclusion_radius
from repro.matrix_profile.kernels import run_diagonal_sweep, validate_kernel
from repro.matrix_profile.mass import mass
from repro.matrix_profile.profile import MatrixProfile
from repro.series.validation import validate_series, validate_subsequence_length
from repro.stats.distance import compensation_needed
from repro.stats.sliding import SlidingStats

__all__ = [
    "ScrimpState",
    "convergence_curve",
    "pre_scrimp",
    "profile_error",
    "scrimp",
    "scrimp_pp",
]


@dataclass
class ScrimpState:
    """Mutable state of an interruptible SCRIMP computation.

    Attributes
    ----------
    distances, indices:
        The current (possibly partial) matrix profile and index profile.
    window:
        Subsequence length.
    exclusion_radius:
        Trivial-match radius used by the run.
    diagonals_done:
        Number of diagonals already processed (out of ``diagonals_total``).
    diagonals_total:
        Number of informative diagonals (those outside the exclusion zone).
    """

    distances: np.ndarray
    indices: np.ndarray
    window: int
    exclusion_radius: int
    diagonals_done: int
    diagonals_total: int

    @property
    def completion(self) -> float:
        """Fraction of the informative diagonals processed so far."""
        if self.diagonals_total == 0:
            return 1.0
        return self.diagonals_done / self.diagonals_total

    def as_profile(self) -> MatrixProfile:
        """Snapshot of the current state as a :class:`MatrixProfile`."""
        return MatrixProfile(
            distances=np.array(self.distances),
            indices=np.array(self.indices),
            window=self.window,
            exclusion_radius=self.exclusion_radius,
        )


def scrimp(
    series,
    window: int,
    *,
    fraction: float = 1.0,
    exclusion_radius: int | None = None,
    stats: SlidingStats | None = None,
    random_state: np.random.Generator | int | None = None,
    state: ScrimpState | None = None,
    kernel: str | None = None,
) -> MatrixProfile:
    """Anytime exact matrix profile via random diagonal traversal.

    Parameters
    ----------
    series:
        The data series (array-like or :class:`~repro.series.DataSeries`).
    window:
        Subsequence length ``m``.
    fraction:
        Fraction of the informative diagonals to process, in ``(0, 1]``.
        ``1.0`` yields the exact matrix profile; smaller values return an
        anytime approximation whose error shrinks as the fraction grows.
    exclusion_radius:
        Trivial-match radius; defaults to ``ceil(m / 4)``.
    stats:
        Optional precomputed sliding statistics of ``series``.
    random_state:
        Seed or generator controlling the diagonal visiting order.
    state:
        Optional :class:`ScrimpState` from a previous partial run to resume
        (e.g. the output of :func:`pre_scrimp`); diagonals already counted in
        it are assumed *not* to have been processed (PreSCRIMP seeds values,
        not diagonals), so resuming simply continues improving the snapshot.
    kernel:
        Diagonal-sweep kernel (see
        :func:`~repro.matrix_profile.kernels.run_diagonal_sweep`):
        ``"oracle"`` and ``"numpy"`` process one diagonal at a time,
        ``"native"`` runs the compiled loop.  All kernels produce
        bit-identical profiles for every ``fraction`` and resume point —
        the merge rule is order-exact — so the anytime contract is
        unchanged.

    Returns
    -------
    MatrixProfile
        Exact when ``fraction == 1.0``, an upper-bounding approximation
        otherwise (every reported distance is a true pair distance, so it can
        only over-estimate the nearest-neighbour distance).
    """
    values = validate_series(series)
    window = validate_subsequence_length(values.size, window)
    validate_kernel(kernel)
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameterError(f"fraction must be in (0, 1], got {fraction}")
    radius = default_exclusion_radius(window) if exclusion_radius is None else int(exclusion_radius)
    if radius < 0:
        raise InvalidParameterError(f"exclusion radius must be >= 0, got {radius}")
    if stats is None:
        stats = SlidingStats(values)
    means, stds = stats.mean_std(window)
    count = values.size - window + 1

    diagonals = np.arange(radius + 1, count, dtype=np.int64)
    if state is None:
        state = ScrimpState(
            distances=np.full(count, np.inf, dtype=np.float64),
            indices=np.full(count, -1, dtype=np.int64),
            window=window,
            exclusion_radius=radius,
            diagonals_done=0,
            diagonals_total=int(diagonals.size),
        )
    elif state.window != window or state.distances.size != count:
        raise InvalidParameterError(
            "the provided ScrimpState does not match this series/window combination"
        )

    rng = np.random.default_rng(random_state)
    order = rng.permutation(diagonals)
    if fraction >= 1.0:
        to_process = order
    else:
        limit = max(1, int(round(fraction * order.size))) if order.size else 0
        to_process = order[:limit]

    # One cancellation-risk decision for the whole sweep (every diagonal
    # shares the same means array).
    compensated = compensation_needed(means, means, stds)
    run_diagonal_sweep(
        values,
        window,
        means,
        stds,
        to_process,
        state.distances,
        state.indices,
        kernel=kernel,
        compensated=compensated,
    )
    state.diagonals_done += int(to_process.size)

    return state.as_profile()


def pre_scrimp(
    series,
    window: int,
    *,
    step: int | None = None,
    exclusion_radius: int | None = None,
    stats: SlidingStats | None = None,
    random_state: np.random.Generator | int | None = None,
) -> MatrixProfile:
    """PreSCRIMP — sampled-distance-profile approximation of the matrix profile.

    One exact distance profile (a MASS call) is computed for every ``step``-th
    subsequence, visiting the sampled offsets in random order; each profile
    updates both the sampled offset's entry and the entries of every other
    offset it reaches.  With the recommended ``step = ceil(m / 4)`` the result
    is typically within a few percent of the exact profile at a fraction of
    the cost, which is why SCRIMP++ runs it before the diagonal sweep.

    The returned profile is an *upper bound* of the exact one: every reported
    distance is a genuine pair distance.
    """
    values = validate_series(series)
    window = validate_subsequence_length(values.size, window)
    radius = default_exclusion_radius(window) if exclusion_radius is None else int(exclusion_radius)
    if stats is None:
        stats = SlidingStats(values)
    if step is None:
        step = max(1, int(np.ceil(window / 4)))
    if step < 1:
        raise InvalidParameterError(f"step must be >= 1, got {step}")
    count = values.size - window + 1

    distances = np.full(count, np.inf, dtype=np.float64)
    indices = np.full(count, -1, dtype=np.int64)

    rng = np.random.default_rng(random_state)
    sampled = np.arange(0, count, step, dtype=np.int64)
    for offset in rng.permutation(sampled).tolist():
        profile = mass(values[offset : offset + window], values, stats=stats)
        apply_exclusion_zone(profile, offset, radius)
        best = int(np.argmin(profile))
        if np.isfinite(profile[best]) and profile[best] < distances[offset]:
            distances[offset] = float(profile[best])
            indices[offset] = best
        # Every other offset also learns about its distance to `offset`.
        better = profile < distances
        distances[better] = profile[better]
        indices[better] = offset

    return MatrixProfile(
        distances=distances, indices=indices, window=window, exclusion_radius=radius
    )


def scrimp_pp(
    series,
    window: int,
    *,
    fraction: float = 1.0,
    step: int | None = None,
    exclusion_radius: int | None = None,
    stats: SlidingStats | None = None,
    random_state: np.random.Generator | int | None = None,
    kernel: str | None = None,
) -> MatrixProfile:
    """SCRIMP++ — PreSCRIMP seeding followed by a (possibly partial) SCRIMP sweep.

    With ``fraction=1.0`` the result is exact; with a smaller fraction the
    PreSCRIMP seed guarantees the approximation is already close while the
    diagonal sweep keeps tightening it.  ``kernel`` selects the
    diagonal-sweep kernel exactly as in :func:`scrimp`.
    """
    values = validate_series(series)
    window = validate_subsequence_length(values.size, window)
    radius = default_exclusion_radius(window) if exclusion_radius is None else int(exclusion_radius)
    if stats is None:
        stats = SlidingStats(values)
    seeded = pre_scrimp(
        values,
        window,
        step=step,
        exclusion_radius=radius,
        stats=stats,
        random_state=random_state,
    )
    count = values.size - window + 1
    state = ScrimpState(
        distances=np.array(seeded.distances),
        indices=np.array(seeded.indices),
        window=window,
        exclusion_radius=radius,
        diagonals_done=0,
        diagonals_total=max(count - radius - 1, 0),
    )
    return scrimp(
        values,
        window,
        fraction=fraction,
        exclusion_radius=radius,
        stats=stats,
        random_state=random_state,
        state=state,
        kernel=kernel,
    )


def profile_error(approximate: MatrixProfile, exact: MatrixProfile) -> float:
    """Mean absolute error between an anytime profile and the exact one.

    Entries that are still ``inf`` in the approximation contribute the largest
    possible error for their position (``sqrt(2 m)``), so the measure is
    defined from the very first diagonal onwards.
    """
    if approximate.window != exact.window or len(approximate) != len(exact):
        raise InvalidParameterError(
            "profiles must share the same window and length to be compared"
        )
    cap = np.sqrt(2.0 * exact.window)
    approx = np.where(np.isfinite(approximate.distances), approximate.distances, cap)
    reference = np.where(np.isfinite(exact.distances), exact.distances, cap)
    return float(np.mean(np.abs(approx - reference)))


def convergence_curve(
    series,
    window: int,
    fractions: Iterable[float],
    *,
    random_state: np.random.Generator | int | None = 0,
    exact: MatrixProfile | None = None,
) -> List[dict]:
    """Anytime convergence curve: profile error after each fraction of SCRIMP work.

    Used by the anytime ablation benchmark; returns one row per fraction with
    the mean absolute profile error and the relative error of the motif-pair
    distance.
    """
    values = validate_series(series)
    window = validate_subsequence_length(values.size, window)
    stats = SlidingStats(values)
    if exact is None:
        exact = scrimp(values, window, fraction=1.0, stats=stats, random_state=random_state)
    exact_best = exact.best().distance
    rows: List[dict] = []
    for fraction in fractions:
        approximate = scrimp(
            values, window, fraction=float(fraction), stats=stats, random_state=random_state
        )
        try:
            approx_best = approximate.best().distance
            motif_error = abs(approx_best - exact_best) / max(exact_best, 1e-12)
        except Exception:  # noqa: BLE001 - no finite entry yet at tiny fractions
            motif_error = float("inf")
        rows.append(
            {
                "fraction": float(fraction),
                "profile_mae": profile_error(approximate, exact),
                "motif_distance_relative_error": motif_error,
            }
        )
    return rows
