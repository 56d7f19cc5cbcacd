"""Numerically stable sliding-window statistics.

Matrix-profile style algorithms need, for every subsequence ``T[i:i+m]`` of a
series ``T``, its mean and standard deviation.  Computing them naively is
``O(n·m)``; computing them from cumulative sums is ``O(n)`` but loses
precision on long series.  The routines here use cumulative sums in
``float64`` (with a compensated fallback) and clamp tiny negative variances
to zero, which is the standard practice in matrix-profile implementations.

The :class:`SlidingStats` class precomputes the cumulative sums once and then
serves means / standard deviations / sums of squares for *any* window length
in ``O(1)`` per window, which is exactly what VALMOD needs when it grows the
subsequence length from ``l_min`` to ``l_max``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import InvalidParameterError, InvalidSeriesError
from repro.stats.distance import compensation_needed

__all__ = [
    "prefix_sums",
    "moving_mean",
    "moving_std",
    "moving_mean_std",
    "SlidingStats",
]

#: Variances smaller than this fraction of the prefix-sum magnitude they were
#: derived from are treated as zero (the subsequence is considered constant):
#: below that level the value is dominated by float64 cancellation error.
_EPS_VARIANCE = 1e-15


def _as_float_array(values: np.ndarray | list | tuple, name: str = "series") -> np.ndarray:
    """Return ``values`` as a contiguous 1-D float64 array, validating it."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise InvalidSeriesError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise InvalidSeriesError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise InvalidSeriesError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(array)


def prefix_sums(series: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(cumsum, cumsum_sq)`` with a leading zero element.

    ``cumsum[j] - cumsum[i]`` is the sum of ``series[i:j]``; likewise for the
    squared values.  Both arrays have length ``len(series) + 1`` so that any
    window sum is a single subtraction.
    """
    array = _as_float_array(series)
    csum = np.empty(array.size + 1, dtype=np.float64)
    csum_sq = np.empty(array.size + 1, dtype=np.float64)
    csum[0] = 0.0
    csum_sq[0] = 0.0
    np.cumsum(array, out=csum[1:])
    np.cumsum(np.square(array), out=csum_sq[1:])
    return csum, csum_sq


def _validate_window(series_length: int, window: int) -> None:
    if window < 1:
        raise InvalidParameterError(f"window length must be >= 1, got {window}")
    if window > series_length:
        raise InvalidParameterError(
            f"window length {window} exceeds series length {series_length}"
        )


def moving_mean(series: np.ndarray, window: int) -> np.ndarray:
    """Mean of every length-``window`` subsequence of ``series``, from the
    centered prefix sums of :func:`moving_mean_std`."""
    means, _ = moving_mean_std(series, window)
    return means


def moving_std(series: np.ndarray, window: int) -> np.ndarray:
    """Population standard deviation of every length-``window`` subsequence."""
    _, std = moving_mean_std(series, window)
    return std


def moving_mean_std(series: np.ndarray, window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(means, stds)`` of every length-``window`` subsequence.

    Standard deviations are *population* standard deviations (``ddof=0``),
    the convention used by the matrix-profile literature.  Values that are
    numerically indistinguishable from zero are clamped to exactly ``0.0`` so
    callers can detect constant subsequences with ``std == 0``; so is every
    window in which no value changes, whatever rounding its prefix sums
    carry (see :func:`_change_counts`).

    Both statistics come from prefix sums of the *mean-shifted* series,
    and the shift is added back to the means: the standard deviation is
    invariant under a global shift, but raw sums are not — on a series
    sitting at offset ``1e6`` the sums of squares reach ``1e15`` and their
    float64 rounding error wipes out any variance below ``1e-3``, and the
    raw window sums carry an error that survives the variance's
    cancellation on low-variance windows.  Centering first makes both
    errors scale with the series *spread* instead of its absolute offset.
    """
    array = _as_float_array(series)
    _validate_window(array.size, window)
    csum, _ = prefix_sums(array)
    center = csum[-1] / array.size
    ccsum, ccsum_sq = _centered_prefix_sums(array - center)
    centered_means = (ccsum[window:] - ccsum[:-window]) / window
    _, stds = _variances_from_centered(ccsum_sq, centered_means, window)
    stds[_flat_windows(_change_counts(array), window)] = 0.0
    return centered_means + center, stds


def _centered_prefix_sums(centered: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`prefix_sums` of an already mean-shifted series."""
    ccsum = np.empty(centered.size + 1, dtype=np.float64)
    ccsum_sq = np.empty(centered.size + 1, dtype=np.float64)
    ccsum[0] = ccsum_sq[0] = 0.0
    np.cumsum(centered, out=ccsum[1:])
    np.cumsum(np.square(centered), out=ccsum_sq[1:])
    return ccsum, ccsum_sq


def _change_counts(values: np.ndarray) -> np.ndarray:
    """``counts[k]``: how many adjacent pairs of ``values[:k+1]`` differ.

    A window ``[i, i + w)`` is constant exactly when
    ``counts[i + w - 1] == counts[i]``.  Prefix sums of the values cannot
    tell: their cancellation leaves a flat run's windows a small nonzero
    variance (a std of 8.2e-7 on one 300-point random walk), above the
    relative guard of :func:`_variances_from_centered`.
    """
    counts = np.zeros(values.size, dtype=np.int32)  # 4 bytes a point, kept per series
    np.cumsum(values[1:] != values[:-1], dtype=np.int32, out=counts[1:])
    return counts


def _flat_windows(counts: np.ndarray, window: int) -> np.ndarray:
    """Mask of the length-``window`` subsequences in which no value changes."""
    return counts[window - 1 :] == counts[: counts.size - window + 1]


def _variances_from_centered(
    ccsum_sq: np.ndarray, centered_means: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(variances, stds)`` from centered sum-of-squares prefix sums.

    ``var = sum((x - c)^2) / w - (mu - c)^2`` for any constant ``c``; the
    caller passes ``c`` = the global series mean so both terms stay small.
    The cancellation guard scales with the magnitude of the prefix sums
    being subtracted, which after centering is the honest noise floor.
    """
    window_sum_sq = ccsum_sq[window:] - ccsum_sq[:-window]
    variances = window_sum_sq / window - np.square(centered_means)
    scale = np.maximum((ccsum_sq[window:] + ccsum_sq[:-window]) / window, 1.0)
    variances[variances < _EPS_VARIANCE * scale] = 0.0
    np.maximum(variances, 0.0, out=variances)
    return variances, np.sqrt(variances)


class SlidingStats:
    """Per-window statistics of a series for *any* window length in O(1).

    Parameters
    ----------
    series:
        One-dimensional, finite, non-empty array of values.

    Notes
    -----
    The object stores the two prefix-sum arrays (``O(n)`` memory) and derives
    the statistics of any window on demand.  VALMOD queries it once per
    subsequence length between ``l_min`` and ``l_max``; results for a given
    length are cached because the main loop asks for the same length many
    times (once per distance profile).
    """

    def __init__(self, series: np.ndarray) -> None:
        self._values = _as_float_array(series)
        self._csum, self._csum_sq = prefix_sums(self._values)
        self._cache: dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._centered: np.ndarray | None = None
        self._centered_psums: Tuple[np.ndarray, np.ndarray] | None = None
        self._changes: np.ndarray | None = None
        self._centered_cache: dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._compensation: dict[int, bool] = {}

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The underlying series (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def center(self) -> float:
        """The global mean of the series (the shift removed by ``centered_values``)."""
        return float(self._csum[-1] / self._values.size)

    @property
    def centered_values(self) -> np.ndarray:
        """The series minus its global mean, cached (read-only view).

        Z-normalised distances are invariant under a global shift of the
        series, but the sliding dot products used to compute them are not:
        on a series sitting at a large offset the products are huge and their
        rounding error survives the ``qt -> correlation`` cancellation at
        full size.  Computing the dot products on the centered copy (and
        shifting the window means by the same constant) removes that error
        at the source; the MASS / distance-profile paths do exactly this.
        """
        if self._centered is None:
            centered = self._values - self.center
            centered.flags.writeable = False
            self._centered = centered
        view = self._centered.view()
        view.flags.writeable = False
        return view

    def _centered_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """Prefix sums and sums of squares of the centered series (lazy, cached)."""
        if self._centered_psums is None:
            self._centered_psums = _centered_prefix_sums(self.centered_values)
        return self._centered_psums

    def _change_counts(self) -> np.ndarray:
        """:func:`_change_counts` of the series (lazy, cached)."""
        if self._changes is None:
            self._changes = _change_counts(self._values)
        return self._changes

    def __len__(self) -> int:
        return int(self._values.size)

    def subsequence_count(self, window: int) -> int:
        """Number of subsequences of length ``window``: ``n - window + 1``."""
        _validate_window(self._values.size, window)
        return self._values.size - window + 1

    # ------------------------------------------------------------------ #
    # window statistics
    # ------------------------------------------------------------------ #
    def mean_std(self, window: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(means, stds)`` for every subsequence of length ``window``.

        The means are the centered means plus :attr:`center` (see
        :meth:`centered_mean_std`).
        """
        cached = self._cache.get(window)
        if cached is None:
            centered_means, stds = self.centered_mean_std(window)
            cached = (centered_means + self.center, stds)
            self._cache[window] = cached
        return cached

    def centered_mean_std(self, window: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(means - center, stds)`` for every subsequence, cached per window.

        These are the statistics of :attr:`centered_values` — exactly what
        the centred MASS / distance-profile / AB-join paths feed into the
        ``qt -> correlation`` conversion.  Both come from prefix sums of the
        centered series (see :func:`moving_mean_std`): invariant in exact
        arithmetic, dramatically more accurate when the series sits at a
        large offset.  Cached separately so per-query loops (STAMP,
        PreSCRIMP, VALMOD's recomputations) do not re-subtract the center
        on every call.
        """
        cached = self._centered_cache.get(window)
        if cached is None:
            _validate_window(self._values.size, window)
            ccsum, ccsum_sq = self._centered_sums()
            centered_means = (ccsum[window:] - ccsum[:-window]) / window
            _, stds = _variances_from_centered(ccsum_sq, centered_means, window)
            stds[_flat_windows(self._change_counts(), window)] = 0.0
            cached = (centered_means, stds)
            self._centered_cache[window] = cached
        return cached

    def conversion_compensated(self, window: int) -> bool:
        """Whether the centred conversion should still Dekker-compensate.

        Decided once per window from the centred means and typical std (see
        :func:`repro.stats.distance.compensation_needed`); ``False`` for
        well-scaled series, ``True`` when even the centred means are large
        against the sigmas (e.g. strong drift spanning decades).
        """
        flag = self._compensation.get(window)
        if flag is None:
            centered_means, stds = self.centered_mean_std(window)
            flag = compensation_needed(centered_means, centered_means, stds)
            self._compensation[window] = flag
        return flag

    def forget(self, window: int) -> None:
        """Drop the cached statistics of one window length.

        VALMOD sweeps hundreds of consecutive lengths; forgetting each length
        after its iteration keeps the cache memory bounded.
        """
        self._cache.pop(window, None)
        self._centered_cache.pop(window, None)
        self._compensation.pop(window, None)

    def means(self, window: int) -> np.ndarray:
        """Means of every subsequence of length ``window``."""
        return self.mean_std(window)[0]

    def stds(self, window: int) -> np.ndarray:
        """Standard deviations of every subsequence of length ``window``."""
        return self.mean_std(window)[1]

    def window_sum(self, start: int, length: int) -> float:
        """Sum of ``series[start:start+length]``."""
        self._validate_slice(start, length)
        return float(self._csum[start + length] - self._csum[start])

    def window_sum_sq(self, start: int, length: int) -> float:
        """Sum of squares of ``series[start:start+length]``."""
        self._validate_slice(start, length)
        return float(self._csum_sq[start + length] - self._csum_sq[start])

    def window_mean(self, start: int, length: int) -> float:
        """Mean of ``series[start:start+length]``."""
        return self.window_sum(start, length) / length

    def window_std(self, start: int, length: int) -> float:
        """Population standard deviation of ``series[start:start+length]``."""
        self._validate_slice(start, length)
        ccsum, ccsum_sq = self._centered_sums()
        centered_mean = (ccsum[start + length] - ccsum[start]) / length
        variance = (
            ccsum_sq[start + length] - ccsum_sq[start]
        ) / length - centered_mean * centered_mean
        scale = max((ccsum_sq[start + length] + ccsum_sq[start]) / length, 1.0)
        changes = self._change_counts()
        if variance < _EPS_VARIANCE * scale or changes[start + length - 1] == changes[start]:
            return 0.0
        return float(np.sqrt(max(variance, 0.0)))

    def _validate_slice(self, start: int, length: int) -> None:
        if length < 1:
            raise InvalidParameterError(f"window length must be >= 1, got {length}")
        if start < 0 or start + length > self._values.size:
            raise InvalidParameterError(
                f"window [{start}, {start + length}) is out of bounds for a series "
                f"of length {self._values.size}"
            )
