"""Unit tests for repro.stats.sliding."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import InvalidParameterError, InvalidSeriesError
from repro.stats.sliding import (
    SlidingStats,
    moving_mean,
    moving_mean_std,
    moving_std,
    prefix_sums,
)

finite_series = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=5, max_value=60),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
)


class TestPrefixSums:
    def test_matches_cumsum(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        csum, csum_sq = prefix_sums(values)
        assert csum.tolist() == [0.0, 1.0, 3.0, 6.0, 10.0]
        assert csum_sq.tolist() == [0.0, 1.0, 5.0, 14.0, 30.0]

    def test_window_sum_by_subtraction(self):
        values = np.arange(10, dtype=float)
        csum, _ = prefix_sums(values)
        assert csum[7] - csum[3] == pytest.approx(values[3:7].sum())

    def test_rejects_empty(self):
        with pytest.raises(InvalidSeriesError):
            prefix_sums(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidSeriesError):
            prefix_sums(np.array([1.0, np.nan]))

    def test_rejects_2d(self):
        with pytest.raises(InvalidSeriesError):
            prefix_sums(np.ones((3, 3)))


class TestMovingStatistics:
    def test_moving_mean_matches_naive(self):
        values = np.random.default_rng(0).normal(size=50)
        window = 7
        expected = np.array([values[i : i + window].mean() for i in range(len(values) - window + 1)])
        np.testing.assert_allclose(moving_mean(values, window), expected, atol=1e-12)

    def test_moving_mean_is_exact_at_a_large_offset(self):
        # Raw prefix sums of a walk at 1e6 left window means off by 1.4e-7.
        values = np.cumsum(np.random.default_rng(61).standard_normal(4096)) + 1e6
        window = 10
        exact = np.array(
            [math.fsum(values[i : i + window]) / window for i in range(values.size - window + 1)]
        )
        assert np.max(np.abs(moving_mean(values, window) - exact)) <= 1e-9

    def test_moving_std_matches_naive(self):
        values = np.random.default_rng(1).normal(size=50)
        window = 9
        expected = np.array([values[i : i + window].std() for i in range(len(values) - window + 1)])
        np.testing.assert_allclose(moving_std(values, window), expected, atol=1e-10)

    def test_window_one(self):
        values = np.array([3.0, -1.0, 2.0])
        means, stds = moving_mean_std(values, 1)
        np.testing.assert_allclose(means, values)
        np.testing.assert_allclose(stds, np.zeros(3))

    def test_window_equal_to_length(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        means, stds = moving_mean_std(values, 4)
        assert means.shape == (1,)
        assert means[0] == pytest.approx(2.5)
        assert stds[0] == pytest.approx(values.std())

    def test_constant_window_yields_zero_std(self):
        values = np.array([5.0] * 10 + [1.0, 2.0])
        _, stds = moving_mean_std(values, 5)
        assert stds[0] == 0.0
        assert stds[1] == 0.0

    def test_flat_run_inside_a_walk_yields_zero_std(self):
        # Prefix-sum cancellation left these windows a std of 8.2e-7.
        rng = np.random.default_rng(5)
        rng.standard_normal(300)
        values = np.cumsum(rng.standard_normal(300))
        values[100:160] = values[100]
        stats = SlidingStats(values)
        flat = slice(100, 145)  # the windows of length 16 inside the run
        assert not np.any(moving_mean_std(values, 16)[1][flat])
        assert not np.any(stats.stds(16)[flat])
        assert stats.window_std(144, 16) == 0.0
        assert stats.window_std(145, 16) > 0.0
        assert np.all(stats.stds(16)[145:] > 0.0)

    def test_invalid_window_raises(self):
        values = np.arange(10, dtype=float)
        with pytest.raises(InvalidParameterError):
            moving_mean(values, 0)
        with pytest.raises(InvalidParameterError):
            moving_mean(values, 11)

    @settings(max_examples=40, deadline=None)
    @given(series=finite_series, window=st.integers(min_value=1, max_value=10))
    def test_property_matches_naive(self, series, window):
        window = min(window, series.size)
        means, stds = moving_mean_std(series, window)
        count = series.size - window + 1
        # Tolerances scale with the magnitude of the *whole* series: the
        # cumulative-sum statistics lose precision (and deliberately clamp
        # near-constant windows to zero) when the prefix sums are large
        # compared to the local spread.
        scale = max(1.0, float(np.abs(series).max()))
        for i in range(0, count, max(1, count // 5)):
            segment = series[i : i + window]
            assert means[i] == pytest.approx(segment.mean(), rel=1e-9, abs=1e-9 * scale)
            assert stds[i] == pytest.approx(segment.std(), rel=1e-5, abs=2e-6 * scale)


class TestSlidingStats:
    def test_mean_std_cached_and_consistent(self):
        values = np.random.default_rng(2).normal(size=80)
        stats = SlidingStats(values)
        first = stats.mean_std(10)
        second = stats.mean_std(10)
        assert first[0] is second[0]  # cached object reuse
        np.testing.assert_allclose(first[0], moving_mean(values, 10))

    def test_forget_clears_cache(self):
        stats = SlidingStats(np.arange(30, dtype=float))
        first = stats.mean_std(5)
        stats.forget(5)
        second = stats.mean_std(5)
        assert first[0] is not second[0]
        np.testing.assert_allclose(first[0], second[0])

    def test_window_scalar_queries(self):
        values = np.random.default_rng(3).normal(size=40)
        stats = SlidingStats(values)
        assert stats.window_sum(4, 6) == pytest.approx(values[4:10].sum())
        assert stats.window_sum_sq(4, 6) == pytest.approx((values[4:10] ** 2).sum())
        assert stats.window_mean(4, 6) == pytest.approx(values[4:10].mean())
        assert stats.window_std(4, 6) == pytest.approx(values[4:10].std(), abs=1e-10)

    def test_subsequence_count(self):
        stats = SlidingStats(np.arange(25, dtype=float))
        assert stats.subsequence_count(10) == 16
        assert len(stats) == 25

    def test_values_are_read_only(self):
        stats = SlidingStats(np.arange(10, dtype=float))
        with pytest.raises(ValueError):
            stats.values[0] = 99.0

    def test_out_of_bounds_window_raises(self):
        stats = SlidingStats(np.arange(10, dtype=float))
        with pytest.raises(InvalidParameterError):
            stats.window_sum(8, 5)
        with pytest.raises(InvalidParameterError):
            stats.window_sum(-1, 3)
