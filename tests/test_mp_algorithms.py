"""Unit and cross-validation tests for STOMP, STAMP and the brute-force profile."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrix_profile.brute_force import brute_force_matrix_profile
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.stamp import stamp
from repro.matrix_profile.stomp import stomp
from repro.series.dataseries import DataSeries


class TestStompBasics:
    def test_profile_shape(self, small_random_series):
        window = 16
        profile = stomp(small_random_series, window)
        assert len(profile) == small_random_series.size - window + 1
        assert profile.window == window

    def test_accepts_dataseries(self, small_ecg_series):
        profile = stomp(small_ecg_series, 32)
        assert len(profile) == len(small_ecg_series) - 32 + 1

    def test_distances_non_negative_and_bounded(self, small_random_series):
        window = 16
        profile = stomp(small_random_series, window)
        finite = profile.distances[np.isfinite(profile.distances)]
        assert np.all(finite >= 0.0)
        assert np.all(finite <= 2.0 * np.sqrt(window) + 1e-9)

    def test_indices_outside_exclusion_zone(self, small_random_series):
        window = 20
        profile = stomp(small_random_series, window)
        radius = default_exclusion_radius(window)
        offsets = np.arange(len(profile))
        valid = profile.indices >= 0
        assert np.all(np.abs(profile.indices[valid] - offsets[valid]) > radius)

    def test_symmetric_pair_consistency(self, small_random_series):
        # the best pair's distance appears in both members' profile entries
        profile = stomp(small_random_series, 16)
        best = profile.best()
        assert profile.distances[best.offset_a] == pytest.approx(
            best.distance, rel=1e-9
        )
        assert profile.distances[best.offset_b] <= best.distance + 1e-9

    def test_callback_invoked_for_every_offset(self, small_random_series):
        """The per-row ingest hook sees every query offset, in row order."""

        class OffsetRecorder:
            def __init__(self):
                self.offsets = []

            def require_ready_for_ingest(self, window):
                pass

            def ingest_centered_profile(self, offset, dot_products):
                self.offsets.append(offset)

        recorder = OffsetRecorder()
        stomp(small_random_series, 16, kernel="oracle", ingest_store=recorder)
        assert recorder.offsets == list(range(small_random_series.size - 16 + 1))

    def test_planted_motif_is_global_best(self, planted_series):
        series, truth = planted_series
        planted = truth[0]
        profile = stomp(series, planted.length)
        best = profile.best()
        # the best pair must land on (or very near) the planted copies
        assert min(abs(best.offset_a - offset) for offset in planted.offsets) < planted.length // 4
        assert min(abs(best.offset_b - offset) for offset in planted.offsets) < planted.length // 4


class TestAgainstBruteForce:
    @pytest.mark.parametrize("window", [8, 16, 33])
    def test_stomp_equals_brute_force(self, small_random_series, window):
        fast = stomp(small_random_series, window)
        slow = brute_force_matrix_profile(small_random_series, window)
        np.testing.assert_allclose(fast.distances, slow.distances, atol=1e-5)

    def test_stamp_equals_brute_force(self, small_random_series):
        window = 16
        fast = stamp(small_random_series, window)
        slow = brute_force_matrix_profile(small_random_series, window)
        np.testing.assert_allclose(fast.distances, slow.distances, atol=1e-5)

    def test_stomp_equals_stamp_on_ecg(self, small_ecg_series):
        window = 24
        np.testing.assert_allclose(
            stomp(small_ecg_series, window).distances,
            stamp(small_ecg_series, window).distances,
            atol=1e-5,
        )

    def test_constant_region_handling(self):
        # A series with a long flat stretch: all algorithms must agree and
        # return finite values.
        values = np.concatenate(
            [np.zeros(50), np.sin(np.linspace(0, 12, 120)), np.zeros(40)]
        )
        window = 12
        fast = stomp(values, window)
        slow = brute_force_matrix_profile(values, window)
        np.testing.assert_allclose(fast.distances, slow.distances, atol=1e-5)


class TestStampAnytime:
    def test_partial_stamp_is_upper_bound(self, small_random_series):
        window = 16
        exact = stomp(small_random_series, window)
        partial = stamp(small_random_series, window, max_profiles=40, random_state=0)
        finite = np.isfinite(partial.distances)
        assert np.all(partial.distances[finite] >= exact.distances[finite] - 1e-9)

    def test_explicit_order(self, small_random_series):
        order = np.arange(small_random_series.size - 16 + 1)[::-1]
        profile = stamp(small_random_series, 16, order=order)
        exact = stomp(small_random_series, 16)
        np.testing.assert_allclose(profile.distances, exact.distances, atol=1e-6)

    def test_invalid_order_raises(self, small_random_series):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            stamp(small_random_series, 16, order=np.array([0, 99999]))

    def test_invalid_max_profiles_raises(self, small_random_series):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            stamp(small_random_series, 16, max_profiles=0)
